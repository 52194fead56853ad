package core

import (
	"context"
	"fmt"
)

// PipelinedTrainer implements the paper's Section VII future-work idea —
// hiding communication behind computation — with one-step-stale updates:
// while iteration t+1's gradient is being computed, iteration t's
// gradient is aggregated concurrently, and its update is applied just
// before the NEXT forward pass.
//
// Semantics: weights_t+1 = weights_t − η·v_t where v_t uses the update
// aggregated from the gradient computed at weights_{t−1}. This is the
// classic one-step-stale pipeline; convergence degrades only marginally
// for small learning rates (asserted by the tests) while the modelled
// iteration time drops from (compute + comm) to max(compute, comm) —
// quantified analytically by the ablation-pipeline experiment.
//
// Replica consistency is preserved: every rank applies the same updates
// in the same order, just one step later than the synchronous trainer.
type PipelinedTrainer struct {
	cfg      TrainConfig
	agg      Aggregator
	gradFn   GradFn
	weights  []float32
	velocity []float32
	grad     []float32
	iter     int

	inflight bool
	resultCh chan aggResult
}

type aggResult struct {
	update []float32 // private copy of the aggregated update
	err    error
}

// NewPipelinedTrainer assembles a pipelined trainer with the same
// contract as NewTrainer.
func NewPipelinedTrainer(cfg TrainConfig, agg Aggregator, weights []float32, gradFn GradFn) (*PipelinedTrainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if agg == nil || gradFn == nil {
		return nil, fmt.Errorf("core: pipelined trainer needs an aggregator and a gradient function")
	}
	return &PipelinedTrainer{
		cfg:      cfg,
		agg:      agg,
		gradFn:   gradFn,
		weights:  weights,
		velocity: make([]float32, len(weights)),
		grad:     make([]float32, len(weights)),
		resultCh: make(chan aggResult, 1),
	}, nil
}

// Weights exposes the current parameters.
func (t *PipelinedTrainer) Weights() []float32 { return t.weights }

// Iter returns the number of gradient computations so far.
func (t *PipelinedTrainer) Iter() int { return t.iter }

// Step computes this iteration's gradient, applies the PREVIOUS
// iteration's aggregated update (if any), and launches this gradient's
// aggregation in the background. Returns the local mini-batch loss.
func (t *PipelinedTrainer) Step(ctx context.Context) (float64, error) {
	clear(t.grad)
	loss := t.gradFn(t.iter, t.weights, t.grad)

	// Overlap point: the previous aggregation ran while gradFn computed.
	if t.inflight {
		if err := t.applyPending(); err != nil {
			return 0, fmt.Errorf("core: pipelined step %d: %w", t.iter, err)
		}
	}

	// Hand the fresh gradient to the aggregator on a private copy so the
	// next gradFn call can reuse t.grad immediately.
	gradCopy := append([]float32(nil), t.grad...)
	t.inflight = true
	go func() {
		update, err := t.agg.Aggregate(ctx, gradCopy)
		if err != nil {
			t.resultCh <- aggResult{err: err}
			return
		}
		t.resultCh <- aggResult{update: append([]float32(nil), update...)}
	}()

	t.iter++
	return loss, nil
}

// Flush waits for the in-flight aggregation and applies it. Call once
// after the final Step so the last gradient is not lost.
func (t *PipelinedTrainer) Flush() error {
	if !t.inflight {
		return nil
	}
	return t.applyPending()
}

func (t *PipelinedTrainer) applyPending() error {
	res := <-t.resultCh
	t.inflight = false
	if res.err != nil {
		return res.err
	}
	t.cfg.applyDense(t.weights, t.velocity, res.update)
	return nil
}
