package core

import (
	"context"
	"fmt"
	"time"

	"gtopkssgd/internal/tensor"
)

// GradFn computes one worker's mini-batch gradient for iteration iter at
// the given weights, writing it into grad (len(grad) == len(weights)),
// and returns the mini-batch training loss. It must write every entry of
// grad: the trainer does not zero the buffer between steps, and a dense
// aggregator leaves the last step's mean update in it. The weights slice
// must not be mutated.
type GradFn func(iter int, weights, grad []float32) float64

// TrainConfig holds the optimizer hyper-parameters shared by all S-SGD
// variants. The paper uses momentum SGD with momentum 0.9 for every model
// (Section IV-A).
type TrainConfig struct {
	LR float32 // learning rate η
	// Momentum is the momentum coefficient µ (0 disables) and the only
	// momentum setting: a sparse aggregator of this package corrects it
	// locally before selection (DGC), in the velocity the trainer lends
	// it; over a dense update the trainer runs it itself.
	Momentum float32
	GradClip float32 // per-element clip applied to the aggregated update (0 disables)
}

// Validate rejects non-sensical hyper-parameters.
func (c TrainConfig) Validate() error {
	if c.LR <= 0 {
		return fmt.Errorf("core: learning rate %v must be positive", c.LR)
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("core: momentum %v out of [0,1)", c.Momentum)
	}
	if c.GradClip < 0 {
		return fmt.Errorf("core: grad clip %v must be non-negative", c.GradClip)
	}
	return nil
}

// PhaseTimes carries one iteration's wall-clock phase durations to an
// observer installed with SetPhaseHook.
type PhaseTimes struct {
	Compute   time.Duration // gradient computation (forward + backward)
	Aggregate time.Duration // sparsification + communication
	Update    time.Duration // momentum + weight update
}

// Trainer drives one worker's S-SGD loop: compute local gradient →
// aggregate via the configured algorithm → apply the identical update on
// every replica. Because the aggregated update is bit-identical across
// ranks (all aggregators guarantee this), replicas never diverge and no
// parameter re-synchronisation is needed.
//
// Besides the weights a trainer holds the gradient — the one working
// buffer of a step, in which a dense aggregator also reduces — and,
// only under momentum, the one velocity buffer. It lends that buffer to
// a sparse aggregator, whose fused select corrects momentum in it, and
// applies the k (index, mean) pairs at their positions alone; Velocity
// and Restore read and write the same buffer, so checkpoints carry it.
type Trainer struct {
	cfg      TrainConfig
	agg      Aggregator
	gradFn   GradFn
	streamFn StreamGradFn
	weights  []float32
	velocity []float32 // nil unless cfg.Momentum > 0
	lent     bool      // the aggregator corrects momentum in velocity
	grad     []float32
	iter     int
	onPhases func(iter int, pt PhaseTimes)
}

// velocityBorrower is a sparse aggregator of this package: the round, or
// the bucketed pipeline, which hands each bucket its range.
type velocityBorrower interface {
	lendVelocity(mu float32, v []float32)
}

// NewTrainer assembles a trainer. The weights slice is owned by the
// trainer afterwards; every rank must pass identically initialised
// weights (same seed) or replicas diverge from step one.
func NewTrainer(cfg TrainConfig, agg Aggregator, weights []float32, gradFn GradFn) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if agg == nil || gradFn == nil {
		return nil, fmt.Errorf("core: trainer needs an aggregator and a gradient function")
	}
	t := &Trainer{
		cfg:     cfg,
		agg:     agg,
		gradFn:  gradFn,
		weights: weights,
		grad:    make([]float32, len(weights)),
	}
	if cfg.Momentum > 0 {
		t.velocity = make([]float32, len(weights))
		if b, ok := agg.(velocityBorrower); ok {
			b.lendVelocity(cfg.Momentum, t.velocity)
			t.lent = true
		}
	}
	return t, nil
}

// Weights exposes the current parameters (mutated by Step).
func (t *Trainer) Weights() []float32 { return t.weights }

// Iter returns the number of completed steps.
func (t *Trainer) Iter() int { return t.iter }

// SetPhaseHook installs an observer that receives each iteration's
// wall-clock phase durations (e.g. a trace.Recorder). Pass nil to remove.
func (t *Trainer) SetPhaseHook(fn func(iter int, pt PhaseTimes)) { t.onPhases = fn }

// Velocity exposes the momentum buffer (for checkpointing): dim entries
// under momentum — lent or not — and empty without it.
func (t *Trainer) Velocity() []float32 { return t.velocity }

// Restore resets the iteration counter and momentum buffer from a
// checkpoint. The weights are restored by the caller (they alias the
// model's parameter buffer). With momentum the velocity must have the
// model's dimension. Without it the trainer has no velocity to restore:
// it accepts an empty one or a dim-length all-zero one (what such a
// trainer saved while it still allocated the buffer) and rejects a
// non-zero one, which it could only drop — a wrong resume.
func (t *Trainer) Restore(iter int, velocity []float32) error {
	if iter < 0 {
		return fmt.Errorf("core: restore with negative iteration %d", iter)
	}
	if t.cfg.Momentum == 0 && len(velocity) == len(t.weights) && tensor.L2Norm(velocity) == 0 {
		velocity = nil // zeros: all a trainer without momentum ever saved
	}
	if len(velocity) != len(t.velocity) {
		return fmt.Errorf("core: restore velocity dim %d, want %d (a trainer without momentum takes none, or zeros)", len(velocity), len(t.velocity))
	}
	t.iter = iter
	copy(t.velocity, velocity)
	return nil
}

// SetStreamGradFn installs a streaming gradient function that announces
// per-layer gradient readiness, enabling communication/computation
// overlap when the aggregator supports bucketed streaming (it must
// implement BucketStreamer, e.g. BucketedAggregator). The streaming
// function replaces the plain GradFn for every subsequent Step; pass nil
// to fall back. In streamed steps, PhaseTimes.Compute covers the backward
// pass including any communication hidden behind it, and
// PhaseTimes.Aggregate is only the EXPOSED communication the pipeline
// could not hide.
func (t *Trainer) SetStreamGradFn(fn StreamGradFn) error {
	if fn != nil {
		if _, ok := t.agg.(BucketStreamer); !ok {
			return fmt.Errorf("core: aggregator %s does not support bucket streaming", t.agg.Name())
		}
	}
	t.streamFn = fn
	return nil
}

// Step runs one S-SGD iteration and returns the local mini-batch loss.
// With a streaming gradient function installed (SetStreamGradFn), the
// aggregation pipeline opens before the gradient computation starts,
// buckets launch from inside the backward pass via the ready callback,
// and Finish only waits out communication the overlap could not hide.
func (t *Trainer) Step(ctx context.Context) (float64, error) {
	var bs BucketStreamer
	if t.streamFn != nil {
		bs, _ = t.agg.(BucketStreamer)
	}
	var (
		pt   PhaseTimes
		loss float64
		u    Update
		err  error
	)
	start := time.Now()
	if bs != nil {
		if err := bs.Begin(ctx, t.grad); err != nil {
			return 0, fmt.Errorf("core: step %d: %w", t.iter, err)
		}
		loss = t.streamFn(t.iter, t.weights, t.grad, bs.Ready)
	} else {
		loss = t.gradFn(t.iter, t.weights, t.grad)
	}
	pt.Compute = time.Since(start)

	start = time.Now()
	if bs != nil {
		u, err = bs.Finish()
	} else {
		u, err = t.agg.Aggregate(ctx, t.grad)
	}
	if err != nil {
		return 0, fmt.Errorf("core: step %d: %w", t.iter, err)
	}
	pt.Aggregate = time.Since(start)

	// The optimizer tail. Without momentum, or with it corrected in the
	// lent velocity, the update is clipped and applied where it has
	// values: every other weight would receive w + -lr·0, which is w.
	start = time.Now()
	switch {
	case t.velocity == nil || t.lent:
		tensor.ClipAxpyAt(t.weights, -t.cfg.LR, u.Values, u.At, t.cfg.GradClip)
	case u.At != nil:
		return 0, fmt.Errorf("core: step %d: %s returned a compact update, but trainer momentum runs over dense ones only: build the trainer over the sparse aggregator itself, which corrects the momentum", t.iter, t.agg.Name())
	default:
		t.momentumStep(u.Values)
	}
	pt.Update = time.Since(start)
	if t.onPhases != nil {
		t.onPhases(t.iter, pt)
	}
	t.iter++
	return loss, nil
}

// momentumStep is the tail over a dense update g under momentum, one
// pass: each g[i] clipped, then v ← µ·v + g and w ← w − lr·v. It gives
// the bits of tensor.Clip, the momentum loop and tensor.AxpyInto run
// one after another, and leaves g as it was.
func (t *Trainer) momentumStep(g []float32) {
	alpha, mu, limit := -t.cfg.LR, t.cfg.Momentum, t.cfg.GradClip
	v, w := t.velocity[:len(g)], t.weights[:len(g)]
	for i, x := range g {
		vi := float32(mu*v[i]) + tensor.Clamp(x, limit) // rounded apart: no fused multiply-add
		v[i] = vi
		w[i] += float32(alpha * vi)
	}
}
