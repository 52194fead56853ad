package checkpoint_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"gtopkssgd/internal/checkpoint"
	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/transport"
)

// TestResumeBitExact is the integration contract of checkpointing:
// training N steps equals training N/2 steps, snapshotting (weights,
// velocity, per-rank residuals, iteration), restoring into fresh
// trainers, and training the remaining steps — bit for bit. A trainer
// without momentum snapshots an empty velocity and resumes from it.
func TestResumeBitExact(t *testing.T) {
	for _, momentum := range []float32{0.9, 0} {
		t.Run(fmt.Sprintf("momentum=%v", momentum), func(t *testing.T) {
			testResumeBitExact(t, core.TrainConfig{LR: 0.1, Momentum: momentum})
		})
	}
}

func testResumeBitExact(t *testing.T, cfg core.TrainConfig) {
	const (
		p     = 4
		dim   = 40
		total = 60
		half  = 30
		k     = 4
	)
	src := prng.New(5)
	target := make([]float32, dim)
	for i := range target {
		target[i] = float32(src.NormFloat64())
	}
	gradFn := func(rank int) core.GradFn {
		noise := prng.New(uint64(rank) + 100)
		offsets := make([]float32, dim)
		for i := range offsets {
			offsets[i] = float32(noise.NormFloat64()) * 0.01
		}
		return func(_ int, weights, grad []float32) float64 {
			var loss float64
			for i := range weights {
				d := weights[i] - target[i] + offsets[i]
				grad[i] = d
				loss += float64(d) * float64(d)
			}
			return loss
		}
	}

	// Uninterrupted reference run.
	reference := trainSegment(t, p, dim, k, cfg, gradFn, total, nil)

	// Interrupted run: first half...
	mid := trainSegment(t, p, dim, k, cfg, gradFn, half, nil)

	// ...snapshot every rank through the checkpoint codec...
	velocityDim := 0
	if cfg.Momentum > 0 {
		velocityDim = dim
	}
	states := make([]*checkpoint.State, p)
	for r := 0; r < p; r++ {
		s := &checkpoint.State{
			Iter:     uint64(half),
			Weights:  mid.weights[r],
			Velocity: mid.velocity[r],
			Residual: mid.residual[r],
			Meta:     map[string]string{"algo": "gtopk"},
		}
		// Round-trip through the binary format so the test covers the
		// codec, not just in-memory copying.
		roundTripped := roundTrip(t, s)
		if len(roundTripped.Velocity) != velocityDim {
			t.Fatalf("rank %d snapshot velocity has %d entries, want %d", r, len(roundTripped.Velocity), velocityDim)
		}
		states[r] = roundTripped
	}

	// ...and resume for the second half.
	resumed := trainSegment(t, p, dim, k, cfg, gradFn, total-half, states)

	for r := 0; r < p; r++ {
		for i := range reference.weights[r] {
			if resumed.weights[r][i] != reference.weights[r][i] {
				t.Fatalf("rank %d weight %d: resumed %v, reference %v",
					r, i, resumed.weights[r][i], reference.weights[r][i])
			}
		}
	}
}

type segmentResult struct {
	weights  [][]float32
	velocity [][]float32
	residual [][]float32
}

func trainSegment(t *testing.T, p, dim, k int, cfg core.TrainConfig,
	gradFn func(rank int) core.GradFn, steps int, restore []*checkpoint.State) *segmentResult {
	t.Helper()
	f, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	out := &segmentResult{
		weights:  make([][]float32, p),
		velocity: make([][]float32, p),
		residual: make([][]float32, p),
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm := collective.New(f.Conn(rank))
			agg, err := core.NewGTopKAggregator(comm, dim, k)
			if err != nil {
				errs[rank] = err
				return
			}
			weights := make([]float32, dim)
			tr, err := core.NewTrainer(cfg, agg, weights, gradFn(rank))
			if err != nil {
				errs[rank] = err
				return
			}
			if restore != nil {
				copy(weights, restore[rank].Weights)
				if err := tr.Restore(int(restore[rank].Iter), restore[rank].Velocity); err != nil {
					errs[rank] = err
					return
				}
				if err := agg.Sparsifier().RestoreResidual(restore[rank].Residual); err != nil {
					errs[rank] = err
					return
				}
			}
			for s := 0; s < steps; s++ {
				if _, err := tr.Step(context.Background()); err != nil {
					errs[rank] = err
					return
				}
			}
			out.weights[rank] = append([]float32(nil), tr.Weights()...)
			out.velocity[rank] = append([]float32(nil), tr.Velocity()...)
			out.residual[rank] = append([]float32(nil), agg.Sparsifier().Residual()...)
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return out
}

func roundTrip(t *testing.T, s *checkpoint.State) *checkpoint.State {
	t.Helper()
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}
