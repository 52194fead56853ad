package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/transport"
)

// liveHeap is the heap still reachable after two collections: the second
// empties the sync.Pool victim caches, so pooled collective scratch (the
// union's dense accumulator, merge and frame buffers) is not counted as
// state a rank holds.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// footprintGrad is an allocation-free gradient with a spread of
// magnitudes, so every step selects a fresh support.
func footprintGrad(rank int) GradFn {
	return func(iter int, _, grad []float32) float64 {
		for i := range grad {
			grad[i] = float32((i*7+iter*13+rank*5)%29) - 14
		}
		return 0
	}
}

// TestSparseStepHoldsOnlyModelState pins what a sparse rank holds after
// it has trained: its weights, its gradient and its error-feedback
// residual — plus one velocity under momentum, whether the trainer lends
// it (TrainConfig.Momentum) or the aggregator's setter allocates it — and
// nothing else of the model's size. No dense update buffer and no second
// velocity exist. The heap is measured across all P in-process ranks and
// the bound applied per rank, with 1 MiB of slack for O(k) buffers and
// the runtime.
func TestSparseStepHoldsOnlyModelState(t *testing.T) {
	const dim = 1 << 20
	bounds := []int{0, dim / 8, dim / 2, dim}
	for _, tc := range []struct {
		name     string
		p        int
		streamed bool
		build    func(c *collective.Comm) (Aggregator, func(mu float32), error)
	}{
		{"flat", 2, false, func(c *collective.Comm) (Aggregator, func(float32), error) {
			a, err := NewGTopKAggregator(c, dim, 1000)
			return a, a.SetMomentumCorrection, err
		}},
		// P=4: at P=2 a group of 2 is the whole world, the flat tree.
		{"hier-G2", 4, false, func(c *collective.Comm) (Aggregator, func(float32), error) {
			a, err := NewHierarchicalAggregator(c, dim, 1000, 2)
			return a, a.SetMomentumCorrection, err
		}},
		{"topk-union", 2, false, func(c *collective.Comm) (Aggregator, func(float32), error) {
			a, err := NewTopKAggregator(c, dim, 1000)
			return a, a.SetMomentumCorrection, err
		}},
		{"bucketed-serial", 2, false, func(c *collective.Comm) (Aggregator, func(float32), error) {
			a, err := NewBucketedAggregator(c, bounds, 0.001)
			return a, a.SetMomentumCorrection, err
		}},
		{"bucketed-streamed", 2, true, func(c *collective.Comm) (Aggregator, func(float32), error) {
			a, err := NewBucketedAggregator(c, bounds, 0.001)
			return a, a.SetMomentumCorrection, err
		}},
	} {
		for _, row := range []struct {
			mu   float32
			lent bool // the trainer lends its velocity; no setter call
		}{{0, false}, {0.9, false}, {0.9, true}} {
			name := fmt.Sprintf("%s/mu=%v", tc.name, row.mu)
			if row.lent {
				name = fmt.Sprintf("%s/lent/mu=%v", tc.name, row.mu)
			}
			t.Run(name, func(t *testing.T) {
				buffers := uint64(3)
				if row.mu > 0 {
					buffers++
				}
				grown := trainedHeapGrowth(t, tc.p, func(c *collective.Comm) (*Trainer, error) {
					agg, correct, err := tc.build(c)
					if err != nil {
						return nil, err
					}
					cfg := TrainConfig{LR: 0.01, GradClip: 1}
					if row.lent {
						cfg.Momentum = row.mu
					} else {
						correct(row.mu)
					}
					tr, err := NewTrainer(cfg, agg, make([]float32, dim), footprintGrad(c.Rank()))
					if err != nil || !tc.streamed {
						return tr, err
					}
					return tr, tr.SetStreamGradFn(func(iter int, w, grad []float32, ready func(lo, hi int)) float64 {
						loss := footprintGrad(c.Rank())(iter, w, grad)
						for b := len(bounds) - 2; b >= 0; b-- {
							ready(bounds[b], bounds[b+1])
						}
						return loss
					})
				})
				perRank := grown / uint64(tc.p)
				if limit := buffers*4*dim + 1<<20; perRank > limit {
					t.Fatalf("a rank holds %.2f MiB after training; model state is %d × %.0f MiB (+1 MiB slack)",
						float64(perRank)/(1<<20), buffers, float64(4*dim)/(1<<20))
				}
				t.Logf("%.2f MiB per rank (%d buffers of %.0f MiB)", float64(perRank)/(1<<20), buffers, float64(4*dim)/(1<<20))
			})
		}
	}

	t.Run("dense-momentum-keeps-velocity", func(t *testing.T) {
		var velocity int
		trainedHeapGrowth(t, 1, func(c *collective.Comm) (*Trainer, error) {
			tr, err := NewTrainer(TrainConfig{LR: 0.01, Momentum: 0.9}, NewDenseAggregator(c, dim), make([]float32, dim), footprintGrad(0))
			if err == nil {
				velocity = len(tr.Velocity())
			}
			return tr, err
		})
		if velocity != dim {
			t.Fatalf("a momentum trainer over the dense aggregator holds a %d-entry velocity, want %d", velocity, dim)
		}
	})

}

// trainedHeapGrowth builds a trainer on each of p in-process ranks, runs
// three steps on all of them and returns the live heap they added, while
// every rank still holds everything it built.
func trainedHeapGrowth(t *testing.T, p int, build func(c *collective.Comm) (*Trainer, error)) uint64 {
	t.Helper()
	fab, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close() //nolint:errcheck // in-process close never fails
	comms := make([]*collective.Comm, p)
	for r := range comms {
		comms[r] = collective.New(fab.Conn(r))
	}
	base := liveHeap()
	var trained, measured sync.WaitGroup
	trained.Add(p)
	measured.Add(1)
	errs := make([]error, p)
	var done sync.WaitGroup
	for r := range comms {
		done.Add(1)
		go func() {
			defer done.Done()
			tr, err := build(comms[r])
			for s := 0; err == nil && s < 3; s++ {
				_, err = tr.Step(context.Background())
			}
			errs[r] = err
			trained.Done()
			measured.Wait()
			runtime.KeepAlive(tr)
		}()
	}
	trained.Wait()
	now := liveHeap()
	grown := now - min(base, now)
	measured.Done()
	done.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return grown
}
