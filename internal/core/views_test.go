package core_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"gtopkssgd/internal/algo"
	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/tensor"
	"gtopkssgd/internal/transport"
)

// compactRecorder stands between a Trainer and a sparse aggregator and
// keeps every compact update it hands over, scattered into a fresh dense
// vector before the trainer clips the values in place.
type compactRecorder struct {
	core.SparseUpdater
	seen [][]float32
}

func (r *compactRecorder) keep(u *sparse.Vector, err error) (*sparse.Vector, error) {
	if err == nil {
		r.seen = append(r.seen, u.Dense())
	}
	return u, err
}

func (r *compactRecorder) AggregateSparse(ctx context.Context, grad []float32) (*sparse.Vector, error) {
	return r.keep(r.SparseUpdater.AggregateSparse(ctx, grad))
}

func (r *compactRecorder) Begin(ctx context.Context, grad []float32) error {
	return r.SparseUpdater.(core.BucketStreamer).Begin(ctx, grad)
}

func (r *compactRecorder) Ready(lo, hi int) { r.SparseUpdater.(core.BucketStreamer).Ready(lo, hi) }

func (r *compactRecorder) Finish() (*sparse.Vector, error) {
	return r.keep(r.SparseUpdater.(core.BucketStreamer).Finish())
}

// TestSparseUpdateViewsMatchEveryAlgorithm holds the two faces of a
// sparse step to each other, step by step, for every sparse algorithm
// algo.Build makes (momentum correction on, a warmup whose support
// shrinks at step 10, clipping on every step) and for the bucketed
// pipeline streamed behind the backward pass. Two identical worlds train
// side by side. The reference world calls the dense Aggregate and applies
// it the dense way, tensor.Clip then tensor.AxpyInto over the whole
// buffer. The other runs the real Trainer, which takes the compact
// update. After every step the dense update must equal the scatter of the
// compact one, and the weights must agree, bit for bit.
func TestSparseUpdateViewsMatchEveryAlgorithm(t *testing.T) {
	const (
		p, dim, steps = 4, 600, 24
		lr, clip      = 0.05, 0.02
	)
	layers := []int{0, 100, 250, 600}
	var names []string
	for _, name := range algo.Names() {
		switch name {
		case "dense", "signsgd", "terngrad":
		default:
			names = append(names, name)
		}
	}
	names = append(names, "gtopk-bucketed/streamed")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			spec := algo.Spec{Algo: name, Density: 0.01, WarmupDensities: []float64{0.05}, ItersPerEpoch: 10, Momentum: 0.9, Seed: 3}
			streamed := name == "gtopk-bucketed/streamed"
			if streamed {
				spec.Algo = "gtopk-bucketed"
			}
			if name == "gtopk-hier" {
				spec.HierGroup = 2 // the default group of 4 is the whole world
			}
			gradFn := func(rank int) core.GradFn {
				return func(iter int, weights, grad []float32) float64 {
					for i := range grad {
						grad[i] = weights[i] + float32((i*31+iter*7+rank*13)%97)/97 - 0.5
					}
					return 0
				}
			}
			// world runs one side: the dense reference when dense is set, the
			// real Trainer otherwise. It returns per rank the update of every
			// step (dense, or the compact one scattered) and the weights after it.
			world := func(dense bool) (updates, weights [][][]float32) {
				fab, err := transport.NewInProcWire(p, spec.Codec().WireVersion())
				if err != nil {
					t.Fatal(err)
				}
				defer fab.Close() //nolint:errcheck // in-process close never fails
				updates, weights = make([][][]float32, p), make([][][]float32, p)
				errs := make([]error, p)
				var wg sync.WaitGroup
				for r := 0; r < p; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[r] = func() error {
							agg, trainerMomentum, err := algo.Build(spec, collective.New(fab.Conn(r)), dim, layers)
							if err != nil {
								return err
							}
							if trainerMomentum != 0 {
								return fmt.Errorf("trainer momentum %v: the algorithm does not correct momentum", trainerMomentum)
							}
							w := make([]float32, dim)
							grad := make([]float32, dim)
							if dense {
								for s := 0; s < steps; s++ {
									clear(grad)
									gradFn(r)(s, w, grad)
									u, err := agg.Aggregate(context.Background(), grad)
									if err != nil {
										return err
									}
									updates[r] = append(updates[r], append([]float32(nil), u...))
									tensor.Clip(u, clip)
									tensor.AxpyInto(w, -lr, u)
									weights[r] = append(weights[r], append([]float32(nil), w...))
								}
								return nil
							}
							rec := &compactRecorder{SparseUpdater: agg.(core.SparseUpdater)}
							tr, err := core.NewTrainer(core.TrainConfig{LR: lr, GradClip: clip}, rec, w, gradFn(r))
							if err != nil {
								return err
							}
							if streamed {
								bounds := core.GroupBounds(layers, 4)
								if err := tr.SetStreamGradFn(func(iter int, w, grad []float32, ready func(lo, hi int)) float64 {
									loss := gradFn(r)(iter, w, grad)
									for b := len(bounds) - 2; b >= 0; b-- {
										ready(bounds[b], bounds[b+1])
									}
									return loss
								}); err != nil {
									return err
								}
							}
							for s := 0; s < steps; s++ {
								if _, err := tr.Step(context.Background()); err != nil {
									return err
								}
								weights[r] = append(weights[r], append([]float32(nil), w...))
							}
							updates[r] = rec.seen
							return nil
						}()
					}()
				}
				wg.Wait()
				for r, err := range errs {
					if err != nil {
						t.Fatalf("rank %d: %v", r, err)
					}
				}
				return updates, weights
			}
			wantUpd, wantW := world(true)
			gotUpd, gotW := world(false)
			shrank := false
			for s := 0; s < steps; s++ {
				nnz := func(u []float32) (n int) {
					for _, v := range u {
						if v != 0 {
							n++
						}
					}
					return n
				}
				if s > 0 && nnz(wantUpd[0][s]) < nnz(wantUpd[0][s-1]) {
					shrank = true
				}
				for r := 0; r < p; r++ {
					sameBits(t, fmt.Sprintf("step %d rank %d update", s, r), wantUpd[r][s], gotUpd[r][s])
					sameBits(t, fmt.Sprintf("step %d rank %d weights", s, r), wantW[r][s], gotW[r][s])
				}
			}
			if !shrank {
				t.Fatal("no step's support shrank: the re-zeroing of the previous support went untested")
			}
		})
	}
}

func sameBits(t *testing.T, label string, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d entries", label, len(want), len(got))
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s index %d: dense %x (%v), compact %x (%v)", label, i,
				math.Float32bits(want[i]), want[i], math.Float32bits(got[i]), got[i])
		}
	}
}
