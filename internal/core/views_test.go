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
	"gtopkssgd/internal/tensor"
	"gtopkssgd/internal/transport"
)

// TestSparseUpdateViewsMatchEveryAlgorithm holds the one momentum rule
// to what it replaced, step by step, for every algorithm algo.Build makes
// (a warmup whose support shrinks at step 10, clipping on every step) and
// for the bucketed pipeline streamed behind the backward pass. Two
// identical worlds train side by side, at momentum 0 and 0.9; the real
// one runs the Trainer at TrainConfig.Momentum. For a sparse algorithm
// the trainer lends its velocity to the aggregator's select, and the
// reference is the benchmark's entry point: SetMomentumCorrection on the
// aggregator and a trainer without momentum; updates, weights and
// residuals must agree after every step, bit for bit. For the dense,
// signSGD and TernGrad baselines the reference calls Aggregate itself
// and applies tensor.Clip, the momentum loop and tensor.AxpyInto over
// the whole buffer, and the velocity must agree too. Every sparse
// algorithm's update must be compact and every other one dense.
func TestSparseUpdateViewsMatchEveryAlgorithm(t *testing.T) {
	const p, dim, steps = 4, 600, 24
	layers := []int{0, 100, 250, 600}
	dense := map[string]bool{"dense": true, "signsgd": true, "terngrad": true}
	names := append(algo.Names(), "gtopk-bucketed/streamed")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, mu := range []float32{0, 0.9} {
				t.Run(fmt.Sprintf("mu=%v", mu), func(t *testing.T) {
					spec := algo.Spec{Algo: name, Density: 0.01, WarmupDensities: []float64{0.05}, ItersPerEpoch: 10, Seed: 3}
					streamed := name == "gtopk-bucketed/streamed"
					if streamed {
						spec.Algo = "gtopk-bucketed"
					}
					if name == "gtopk-hier" {
						spec.HierGroup = 2 // the default group of 4 is the whole world
					}
					want := tailWorld(t, spec, p, dim, steps, layers, mu, streamed, true)
					got := tailWorld(t, spec, p, dim, steps, layers, mu, streamed, false)
					shrank := false
					for s := 0; s < steps; s++ {
						if s > 0 && nnz(want.updates[0][s].Values) < nnz(want.updates[0][s-1].Values) {
							shrank = true
						}
						for r := 0; r < p; r++ {
							label := fmt.Sprintf("step %d rank %d", s, r)
							if compact := got.updates[r][s].At != nil; compact == dense[spec.Algo] {
								t.Fatalf("%s: compact update %v from %s", label, compact, spec.Algo)
							}
							sameBits(t, label+" update", core.DenseUpdate(want.updates[r][s], dim), core.DenseUpdate(got.updates[r][s], dim))
							sameBits(t, label+" weights", want.weights[r][s], got.weights[r][s])
							sameBits(t, label+" velocity", want.velocity[r][s], got.velocity[r][s])
							sameBits(t, label+" residual", want.residual[r][s], got.residual[r][s])
						}
					}
					if !dense[spec.Algo] && !shrank {
						t.Fatal("no step's support shrank: the warmup's end went untested")
					}
				})
			}
		})
	}
}

// tailRun is what one world of TestSparseUpdateViewsMatchEveryAlgorithm
// leaves behind per rank: the update of every step (copied before any
// clipping), and the weights, the trainer's dense-tail velocity and the
// residual (empty for the dense baselines) after it.
type tailRun struct {
	updates                     [][]core.Update
	weights, velocity, residual [][][]float32
}

// tailWorld trains spec on p ranks for steps iterations — the reference
// when ref is set, the real Trainer at momentum mu otherwise.
func tailWorld(t *testing.T, spec algo.Spec, p, dim, steps int, layers []int, mu float32, streamed, ref bool) tailRun {
	t.Helper()
	const lr, clip = 0.05, 0.02
	gradFn := func(rank int) core.GradFn {
		return func(iter int, weights, grad []float32) float64 {
			for i := range grad {
				grad[i] = weights[i] + float32((i*31+iter*7+rank*13)%97)/97 - 0.5
			}
			return 0
		}
	}
	fab, err := transport.NewInProcWire(p, spec.Codec().WireVersion())
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close() //nolint:errcheck // in-process close never fails
	run := tailRun{
		updates: make([][]core.Update, p), weights: make([][][]float32, p),
		velocity: make([][][]float32, p), residual: make([][][]float32, p),
	}
	keep := func(r int, u core.Update) {
		run.updates[r] = append(run.updates[r], core.Update{
			At:     append([]int32(nil), u.At...),
			Values: append([]float32(nil), u.Values...),
		})
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = func() error {
				agg, err := algo.Build(spec, collective.New(fab.Conn(r)), dim, layers)
				if err != nil {
					return err
				}
				sp, sparse := agg.(interface{ Sparsifier() *core.Sparsifier })
				after := func(w, v []float32) {
					run.weights[r] = append(run.weights[r], append([]float32(nil), w...))
					run.velocity[r] = append(run.velocity[r], append([]float32(nil), v...))
					if sparse {
						run.residual[r] = append(run.residual[r], append([]float32(nil), sp.Sparsifier().Residual()...))
					} else {
						run.residual[r] = append(run.residual[r], nil)
					}
				}
				w := make([]float32, dim)
				cfg := core.TrainConfig{LR: lr, GradClip: clip, Momentum: mu}
				if ref && !sparse {
					var v []float32 // the trainer holds no velocity at momentum 0
					if mu > 0 {
						v = make([]float32, dim)
					}
					grad := make([]float32, dim)
					for s := 0; s < steps; s++ {
						clear(grad)
						gradFn(r)(s, w, grad)
						u, err := agg.Aggregate(context.Background(), grad)
						if err != nil {
							return err
						}
						keep(r, u)
						g := core.DenseUpdate(u, dim)
						tensor.Clip(g, clip)
						if mu > 0 {
							for i := range v {
								v[i] = mu*v[i] + g[i]
							}
							g = v
						}
						tensor.AxpyInto(w, -lr, g)
						after(w, v)
					}
					return nil
				}
				if ref {
					// The benchmark's entry point: the aggregator corrects
					// momentum in a velocity of its own.
					agg.(interface{ SetMomentumCorrection(float32) }).SetMomentumCorrection(mu)
					cfg.Momentum = 0
				}
				rec := core.NewUpdateRecorder(agg, func(u core.Update) { keep(r, u) })
				tr, err := core.NewTrainer(cfg, rec, w, gradFn(r))
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
					if sparse {
						after(w, nil) // the lent velocity belongs to the select
					} else {
						after(w, tr.Velocity())
					}
				}
				if v := tr.Velocity(); sparse && !ref && mu > 0 && (len(v) != dim || tensor.L2Norm(v) == 0) {
					return fmt.Errorf("the lent velocity has %d entries of norm %v: the select did not correct momentum in it", len(v), tensor.L2Norm(v))
				}
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
	return run
}

func nnz(x []float32) (n int) {
	for _, v := range x {
		if v != 0 {
			n++
		}
	}
	return n
}

func sameBits(t *testing.T, label string, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d entries", label, len(want), len(got))
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s index %d: reference %x (%v), trainer %x (%v)", label, i,
				math.Float32bits(want[i]), want[i], math.Float32bits(got[i]), got[i])
		}
	}
}
