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

// TestSparseUpdateViewsMatchEveryAlgorithm holds the trainer's one tail
// to the dense optimizer step, step by step, for every algorithm
// algo.Build makes (momentum correction on in the sparse ones, a warmup
// whose support shrinks at step 10, clipping on every step) and for the
// bucketed pipeline streamed behind the backward pass, each at trainer
// momentum 0 and 0.9. Two identical worlds train side by side. The real
// one runs the Trainer. The reference calls Aggregate itself, views the
// update densely — a compact one scattered by MeanInto at p = 1, a dense
// one as it is — and applies tensor.Clip, the momentum loop and
// tensor.AxpyInto over the whole buffer. After every step the updates,
// the weights and the velocity must agree, bit for bit; every sparse
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
					spec := algo.Spec{Algo: name, Density: 0.01, WarmupDensities: []float64{0.05}, ItersPerEpoch: 10, Momentum: 0.9, Seed: 3}
					streamed := name == "gtopk-bucketed/streamed"
					if streamed {
						spec.Algo = "gtopk-bucketed"
					}
					if name == "gtopk-hier" {
						spec.HierGroup = 2 // the default group of 4 is the whole world
					}
					wantUpd, wantW, wantV := tailWorld(t, spec, p, dim, steps, layers, mu, streamed, true)
					gotUpd, gotW, gotV := tailWorld(t, spec, p, dim, steps, layers, mu, streamed, false)
					shrank := false
					for s := 0; s < steps; s++ {
						if s > 0 && nnz(wantUpd[0][s].Values) < nnz(wantUpd[0][s-1].Values) {
							shrank = true
						}
						for r := 0; r < p; r++ {
							label := fmt.Sprintf("step %d rank %d", s, r)
							if compact := gotUpd[r][s].At != nil; compact == dense[spec.Algo] {
								t.Fatalf("%s: compact update %v from %s", label, compact, spec.Algo)
							}
							sameBits(t, label+" update", core.DenseUpdate(wantUpd[r][s], dim), core.DenseUpdate(gotUpd[r][s], dim))
							sameBits(t, label+" weights", wantW[r][s], gotW[r][s])
							sameBits(t, label+" velocity", wantV[r][s], gotV[r][s])
						}
					}
					if !shrank && !dense[spec.Algo] {
						t.Fatal("no step's support shrank: the warmup's end went untested")
					}
				})
			}
		})
	}
}

// tailWorld trains spec on p ranks for steps iterations — the reference
// dense tail when ref is set, the real Trainer otherwise — and returns
// per rank the update of every step (copied before any clipping) and the
// weights and velocity after it.
func tailWorld(t *testing.T, spec algo.Spec, p, dim, steps int, layers []int, mu float32, streamed, ref bool) (updates [][]core.Update, weights, velocity [][][]float32) {
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
	updates, weights, velocity = make([][]core.Update, p), make([][][]float32, p), make([][][]float32, p)
	keep := func(r int, u core.Update) {
		updates[r] = append(updates[r], core.Update{
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
				agg, _, err := algo.Build(spec, collective.New(fab.Conn(r)), dim, layers)
				if err != nil {
					return err
				}
				w := make([]float32, dim)
				if ref {
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
						weights[r] = append(weights[r], append([]float32(nil), w...))
						velocity[r] = append(velocity[r], append([]float32(nil), v...))
					}
					return nil
				}
				rec := &core.UpdateRecorder{Aggregator: agg, Keep: func(u core.Update) { keep(r, u) }}
				tr, err := core.NewTrainer(core.TrainConfig{LR: lr, GradClip: clip, Momentum: mu}, rec, w, gradFn(r))
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
					velocity[r] = append(velocity[r], append([]float32(nil), tr.Velocity()...))
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
	return updates, weights, velocity
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
