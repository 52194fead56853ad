package bench

import (
	"context"
	"testing"

	"gtopkssgd/internal/algo"
	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/transport"
)

// TestSparseAlgorithmsCorrectMomentumAndFollowWarmup: every algorithm a
// training run builds trains at the spec's momentum, and a sparse one
// takes it into its select — the trainer's velocity is what the select
// accumulates into the residual — and follows the warmup schedule: the
// weights move at DensityToK entries per bucket at the warmup density,
// then at the target density.
func TestSparseAlgorithmsCorrectMomentumAndFollowWarmup(t *testing.T) {
	const dim = 400
	layers := []int{0, 100, 250, 400}
	dense := map[string]bool{"dense": true, "signsgd": true, "terngrad": true}
	for _, name := range algo.Names() {
		t.Run(name, func(t *testing.T) {
			fab, err := transport.NewInProc(1)
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Close() //nolint:errcheck // in-process close never fails
			spec := TrainSpec{Algo: name, Density: 0.01, WarmupDensities: []float64{0.25}, ItersPerEpoch: 1, LR: 0.01, Momentum: 0.9, Seed: 1}
			agg, cfg, err := newAggregator(spec, collective.New(fab.Conn(0)), dim, layers)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Momentum != spec.Momentum {
				t.Fatalf("trainer momentum %v, want %v", cfg.Momentum, spec.Momentum)
			}
			grad := make([]float32, dim)
			for i := range grad {
				grad[i] = float32(i + 1)
			}
			w := make([]float32, dim)
			tr, err := core.NewTrainer(cfg, agg, w, func(_ int, _, g []float32) float64 { copy(g, grad); return 0 })
			if err != nil {
				t.Fatal(err)
			}
			if dense[name] {
				return
			}
			buckets := []int{0, dim}
			switch name {
			case "gtopk-layerwise":
				buckets = layers
			case "gtopk-bucketed":
				buckets = core.GroupBounds(layers, 4)
			}
			prev := make([]float32, dim)
			for _, density := range []float64{0.25, spec.Density} {
				copy(prev, w)
				if _, err := tr.Step(context.Background()); err != nil {
					t.Fatal(err)
				}
				moved := 0
				for i := range w {
					if w[i] != prev[i] {
						moved++
					}
				}
				want := 0
				for b := 1; b < len(buckets); b++ {
					want += core.DensityToK(buckets[b]-buckets[b-1], density)
				}
				if moved != want {
					t.Fatalf("density %v: %d weights moved, want %d", density, moved, want)
				}
			}
			// Two steps of the same gradient: the velocity is 0.9·g + g, and
			// where no step selected the residual holds g + that velocity.
			v, res := tr.Velocity(), agg.(interface{ Sparsifier() *core.Sparsifier }).Sparsifier().Residual()
			checked := 0
			for i := range v {
				if v[i] <= grad[i] {
					t.Fatalf("velocity[%d] = %v after two steps of gradient %v: the select did not accumulate momentum in it", i, v[i], grad[i])
				}
				if w[i] == 0 {
					checked++
					if res[i] != grad[i]+v[i] {
						t.Fatalf("residual[%d] = %v, want gradient %v + velocity %v", i, res[i], grad[i], v[i])
					}
				}
			}
			if checked == 0 {
				t.Fatal("every coordinate was selected: the residual went unchecked")
			}
		})
	}
}
