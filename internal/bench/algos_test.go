package bench

import (
	"context"
	"testing"

	"gtopkssgd/internal/algo"
	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/transport"
)

// TestSparseAlgorithmsCorrectMomentumAndFollowWarmup: every sparse
// algorithm a training run builds moves momentum into the aggregator (its
// trainer runs with none) and follows the warmup schedule — the update
// support has DensityToK entries per bucket at the warmup density, then
// at the target density. The dense baselines keep trainer momentum.
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
			spec := TrainSpec{Algo: name, Density: 0.01, WarmupDensities: []float64{0.25}, ItersPerEpoch: 1, Momentum: 0.9, Seed: 1}
			agg, cfg, err := newAggregator(spec, collective.New(fab.Conn(0)), dim, layers)
			if err != nil {
				t.Fatal(err)
			}
			if dense[name] {
				if cfg.Momentum != spec.Momentum {
					t.Fatalf("trainer momentum %v, want %v", cfg.Momentum, spec.Momentum)
				}
				return
			}
			if cfg.Momentum != 0 {
				t.Fatalf("trainer momentum %v: momentum was not moved into the aggregator", cfg.Momentum)
			}
			buckets := []int{0, dim}
			switch name {
			case "gtopk-layerwise":
				buckets = layers
			case "gtopk-bucketed":
				buckets = core.GroupBounds(layers, 4)
			}
			grad := make([]float32, dim)
			for i := range grad {
				grad[i] = float32(i + 1)
			}
			for _, density := range []float64{0.25, spec.Density} {
				upd, err := agg.Aggregate(context.Background(), grad)
				if err != nil {
					t.Fatal(err)
				}
				if upd.At == nil {
					t.Fatal("a sparse algorithm returned a dense update")
				}
				want := 0
				for b := 1; b < len(buckets); b++ {
					want += core.DensityToK(buckets[b]-buckets[b-1], density)
				}
				if got := len(upd.At); got != want {
					t.Fatalf("density %v: update support %d entries, want %d", density, got, want)
				}
			}
		})
	}
}
