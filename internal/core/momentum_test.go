package core

import (
	"context"
	"testing"

	"gtopkssgd/internal/collective"
)

// TestMomentumCorrectionStabilisesSparseTraining: a sparse aggregator
// under trainer momentum corrects it locally (DGC), before selection, in
// the velocity the trainer lends it, and the run converges — global
// momentum on the spiky sparse updates, which amplifies the
// residual-accumulated coordinates, is no longer reachable.
func TestMomentumCorrectionStabilisesSparseTraining(t *testing.T) {
	// LR chosen so the corrected run is stable: with k=3/64 a coordinate
	// waits ~21 steps and momentum contributes ~10x, so lr must stay
	// well under 2/(21*10) ≈ 0.01.
	const dim, p, steps, k = 64, 4, 600, 3
	target := makeTarget(dim)
	results, err := RunCluster(context.Background(), ClusterConfig{Workers: p, Steps: steps},
		func(rank int, comm *collective.Comm) (*Trainer, error) {
			agg, err := NewGTopKAggregator(comm, dim, k)
			if err != nil {
				return nil, err
			}
			return NewTrainer(TrainConfig{LR: 0.004, Momentum: 0.9}, agg, make([]float32, dim), quadGrad(target, uint64(rank)))
		})
	if err != nil {
		t.Fatal(err)
	}
	// Mean of the last 20 losses (robust to single-step spikes).
	var corrected float64
	for _, l := range results[0].Losses[steps-20:] {
		corrected += l / 20
	}
	if first := quadFirstLoss(t, target); corrected > first/3 {
		t.Fatalf("corrected run failed to converge: %v (initial %v)", corrected, first)
	}
}

func quadFirstLoss(t *testing.T, target []float32) float64 {
	t.Helper()
	grad := make([]float32, len(target))
	return quadGrad(target, 0)(0, make([]float32, len(target)), grad)
}

func TestMomentumCorrectionReplicasConsistent(t *testing.T) {
	const dim, p, steps = 32, 4, 50
	target := makeTarget(dim)
	results, err := RunCluster(context.Background(), ClusterConfig{Workers: p, Steps: steps},
		func(rank int, comm *collective.Comm) (*Trainer, error) {
			agg, err := NewTopKAggregator(comm, dim, 4)
			if err != nil {
				return nil, err
			}
			agg.SetMomentumCorrection(0.9)
			return NewTrainer(TrainConfig{LR: 0.05}, agg, make([]float32, dim),
				quadGrad(target, uint64(rank)))
		})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < p; r++ {
		for i := range results[0].FinalWeights {
			if results[r].FinalWeights[i] != results[0].FinalWeights[i] {
				t.Fatalf("replica %d diverged at %d", r, i)
			}
		}
	}
}
