package bench

import (
	"context"
	"testing"
	"time"

	"gtopkssgd/internal/algo"
	"gtopkssgd/internal/core"
)

// quorumConvSpec is the shared workload of the quorum convergence tests:
// small enough to run in seconds, large enough that a persistently
// refunded rank visibly matters if the conservation law were broken.
func quorumConvSpec() TrainSpec {
	return TrainSpec{
		Spec:  algo.Spec{Algo: "gtopk", ItersPerEpoch: 6, Density: 0.01, Seed: 42},
		Model: "mlp", Workers: 4, Batch: 8,
		Epochs: 2, LR: 0.05, Momentum: 0.9, GradClip: 1,
	}
}

// TestQuorumFullSyncTrainingBitIdentical pins the q=P degradation law at
// the training level: a gtopk run with Quorum=P (deadline guarding
// liveness only, nobody slow) must reproduce the flat-path loss curve
// bit for bit — every round reaches full participation and the quorum
// merge applies the exact binomial ⊕ schedule of the flat tree.
func TestQuorumFullSyncTrainingBitIdentical(t *testing.T) {
	flat, err := RunTraining(context.Background(), quorumConvSpec())
	if err != nil {
		t.Fatal(err)
	}
	spec := quorumConvSpec()
	spec.Quorum = core.QuorumConfig{Q: spec.Workers, Timeout: 5 * time.Second}
	qp, err := RunTraining(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(qp.EpochLoss) != len(flat.EpochLoss) {
		t.Fatalf("epoch counts diverged: %d vs %d", len(qp.EpochLoss), len(flat.EpochLoss))
	}
	for e := range flat.EpochLoss {
		if qp.EpochLoss[e] != flat.EpochLoss[e] {
			t.Fatalf("epoch %d: quorum q=P loss %v != flat %v — full-sync rounds must be bit-identical",
				e+1, qp.EpochLoss[e], flat.EpochLoss[e])
		}
	}
}

// TestQuorumDegradedConvergence trains with q = P-1 while one rank's
// outgoing frames are delayed far past the round deadline — the rank
// misses every round and its selections ride the residual refund. The
// final loss must land within tolerance of the full-sync run: bounded
// staleness costs convergence speed, not convergence.
func TestQuorumDegradedConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("deadline-paced rounds take real wall time")
	}
	flat, err := RunTraining(context.Background(), quorumConvSpec())
	if err != nil {
		t.Fatal(err)
	}
	spec := quorumConvSpec()
	spec.Quorum = core.QuorumConfig{Q: spec.Workers - 1, Timeout: 40 * time.Millisecond}
	spec.SlowRank = spec.Workers - 1
	spec.FaultDelay = 250 * time.Millisecond
	deg, err := RunTraining(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	flatFinal := flat.EpochLoss[len(flat.EpochLoss)-1]
	degFinal := deg.EpochLoss[len(deg.EpochLoss)-1]
	if degFinal >= deg.EpochLoss[0] {
		t.Fatalf("degraded run did not converge: loss %v -> %v", deg.EpochLoss[0], degFinal)
	}
	diff := degFinal - flatFinal
	if diff < 0 {
		diff = -diff
	}
	// A persistently missing rank removes a quarter of the gradient
	// signal per round; the refund keeps it in the residual, so the gap
	// to full sync stays a fraction of the loss scale, not a blow-up.
	if tol := 0.35 * flat.EpochLoss[0]; diff > tol {
		t.Fatalf("final loss %v drifted %.4f from full-sync %v (tolerance %.4f)",
			degFinal, diff, flatFinal, tol)
	}
}
