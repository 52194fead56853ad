package quant

import (
	"context"
	"fmt"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/prng"
)

// SignSGDAggregator implements signSGD with majority vote (Bernstein et
// al., cited as [14] in the paper): workers exchange bit-packed gradient
// signs; the update is the sign of the per-coordinate vote, scaled to
// ±1/P so its magnitude is comparable to an averaged gradient step under
// the same learning rate.
type SignSGDAggregator struct {
	comm   *collective.Comm
	dim    int
	packed []byte // this rank's frame, reused
}

// NewSignSGDAggregator creates the aggregator.
func NewSignSGDAggregator(comm *collective.Comm, dim int) *SignSGDAggregator {
	return &SignSGDAggregator{comm: comm, dim: dim}
}

// Name implements core.Aggregator.
func (a *SignSGDAggregator) Name() string { return "signsgd" }

// Aggregate implements core.Aggregator. Once the signs are packed grad
// holds the vote, counted exactly in float32 (|vote| <= P), and then the
// update.
func (a *SignSGDAggregator) Aggregate(ctx context.Context, grad []float32) (core.Update, error) {
	if len(grad) != a.dim {
		return core.Update{}, fmt.Errorf("quant: signsgd aggregate: dim %d, want %d", len(grad), a.dim)
	}
	a.packed = PackSigns(a.packed, grad)
	blobs, err := a.comm.AllGather(ctx, a.packed)
	if err != nil {
		return core.Update{}, fmt.Errorf("quant: signsgd aggregate: %w", err)
	}
	clear(grad)
	for rank, blob := range blobs {
		if err := addSigns(grad, blob); err != nil {
			return core.Update{}, fmt.Errorf("quant: signsgd rank %d: %w", rank, err)
		}
	}
	inv := 1 / float32(a.comm.Size())
	for i, v := range grad {
		switch {
		case v > 0:
			grad[i] = inv
		case v < 0:
			grad[i] = -inv
		}
	}
	return core.Update{Values: grad}, nil
}

// TernGradAggregator implements TernGrad-style aggregation (cited as
// [35]): each worker ternarizes its gradient to {−s, 0, +s} with
// stochastic unbiased rounding, workers exchange (scale, levels), and
// the update is the average of the dequantized gradients.
type TernGradAggregator struct {
	comm  *collective.Comm
	dim   int
	rng   *prng.Source
	frame []byte // this rank's (scale, levels) frame, reused
}

// NewTernGradAggregator creates the aggregator. Each rank must use a
// DIFFERENT seed (stochastic rounding must be independent across
// workers) but the same seed across repeated runs for reproducibility.
func NewTernGradAggregator(comm *collective.Comm, dim int, seed uint64) *TernGradAggregator {
	return &TernGradAggregator{
		comm: comm,
		dim:  dim,
		rng:  prng.New(seed ^ uint64(comm.Rank())*0x9e3779b97f4a7c15),
	}
}

// Name implements core.Aggregator.
func (a *TernGradAggregator) Name() string { return "terngrad" }

// Aggregate implements core.Aggregator. Once grad is quantized it holds
// the sum of the dequantized gradients, and then their mean.
func (a *TernGradAggregator) Aggregate(ctx context.Context, grad []float32) (core.Update, error) {
	if len(grad) != a.dim {
		return core.Update{}, fmt.Errorf("quant: terngrad aggregate: dim %d, want %d", len(grad), a.dim)
	}
	a.frame = Ternary(a.frame, grad, a.rng)
	blobs, err := a.comm.AllGather(ctx, a.frame)
	if err != nil {
		return core.Update{}, fmt.Errorf("quant: terngrad aggregate: %w", err)
	}
	clear(grad)
	for rank, blob := range blobs {
		if err := addTernary(grad, blob); err != nil {
			return core.Update{}, fmt.Errorf("quant: terngrad rank %d: %w", rank, err)
		}
	}
	inv := 1 / float32(a.comm.Size())
	for i := range grad {
		grad[i] *= inv
	}
	return core.Update{Values: grad}, nil
}
