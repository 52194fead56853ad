package quant

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

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
	comm *collective.Comm
	dim  int
	buf  []float32
}

// NewSignSGDAggregator creates the aggregator.
func NewSignSGDAggregator(comm *collective.Comm, dim int) *SignSGDAggregator {
	return &SignSGDAggregator{comm: comm, dim: dim, buf: make([]float32, dim)}
}

// Name implements core.Aggregator.
func (a *SignSGDAggregator) Name() string { return "signsgd" }

// Aggregate implements core.Aggregator.
func (a *SignSGDAggregator) Aggregate(ctx context.Context, grad []float32) (core.Update, error) {
	if len(grad) != a.dim {
		return core.Update{}, fmt.Errorf("quant: signsgd aggregate: dim %d, want %d", len(grad), a.dim)
	}
	packed := PackSigns(grad)
	blobs, err := a.comm.AllGather(ctx, packed)
	if err != nil {
		return core.Update{}, fmt.Errorf("quant: signsgd aggregate: %w", err)
	}
	votes := make([]int, a.dim)
	for rank, blob := range blobs {
		signs, err := UnpackSigns(blob, a.dim)
		if err != nil {
			return core.Update{}, fmt.Errorf("quant: signsgd rank %d: %w", rank, err)
		}
		for i, s := range signs {
			if s > 0 {
				votes[i]++
			} else {
				votes[i]--
			}
		}
	}
	inv := 1 / float32(a.comm.Size())
	for i, v := range votes {
		switch {
		case v > 0:
			a.buf[i] = inv
		case v < 0:
			a.buf[i] = -inv
		default:
			a.buf[i] = 0
		}
	}
	return core.Update{Values: a.buf}, nil
}

// TernGradAggregator implements TernGrad-style aggregation (cited as
// [35]): each worker ternarizes its gradient to {−s, 0, +s} with
// stochastic unbiased rounding, workers exchange (scale, levels), and
// the update is the average of the dequantized gradients.
type TernGradAggregator struct {
	comm *collective.Comm
	dim  int
	rng  *prng.Source
	buf  []float32
}

// NewTernGradAggregator creates the aggregator. Each rank must use a
// DIFFERENT seed (stochastic rounding must be independent across
// workers) but the same seed across repeated runs for reproducibility.
func NewTernGradAggregator(comm *collective.Comm, dim int, seed uint64) *TernGradAggregator {
	return &TernGradAggregator{
		comm: comm,
		dim:  dim,
		rng:  prng.New(seed ^ uint64(comm.Rank())*0x9e3779b97f4a7c15),
		buf:  make([]float32, dim),
	}
}

// Name implements core.Aggregator.
func (a *TernGradAggregator) Name() string { return "terngrad" }

// Aggregate implements core.Aggregator.
func (a *TernGradAggregator) Aggregate(ctx context.Context, grad []float32) (core.Update, error) {
	if len(grad) != a.dim {
		return core.Update{}, fmt.Errorf("quant: terngrad aggregate: dim %d, want %d", len(grad), a.dim)
	}
	scale, levels := Ternary(grad, a.rng)
	payload := encodeTernary(scale, levels)
	blobs, err := a.comm.AllGather(ctx, payload)
	if err != nil {
		return core.Update{}, fmt.Errorf("quant: terngrad aggregate: %w", err)
	}
	for i := range a.buf {
		a.buf[i] = 0
	}
	for rank, blob := range blobs {
		s, lv, err := decodeTernary(blob, a.dim)
		if err != nil {
			return core.Update{}, fmt.Errorf("quant: terngrad rank %d: %w", rank, err)
		}
		for i, l := range lv {
			a.buf[i] += float32(s * float32(l)) // rounded apart: no fused multiply-add
		}
	}
	inv := 1 / float32(a.comm.Size())
	for i := range a.buf {
		a.buf[i] *= inv
	}
	return core.Update{Values: a.buf}, nil
}

// encodeTernary packs (scale, int8 levels) for the wire.
func encodeTernary(scale float32, levels []int8) []byte {
	buf := make([]byte, 4+len(levels))
	putF32(buf, scale)
	for i, l := range levels {
		buf[4+i] = byte(l)
	}
	return buf
}

func decodeTernary(buf []byte, n int) (float32, []int8, error) {
	if len(buf) != 4+n {
		return 0, nil, fmt.Errorf("quant: ternary payload %d bytes for n=%d", len(buf), n)
	}
	scale := getF32(buf)
	levels := make([]int8, n)
	for i := range levels {
		levels[i] = int8(buf[4+i])
	}
	return scale, levels, nil
}

func putF32(buf []byte, v float32) {
	binary.LittleEndian.PutUint32(buf, math.Float32bits(v))
}

func getF32(buf []byte) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(buf))
}
