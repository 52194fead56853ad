// Package quant implements the gradient-quantization baselines the paper
// positions gTop-k against in its related-work section (Section VI):
// signSGD (Bernstein et al.), TernGrad-style ternary quantization (Wen et
// al.), and stochastic uniform quantization in the QSGD family (Alistarh
// et al.) — see PAPERS.md for the retrieved related work. It also
// provides the combined compressor the paper attributes to Deep Gradient
// Compression — top-k sparsification with quantized values — which
// reaches compression ratios in the hundreds.
//
// Quantization caps compression at 32× (1 bit per 32-bit gradient);
// sparsification has no such cap, which is the paper's argument for
// pursuing top-k methods on low-bandwidth networks. The ablation
// experiments quantify exactly that trade-off.
//
// The package wears two hats. The standalone quantizers here (Uniform,
// Ternary, Sign and friends) back the dense baseline aggregators in
// aggregator.go. Stack (stack.go) packages the same arithmetic as the
// sparse.Compressor interface — the transform stage of the compound
// pipeline (select → transform → encode), whose levels the wire format
// v3 encoder packs after gTop-k selection; see
// internal/sparse/codecv3.go and docs/ARCHITECTURE.md §Wire formats.
package quant

import (
	"fmt"
	"math"

	"gtopkssgd/internal/f16"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
)

// Float16 quantizes x through IEEE 754 binary16 and back — the value a
// receiver reconstructs from a half-precision wire payload
// (round-to-nearest-even; relative error ≤ 2^-11 in the half normal
// range, overflow to ±Inf beyond ±65504). It is the same conversion
// (internal/f16) the v3 sparse wire codec's fp16 value codec uses for
// its bytes, exposed here as the half-precision member of this package's
// quantizer family.
func Float16(x float32) float32 { return f16.Round(x) }

// RoundTripF16 quantizes every element of xs in place through binary16.
// Idempotent, like the scalar conversion it applies. (One shared loop —
// f16.RoundSlice — backs this and the Stack's fp16 transform.)
func RoundTripF16(xs []float32) { f16.RoundSlice(xs) }

// QuantizeSparseF16 compresses the VALUES of a sparse top-k vector to
// binary16 — the half-precision sibling of QuantizeSparse's 8-bit
// levels. Indices stay exact (they must; a wrong index corrupts an
// unrelated parameter). Returns the quantized copy and the bytes the
// v3-fp16 wire codec occupies for it on the wire, versus 8 bytes per
// entry uncompressed.
func QuantizeSparseF16(v *sparse.Vector) (*sparse.Vector, int) {
	out := &sparse.Vector{
		Dim:     v.Dim,
		Indices: append([]int32(nil), v.Indices...),
		Values:  append([]float32(nil), v.Values...),
	}
	RoundTripF16(out.Values)
	return out, sparse.EncodedSizeCodec(sparse.CodecV3F16, v.Dim, v.Indices)
}

// Sign compresses x to its element-wise sign. The returned slice holds
// +1/−1 as float32 (the scale is carried separately by callers that need
// it; plain signSGD uses the learning rate as the only scale).
func Sign(x []float32) []float32 {
	out := make([]float32, len(x))
	for i, v := range x {
		if v >= 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// PackSigns bit-packs a sign vector (1 bit per element), the wire format
// that gives signSGD its 32x compression.
func PackSigns(x []float32) []byte {
	out := make([]byte, (len(x)+7)/8)
	for i, v := range x {
		if v >= 0 {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// UnpackSigns reverses PackSigns for n elements.
func UnpackSigns(buf []byte, n int) ([]float32, error) {
	if len(buf) != (n+7)/8 {
		return nil, fmt.Errorf("quant: %d bytes for %d signs", len(buf), n)
	}
	out := make([]float32, n)
	for i := range out {
		if buf[i/8]&(1<<(i%8)) != 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out, nil
}

// Ternary quantizes x TernGrad-style: each element becomes
// s·sign(x_i)·b_i where s = max|x| and b_i is a Bernoulli variable with
// probability |x_i|/s — an unbiased estimator. The rng must be shared
// state per worker (deterministic experiments) but NOT shared across
// workers.
func Ternary(x []float32, rng *prng.Source) (scale float32, levels []int8) {
	levels = make([]int8, len(x))
	for _, v := range x {
		if a := abs32(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		return 0, levels
	}
	for i, v := range x {
		p := abs32(v) / scale
		if rng.Float32() < p {
			if v >= 0 {
				levels[i] = 1
			} else {
				levels[i] = -1
			}
		}
	}
	return scale, levels
}

// Dequantize expands ternary levels back to floats.
func Dequantize(scale float32, levels []int8) []float32 {
	out := make([]float32, len(levels))
	for i, l := range levels {
		out[i] = scale * float32(l)
	}
	return out
}

// Uniform quantizes x to 2^bits uniform levels per the QSGD scheme with
// stochastic rounding: q_i = s·sign(x_i)·ξ(|x_i|/s) where ξ rounds to a
// neighbouring level with probability proportional to proximity, keeping
// the estimator unbiased.
func Uniform(x []float32, bits int, rng *prng.Source) (scale float32, levels []int16, err error) {
	if bits < 1 || bits > 15 {
		return 0, nil, fmt.Errorf("quant: bits=%d out of [1,15]", bits)
	}
	for _, v := range x {
		if a := abs32(v); a > scale {
			scale = a
		}
	}
	levels = make([]int16, len(x))
	if scale == 0 {
		return 0, levels, nil
	}
	steps := float32(int(1)<<bits - 1)
	for i, v := range x {
		t := abs32(v) / scale * steps
		lo := float32(math.Floor(float64(t)))
		level := lo
		if rng.Float32() < t-lo {
			level = lo + 1
		}
		if v < 0 {
			level = -level
		}
		levels[i] = int16(level)
	}
	return scale, levels, nil
}

// DequantizeUniform expands uniform levels back to floats.
func DequantizeUniform(scale float32, levels []int16, bits int) []float32 {
	steps := float32(int(1)<<bits - 1)
	out := make([]float32, len(levels))
	if steps == 0 || scale == 0 {
		return out
	}
	for i, l := range levels {
		out[i] = scale * float32(l) / steps
	}
	return out
}

// QuantizeSparse applies 8-bit uniform quantization to the VALUES of a
// sparse top-k vector — the DGC-style combined compressor. Indices stay
// exact (they must; a wrong index corrupts an unrelated parameter).
// Returns the quantized copy and the bytes it would occupy on the wire
// (4-byte index + 1-byte level per entry + scale), versus 8 bytes per
// entry uncompressed.
func QuantizeSparse(v *sparse.Vector, rng *prng.Source) (*sparse.Vector, int, error) {
	scale, levels, err := Uniform(v.Values, 8, rng)
	if err != nil {
		return nil, 0, err
	}
	out := &sparse.Vector{
		Dim:     v.Dim,
		Indices: append([]int32(nil), v.Indices...),
		Values:  DequantizeUniform(scale, levels, 8),
	}
	wire := 4 + v.NNZ()*(4+1) // scale + per-entry index+level
	return out, wire, nil
}

// CompressionRatio reports the dense-gradient-to-wire compression ratio
// for m parameters occupying wireBytes on the wire.
func CompressionRatio(m, wireBytes int) float64 {
	if wireBytes == 0 {
		return 0
	}
	return float64(4*m) / float64(wireBytes)
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
