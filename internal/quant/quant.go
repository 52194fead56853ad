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
// The package wears two hats. The dense baseline aggregators in
// aggregator.go quantize whole gradients with PackSigns (signSGD) and
// Ternary (TernGrad). Stack (stack.go) is the sparse.Compressor — the
// transform stage of the compound pipeline (select → transform →
// encode) that carries the fp16, QSGD, ternary and sign value codecs,
// whose levels the wire format v3 encoder packs after gTop-k selection;
// see internal/sparse/codecv3.go and docs/ARCHITECTURE.md §Wire formats.
package quant

import (
	"fmt"

	"gtopkssgd/internal/prng"
)

// PackSigns bit-packs the signs of x (1 bit per element; zero counts as
// positive), the wire format that gives signSGD its 32x compression.
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

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
