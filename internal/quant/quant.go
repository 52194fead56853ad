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
// encode) that carries the QSGD, ternary and sign value codecs,
// whose levels the wire format v3 encoder packs after gTop-k selection;
// see internal/sparse/codecv3.go and docs/ARCHITECTURE.md §Wire formats.
package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"gtopkssgd/internal/prng"
)

// PackSigns bit-packs the signs of x into dst, grown to (len(x)+7)/8
// bytes, and returns it (1 bit per element; zero counts as positive):
// the wire format that gives signSGD its 32x compression.
func PackSigns(dst []byte, x []float32) []byte {
	dst = slices.Grow(dst[:0], (len(x)+7)/8)[:(len(x)+7)/8]
	clear(dst)
	for i, v := range x {
		if v >= 0 {
			dst[i/8] |= 1 << (i % 8)
		}
	}
	return dst
}

// addSigns adds the ±1 signs a PackSigns frame holds to acc, one per
// entry; the frame must be exactly as long as len(acc) signs pack to.
func addSigns(acc []float32, frame []byte) error {
	if len(frame) != (len(acc)+7)/8 {
		return fmt.Errorf("quant: %d bytes for %d signs", len(frame), len(acc))
	}
	for i := range acc {
		if frame[i/8]&(1<<(i%8)) != 0 {
			acc[i]++
		} else {
			acc[i]--
		}
	}
	return nil
}

// Ternary quantizes x TernGrad-style into a frame written over dst and
// returned: the scale s = max|x| as a little-endian float32, then one
// level per element, sign(x_i)·b_i with b_i a Bernoulli variable of
// probability |x_i|/s, so s·level is an unbiased estimator of x_i. Each
// level is a 2-bit code, four to a byte from the low bits up: 0 for 0,
// 1 for +1, 2 for −1; the padding bits are 0. The rng must be shared
// state per worker (deterministic experiments) but NOT shared across
// workers.
func Ternary(dst []byte, x []float32, rng *prng.Source) []byte {
	dst = slices.Grow(dst[:0], 4+(len(x)+3)/4)[:4+(len(x)+3)/4]
	var scale float32
	for _, v := range x {
		if a := abs32(v); a > scale {
			scale = a
		}
	}
	putF32(dst, scale)
	levels := dst[4:]
	clear(levels)
	if scale == 0 {
		return dst
	}
	for i, v := range x {
		if rng.Float32() < abs32(v)/scale {
			code := byte(2)
			if v >= 0 {
				code = 1
			}
			levels[i/4] |= code << (2 * (i % 4))
		}
	}
	return dst
}

// addTernary adds the dequantized values s·level of a Ternary frame to
// acc. The frame must hold exactly len(acc) levels; a code 3 or a set
// padding bit is an error, found after acc was written.
func addTernary(acc []float32, frame []byte) error {
	if len(frame) != 4+(len(acc)+3)/4 {
		return fmt.Errorf("quant: ternary frame %d bytes for n=%d", len(frame), len(acc))
	}
	s, levels := getF32(frame), frame[4:]
	var bad byte
	for i := range acc {
		code := levels[i/4] >> (2 * (i % 4)) & 3
		bad |= code & (code >> 1)
		acc[i] += float32(s * float32(int8(code&1)-int8(code>>1))) // rounded apart: no fused multiply-add
	}
	if tail := len(acc) % 4; bad != 0 || (tail != 0 && levels[len(levels)-1]>>(2*tail) != 0) {
		return fmt.Errorf("quant: ternary frame holds a level code 3 or a set padding bit")
	}
	return nil
}

// abs32 is mask-abs: clearing the sign bit, branch-free, is |v| for
// every float32, −0 and NaN included (internal/sparse's abs32).
func abs32(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
}

func putF32(buf []byte, v float32) {
	binary.LittleEndian.PutUint32(buf, math.Float32bits(v))
}

func getF32(buf []byte) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(buf))
}
