// Package f16 implements IEEE 754 binary16 (half-precision) conversion,
// shared by the v3 sparse wire codec's fp16 value codec (internal/sparse)
// and the quantization baselines (internal/quant). Conversion to half
// uses round-to-nearest-even — the rounding mode NCCL, Gloo and the DGC
// lineage use for gradient payloads — and conversion back to float32 is
// exact for every finite half value.
//
// Error bound: for |x| in the binary16 normal range [2^-14, 65504], the
// relative error of a Bits/From round trip is at most 2^-11 (≈ 0.049%).
// |x| < 2^-24 flushes toward signed zero; |x| > 65504 overflows to ±Inf.
package f16

import "math"

// Bits converts f to its binary16 representation with round-to-nearest-
// even. Values beyond the half range become ±Inf; NaN payloads keep their
// top 10 mantissa bits (with the quiet bit forced, so the result is
// still a NaN), which makes From(Bits(x)) the identity on every binary16
// bit pattern round-tripped through float32.
func Bits(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xff
	mant := b & 0x7fffff

	if exp == 0xff { // Inf or NaN
		if mant == 0 {
			return sign | 0x7c00
		}
		m := uint16(mant >> 13)
		if m == 0 {
			m = 0x200 // payload vanished in the narrowing: force quiet bit
		}
		return sign | 0x7c00 | m
	}

	e := exp - 112 // rebase: float32 bias 127 -> binary16 bias 15
	switch {
	case e >= 0x1f: // overflow
		return sign | 0x7c00
	case e >= 1: // normal half
		m := mant >> 13
		rem := mant & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && m&1 == 1) {
			m++ // may carry into the exponent; e<<10 + m encodes that too
		}
		return sign | uint16(e)<<10 + uint16(m)
	case e >= -10: // subnormal half
		sig := mant | 0x800000
		s := uint(14 - e) // 14..24
		m := sig >> s
		rem := sig & (1<<s - 1)
		half := uint32(1) << (s - 1)
		if rem > half || (rem == half && m&1 == 1) {
			m++ // m == 0x400 after carry encodes the smallest normal
		}
		return sign | uint16(m)
	default: // underflow
		return sign
	}
}

// From converts a binary16 bit pattern to float32, exactly for every
// finite input.
func From(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	mant := uint32(h & 0x3ff)

	switch {
	case exp == 0x1f: // Inf or NaN (payload preserved in the top bits)
		return math.Float32frombits(sign | 0x7f800000 | mant<<13)
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal half: normalize into a float32 normal.
		e := uint32(113) // would-be rebased exponent of the smallest normal
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (mant&0x3ff)<<13)
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | mant<<13)
	}
}

// Round quantizes f through binary16 and back: the value a receiver will
// reconstruct from an fp16 wire frame. Idempotent: Round(Round(x)) ==
// Round(x) bit-for-bit.
func Round(f float32) float32 { return From(Bits(f)) }

// RoundSlice applies Round to every element of xs in place. It is THE
// shared rounding loop: the fp16 value codec's transform (quant.Stack)
// rounds a sender's own copy with it, and replica agreement depends on
// it matching the codec's per-value conversion exactly.
func RoundSlice(xs []float32) {
	for i, v := range xs {
		xs[i] = Round(v)
	}
}
