package sparse

import (
	"fmt"
	"math"
	"testing"

	"gtopkssgd/internal/prng"
)

// refAccumulateTopK is the select TopKAccumulateInto replaces: the
// momentum fold and residual add as one loop over the three arrays, then
// TopKInto over the updated residual.
func refAccumulateTopK(dst *Vector, residual, vel []float32, mu float32, grad []float32, k int) {
	for i, g := range grad {
		if mu > 0 {
			v := mu*vel[i] + g
			vel[i] = v
			residual[i] += v
		} else {
			residual[i] += g
		}
	}
	TopKInto(dst, residual, k)
}

// accState is one side of a fused-versus-reference comparison.
type accState struct {
	residual, vel []float32
	sel           Vector
}

func newAccState(residual, vel []float32) *accState {
	return &accState{residual: append([]float32(nil), residual...), vel: append([]float32(nil), vel...)}
}

// sameAccState reports the first array on which two states differ in
// any bit, or "" when residual, velocity and selection all agree.
func sameAccState(a, b *accState) string {
	for i := range a.residual {
		if math.Float32bits(a.residual[i]) != math.Float32bits(b.residual[i]) {
			return fmt.Sprintf("residual[%d] %x vs %x", i, math.Float32bits(a.residual[i]), math.Float32bits(b.residual[i]))
		}
		if math.Float32bits(a.vel[i]) != math.Float32bits(b.vel[i]) {
			return fmt.Sprintf("velocity[%d] %x vs %x", i, math.Float32bits(a.vel[i]), math.Float32bits(b.vel[i]))
		}
	}
	if !vectorsEqualBits(&a.sel, &b.sel) {
		return "selection"
	}
	return ""
}

// kthBits is the sign-free bit pattern of the k-th largest magnitude of
// residual + (mu·vel + grad): the threshold a perfect hint would carry.
func kthBits(residual, vel []float32, mu float32, grad []float32, k int) uint32 {
	ref := newAccState(residual, vel)
	refAccumulateTopK(&ref.sel, ref.residual, ref.vel, mu, grad, k)
	kth := uint32(math.MaxUint32)
	for _, v := range ref.sel.Values {
		kth = min(kth, math.Float32bits(v)&^signMask32)
	}
	return kth
}

// TestTopKAccumulateBitIdentical is the fused pass's acceptance wall:
// for every hint — none, the exact k-th magnitude, far too high or low,
// a denormal, +Inf, NaN bits — and every input family at the edges of
// the size gate, under mu 0 and 0.9, the fused select leaves residual,
// velocity and selection bit-identical to the separate accumulate and
// TopKInto, and takes the candidates or declines where the case says.
func TestTopKAccumulateBitIdentical(t *testing.T) {
	const n = 2 * 4096
	type input struct {
		residual, vel, grad []float32
		k                   int
	}
	gauss := func(seed uint64, n, k int) input {
		src := prng.New(seed)
		return input{randDense(src, n), randDense(src, n), randDense(src, n), k}
	}
	nan := gauss(3, n, n/100)
	nan.residual[n/2+1] = float32(math.NaN())
	zeros := gauss(4, n, n/100) // 80 % of the updated entries are ±0
	for i := range zeros.grad {
		if i%5 != 0 {
			zeros.residual[i], zeros.vel[i], zeros.grad[i] = 0, 0, float32(math.Copysign(0, float64(1-2*(i%2))))
		}
	}
	sparseIn := gauss(5, n, n/32) // fewer than k non-zero entries: the k-th magnitude is 0
	for i := range sparseIn.grad {
		if i%40 != 0 {
			sparseIn.residual[i], sparseIn.vel[i], sparseIn.grad[i] = 0, 0, 0
		}
	}
	hints := map[string]func(kth uint32) uint32{
		"none":     func(uint32) uint32 { return 0 },
		"exact":    func(kth uint32) uint32 { return kth },
		"far-high": func(kth uint32) uint32 { return math.Float32bits(math.Float32frombits(kth) * 100) },
		"far-low":  func(kth uint32) uint32 { return math.Float32bits(math.Float32frombits(kth) / 1000) },
		"denormal": func(uint32) uint32 { return 1 },
		"inf":      func(uint32) uint32 { return infBits },
		"nan-bits": func(uint32) uint32 { return 0x7fc00000 },
	}
	cases := []struct {
		name  string
		in    input
		hint  string
		taken bool
	}{
		{"gauss", gauss(1, n, n/100), "none", false},
		{"gauss", gauss(1, n, n/100), "exact", true},
		{"gauss", gauss(1, n, n/100), "far-high", false},
		{"gauss", gauss(1, n, n/100), "far-low", false},
		{"gauss", gauss(1, n, n/100), "denormal", false},
		{"gauss", gauss(1, n, n/100), "inf", false},
		{"gauss", gauss(1, n, n/100), "nan-bits", false},
		{"nan-in-residual", nan, "exact", false},
		{"signed-zeros", zeros, "exact", true},
		{"k-th-is-zero", sparseIn, "exact", false},
		{"n=candMinN-1", gauss(6, candMinN-1, 16), "exact", false},
		{"n=candMinN+1", gauss(7, candMinN+1, 16), "exact", true},
		{"k=n/32", gauss(8, n, n/32), "exact", true},
		{"k=n/32+1", gauss(8, n, n/32+1), "exact", false},
	}
	for _, tc := range cases {
		for _, mu := range []float32{0, 0.9} {
			label := fmt.Sprintf("%s/%s/mu=%v", tc.name, tc.hint, mu)
			in := tc.in
			tau := hints[tc.hint](kthBits(in.residual, in.vel, mu, in.grad, in.k))
			fused, ref := newAccState(in.residual, in.vel), newAccState(in.residual, in.vel)
			h := SelectHint{tau: tau}
			taken := TopKAccumulateInto(&fused.sel, fused.residual, fused.vel, mu, in.grad, in.k, &h)
			refAccumulateTopK(&ref.sel, ref.residual, ref.vel, mu, in.grad, in.k)
			if diff := sameAccState(fused, ref); diff != "" {
				t.Fatalf("%s: fused and reference differ: %s", label, diff)
			}
			if taken != tc.taken {
				t.Fatalf("%s: taken=%v, want %v", label, taken, tc.taken)
			}
		}
	}
}

// TestTopKAccumulateSequence runs 200 training-shaped steps — accumulate,
// select, zero the selected entries, a k that shrinks from n/32 to 4 —
// through the fused select and the reference: every step bit-identical,
// and after the first step the carried hint takes the candidates on
// nearly every step.
func TestTopKAccumulateSequence(t *testing.T) {
	const n, steps = 3*4096 + 7, 200
	for _, mu := range []float32{0, 0.9} {
		fused, ref := newAccState(make([]float32, n), make([]float32, n)), newAccState(make([]float32, n), make([]float32, n))
		var h SelectHint
		src := prng.New(11)
		grad := make([]float32, n)
		taken := 0
		for step := 0; step < steps; step++ {
			k := max(n/candMaxShare-2*step, 4)
			for i := range grad {
				grad[i] = float32(src.NormFloat64()) * float32(1+i%7)
			}
			if TopKAccumulateInto(&fused.sel, fused.residual, fused.vel, mu, grad, k, &h) {
				taken++
			}
			refAccumulateTopK(&ref.sel, ref.residual, ref.vel, mu, grad, k)
			if diff := sameAccState(fused, ref); diff != "" {
				t.Fatalf("mu=%v step %d k=%d: fused and reference differ: %s", mu, step, k, diff)
			}
			for _, s := range []*accState{fused, ref} {
				for _, idx := range s.sel.Indices {
					s.residual[idx] = 0
				}
			}
		}
		t.Logf("mu=%v: the carried hint took the candidates on %d of %d steps", mu, taken, steps)
		if taken < steps*9/10 {
			t.Errorf("mu=%v: the carried hint took the candidates on %d of %d steps, want >= 90 %%", mu, taken, steps)
		}
	}
}

// FuzzTopKAccumulate holds the fused select to the reference on arbitrary
// bits — residual, velocity, gradient, hint threshold — for two steps, the
// second with the hint the first left behind. The size gate is lowered to
// 1 so the fuzzer's short inputs can take the candidates.
func FuzzTopKAccumulate(f *testing.F) {
	ramp := make([]byte, 3*4*256)
	for i := 0; i < 3*256; i++ {
		bits := math.Float32bits(float32(1+(i*89)%251) * float32(1-2*(i%2)))
		ramp[4*i], ramp[4*i+1], ramp[4*i+2], ramp[4*i+3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
	}
	f.Add(uint8(3), true, uint32(0), ramp)
	f.Add(uint8(1), false, math.Float32bits(100), ramp)
	f.Add(uint8(7), true, infBits, ramp)
	f.Add(uint8(2), true, uint32(1), ramp)
	wild := append([]byte(nil), ramp...)
	copy(wild[4*77:], []byte{0, 0, 192, 127})  // NaN in the residual
	copy(wild[4*300:], []byte{0, 0, 0, 128})   // -0 in the velocity
	copy(wild[4*600:], []byte{0, 0, 128, 255}) // -Inf in the gradient
	f.Add(uint8(4), true, math.Float32bits(200), wild)
	f.Fuzz(func(t *testing.T, kRaw uint8, momentum bool, tau uint32, raw []byte) {
		x := fuzzFloats(raw, 3*256)
		n := len(x) / 3
		if n == 0 {
			return
		}
		residual, vel, grad := x[:n], x[n:2*n], x[2*n:3*n]
		mu := float32(0)
		if momentum {
			mu = 0.9
		}
		k := int(kRaw)%max(n/candMaxShare, 1) + 1
		setCandMinN(t, 1)
		fused, ref := newAccState(residual, vel), newAccState(residual, vel)
		h := SelectHint{tau: tau}
		for step := 0; step < 2; step++ {
			TopKAccumulateInto(&fused.sel, fused.residual, fused.vel, mu, grad, k, &h)
			refAccumulateTopK(&ref.sel, ref.residual, ref.vel, mu, grad, k)
			if diff := sameAccState(fused, ref); diff != "" {
				t.Fatalf("step %d, n=%d k=%d mu=%v tau=%x: fused and reference differ: %s", step, n, k, mu, tau, diff)
			}
		}
	})
}
