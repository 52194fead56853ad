package quant

import (
	"fmt"
	"math"
	"testing"

	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
)

// refTransformUniform is the branchy QSGD transform Stack.transformUniform
// replaced, kept as its reference: math.Floor, a branch to round up, a
// branch to negate, DequantLevel per value.
func refTransformUniform(s *Stack, values []float32, levels []int16) float32 {
	var scale float32
	for _, v := range values {
		if a := abs32(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		for i := range levels {
			levels[i] = 0
		}
		return 0
	}
	steps := float32(s.steps())
	for i, v := range values {
		t := abs32(v) / scale * steps
		lo := float32(math.Floor(float64(t)))
		level := lo
		if s.rng.Float32() < t-lo {
			level = lo + 1
		}
		if v < 0 {
			level = -level
		}
		levels[i] = int16(level)
		values[i] = sparse.DequantLevel(s.vc, scale, levels[i])
	}
	return scale
}

// TestTransformUniformBitIdentical holds the branch-free transform to the
// reference on every QSGD codec: the same scale, levels and value bits,
// and the same number of draws from the stream (the next draw agrees),
// over ±0, denormals, a value equal to the scale, all-equal inputs, a
// single value, non-finite values and random vectors.
func TestTransformUniformBitIdentical(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	denorm := math.Float32frombits(1)
	src := prng.New(8)
	inputs := map[string][]float32{
		"signed-zeros":   {0, negZero, 0.5, negZero, -0.25, 0, negZero},
		"denormals":      {denorm, -denorm, math.Float32frombits(0x007fffff), -math.Float32frombits(0x00400000), 1e-38, negZero},
		"only-denormals": {denorm, -3 * denorm, 7 * denorm, negZero},
		"equals-scale":   {-2, 2, 1, -1, 0.5, 2},
		"all-equal":      {0.3, 0.3, 0.3, 0.3, 0.3},
		"all-equal-neg":  {-0.3, -0.3, -0.3},
		"length-1":       {-0.7},
		"nan":            {0.5, float32(math.NaN()), -0.25, math.Float32frombits(0xffc00000), negZero},
		"inf":            {0.5, float32(math.Inf(-1)), -0.25, negZero},
	}
	for r := 0; r < 50; r++ {
		x := make([]float32, 1+src.Intn(300))
		for i := range x {
			x[i] = float32(src.NormFloat64()) * float32(math.Pow(10, float64(src.Intn(9)-4)))
			if src.Intn(20) == 0 {
				x[i] = float32(math.Copysign(0, float64(1-2*src.Intn(2))))
			}
		}
		inputs[fmt.Sprintf("random-%d", r)] = x
	}
	for _, vc := range []sparse.ValueCodec{sparse.ValueQ8, sparse.ValueQ4, sparse.ValueQ2} {
		for name, in := range inputs {
			label := fmt.Sprintf("%v/%s", vc, name)
			got, want := NewStack(vc, 5), NewStack(vc, 5)
			gotVals, wantVals := append([]float32(nil), in...), append([]float32(nil), in...)
			gotLevels, wantLevels := make([]int16, len(in)), make([]int16, len(in))
			gotScale := got.transformUniform(gotVals, gotLevels)
			wantScale := refTransformUniform(want, wantVals, wantLevels)
			if math.Float32bits(gotScale) != math.Float32bits(wantScale) {
				t.Fatalf("%s: scale %x, want %x", label, math.Float32bits(gotScale), math.Float32bits(wantScale))
			}
			for i := range in {
				if gotLevels[i] != wantLevels[i] || math.Float32bits(gotVals[i]) != math.Float32bits(wantVals[i]) {
					t.Fatalf("%s[%d] (input %x): level %d value %x, want level %d value %x", label, i, math.Float32bits(in[i]),
						gotLevels[i], math.Float32bits(gotVals[i]), wantLevels[i], math.Float32bits(wantVals[i]))
				}
			}
			if got.rng.Uint64() != want.rng.Uint64() {
				t.Fatalf("%s: the transform drew a different number of random values", label)
			}
		}
	}
}

// BenchmarkTransformUniform times the QSGD transform on one 2000-value
// selection (comm-tcp's k) against the reference loop.
func BenchmarkTransformUniform(b *testing.B) {
	src := prng.New(1)
	in := make([]float32, 2000)
	for i := range in {
		in[i] = float32(src.NormFloat64())
	}
	vals, levels := make([]float32, len(in)), make([]int16, len(in))
	for _, impl := range []struct {
		name string
		run  func(s *Stack)
	}{
		{"branchless", func(s *Stack) { s.transformUniform(vals, levels) }},
		{"reference", func(s *Stack) { refTransformUniform(s, vals, levels) }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			s := NewStack(sparse.ValueQ8, 3)
			for i := 0; i < b.N; i++ {
				copy(vals, in)
				impl.run(s)
			}
		})
	}
}
