package quant

import (
	"bytes"
	"math"
	"testing"

	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
)

// goldenInput is the fixed probe vector every golden test quantizes: a
// mix of signs, magnitudes spanning three orders, an exact zero and the
// max-magnitude entry that becomes the scale.
func goldenInput() []float32 {
	return []float32{0.75, -0.25, 0.0625, -1.5, 0.001, 0, -0.875, 0.33}
}

// eqF32 compares float32 slices bit-exactly (0 == -0 is NOT tolerated:
// the wire format distinguishes them and so must the quantizers).
func eqF32(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#08x), want %v (%#08x)", name, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func eqI16(t *testing.T, name string, got, want []int16) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d levels, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
}

// TestGoldenTernary pins the exact TernGrad output under the seeded rng.
func TestGoldenTernary(t *testing.T) {
	scale, levels := splitTernary(Ternary(nil, goldenInput(), prng.New(42)), len(goldenInput()))
	if scale != 1.5 {
		t.Fatalf("scale = %v, want 1.5", scale)
	}
	want := []int8{1, 0, 0, -1, 0, 0, 0, 0}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("level[%d] = %d, want %d", i, levels[i], want[i])
		}
	}
}

// TestGoldenSign pins the signSGD bit-packed wire byte and the folded
// sign vector (zero maps to +1, matching the wire codec).
func TestGoldenSign(t *testing.T) {
	packed := PackSigns([]byte{0xff, 0xff}, goldenInput())
	if !bytes.Equal(packed, []byte{0xb5}) {
		t.Fatalf("packed = %#v, want []byte{0xb5}", packed)
	}
	back := make([]float32, len(goldenInput()))
	if err := addSigns(back, packed); err != nil {
		t.Fatal(err)
	}
	eqF32(t, "unpacked", back, []float32{1, -1, 1, -1, 1, 1, -1, 1})
	if err := addSigns(make([]float32, 42), packed); err == nil {
		t.Fatalf("addSigns accepted a mismatched length")
	}
}

// goldenStack pins one Compressor stack end to end: the Transform output
// (scale, levels, lattice-pinned values) and the exact v3 frame bytes
// the encoder emits for it. The frame bytes are the replica-agreement
// contract — every peer decodes exactly these bytes — so they are pinned
// as literals, not recomputed.
type goldenStack struct {
	vc     sparse.ValueCodec
	scale  float32
	levels []int16
	bits   []uint32 // float32 bits of the transformed (lattice) values
	frame  []byte
}

// TestGoldenStack pins Transform + EncodeSlicesV3 for every quantized
// value codec, then closes the loop: decoding the pinned frame must
// reproduce the lattice values bit-exactly, and input − lattice is the
// residual the aggregator folds back (exact float32 subtraction).
func TestGoldenStack(t *testing.T) {
	indices := []int32{0, 3, 7, 12, 100, 101, 250, 511}
	golden := []goldenStack{
		{sparse.ValueQ8, 1.5,
			[]int16{127, -43, 10, -255, 0, 0, -149, 56},
			[]uint32{0x3f3f3f3f, 0xbe818182, 0x3d70f0f1, 0xbfc00000, 0, 0, 0xbf606060, 0x3ea8a8a9},
			[]byte{0xb3, 0x3, 0x2, 0x80, 0x4, 0x8, 0x0, 0x0, 0xc0, 0x3f, 0x0, 0x2, 0x3, 0x4, 0x57, 0x0, 0x94, 0x1, 0x84, 0x2, 0x4a, 0x7f, 0x2b, 0xa, 0xff, 0x0, 0x0, 0x95, 0x38}},
		{sparse.ValueQ2, 1.5,
			[]int16{1, -1, 0, -3, 0, 0, -2, 1},
			[]uint32{0x3f000000, 0xbf000000, 0, 0xbfc00000, 0, 0, 0xbf800000, 0x3f000000},
			[]byte{0xb3, 0x3, 0x4, 0x80, 0x4, 0x8, 0x0, 0x0, 0xc0, 0x3f, 0x0, 0x2, 0x3, 0x4, 0x57, 0x0, 0x94, 0x1, 0x84, 0x2, 0x4a, 0xc5, 0x60}},
		{sparse.ValueTernary, 1.5,
			[]int16{0, 0, 0, -1, 0, 0, -1, 1},
			[]uint32{0, 0, 0, 0xbfc00000, 0, 0, 0xbfc00000, 0x3fc00000},
			[]byte{0xb3, 0x3, 0x5, 0x80, 0x4, 0x8, 0x0, 0x0, 0xc0, 0x3f, 0x0, 0x2, 0x3, 0x4, 0x57, 0x0, 0x94, 0x1, 0x84, 0x2, 0x80, 0x60}},
		{sparse.ValueSign, 0.4710625,
			[]int16{1, -1, 1, -1, 1, 1, -1, 1},
			[]uint32{0x3ef12f1b, 0xbef12f1b, 0x3ef12f1b, 0xbef12f1b, 0x3ef12f1b, 0x3ef12f1b, 0xbef12f1b, 0x3ef12f1b},
			[]byte{0xb3, 0x3, 0x6, 0x80, 0x4, 0x8, 0x1b, 0x2f, 0xf1, 0x3e, 0x0, 0x2, 0x3, 0x4, 0x57, 0x0, 0x94, 0x1, 0x84, 0x2, 0xb5}},
	}
	for _, g := range golden {
		t.Run(g.vc.String(), func(t *testing.T) {
			in := goldenInput()
			vals := append([]float32(nil), in...)
			scale, levels := NewStack(g.vc, 7).Transform(vals)
			if math.Float32bits(scale) != math.Float32bits(g.scale) {
				t.Fatalf("scale = %v, want %v", scale, g.scale)
			}
			eqI16(t, "levels", levels, g.levels)
			want := make([]float32, len(g.bits))
			for i, b := range g.bits {
				want[i] = math.Float32frombits(b)
			}
			eqF32(t, "lattice values", vals, want)

			codec := sparse.CodecForWireValue(3, g.vc)
			frame := sparse.EncodeSlicesV3(codec, 512, indices, nil, scale, levels)
			if !bytes.Equal(frame, g.frame) {
				t.Fatalf("frame = %#v,\nwant    %#v", frame, g.frame)
			}
			decoded := &sparse.Vector{}
			if err := sparse.DecodeV3Into(decoded, g.frame); err != nil {
				t.Fatalf("pinned frame no longer decodes: %v", err)
			}
			eqF32(t, "decoded values", decoded.Values, vals)
			// The residual the aggregator folds back is input − lattice in
			// float32; it must be finite and bounded by the scale plus the
			// largest input magnitude (the coarsest lattice miss possible).
			bound := float64(scale) + 1.5
			for i := range in {
				res := float64(in[i] - vals[i])
				if math.IsNaN(res) || math.Abs(res) > bound {
					t.Fatalf("residual at %d: %v out of [-%v, %v]", i, res, bound, bound)
				}
			}
		})
	}
}

// TestStackZeroScale pins the all-zero input: every quantized stack must
// emit scale 0 with all-zero levels (sign excepted — its levels are
// ±1 by construction), the one form the decoder accepts under a zero
// scale.
func TestStackZeroScale(t *testing.T) {
	for _, vc := range []sparse.ValueCodec{sparse.ValueQ8, sparse.ValueQ2, sparse.ValueTernary} {
		vals := make([]float32, 5)
		scale, levels := NewStack(vc, 3).Transform(vals)
		if scale != 0 {
			t.Fatalf("%s: zero input gave scale %v", vc, scale)
		}
		for i, l := range levels {
			if l != 0 {
				t.Fatalf("%s: zero input gave level[%d]=%d", vc, i, l)
			}
		}
	}
	vals := make([]float32, 3)
	scale, levels := NewStack(sparse.ValueSign, 3).Transform(vals)
	if scale != 0 {
		t.Fatalf("sign: zero input gave scale %v", scale)
	}
	eqI16(t, "sign zero levels", levels, []int16{1, 1, 1})
}

// TestStackFork pins the fork contract: the same stream forked twice
// transforms identically no matter how many draws the parent has made,
// and ValueCodec survives the fork.
func TestStackFork(t *testing.T) {
	parent := NewStack(sparse.ValueQ8, 99)
	a := parent.Fork(5)
	burn := goldenInput()
	parent.Transform(burn) // parent draws must not perturb later forks
	b := parent.Fork(5)
	if a.ValueCodec() != sparse.ValueQ8 || b.ValueCodec() != sparse.ValueQ8 {
		t.Fatalf("fork changed value codec")
	}
	va, vb := goldenInput(), goldenInput()
	sa, la := a.Transform(va)
	sb, lb := b.Transform(vb)
	if sa != sb {
		t.Fatalf("forked scales differ: %v vs %v", sa, sb)
	}
	eqI16(t, "forked levels", la, lb)
	eqF32(t, "forked values", va, vb)
}

// TestStackShared pins the Shared contract: every rank's stack — forked
// per rank, then per sub-communicator — yields the same draws for one
// key, a different key draws differently, no draw replays a rank stream,
// and a steady-state Shared + Transform allocates nothing.
func TestStackShared(t *testing.T) {
	src := make([]float32, 256)
	rng := prng.New(3)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	input := func() []float32 { return append([]float32(nil), src...) }
	root := NewStack(sparse.ValueQ8, 99)
	rank0 := root.Fork(0).Fork(1)
	rank5 := root.Fork(5).Fork(1)
	rank5.Transform(input()) // rank draws must not perturb Shared
	va, vb := input(), input()
	sa, la := rank0.Shared(42).Transform(va)
	la = append([]int16(nil), la...)
	sb, lb := rank5.Shared(42).Transform(vb)
	if sa != sb {
		t.Fatalf("shared scales differ: %v vs %v", sa, sb)
	}
	eqI16(t, "shared levels", la, lb)
	eqF32(t, "shared values", va, vb)

	for name, c := range map[string]sparse.Compressor{"Shared(43)": rank0.Shared(43), "Fork(42)": root.Fork(42)} {
		_, l := c.Transform(input())
		same := true
		for i := range l {
			same = same && l[i] == la[i]
		}
		if same {
			t.Fatalf("%s draws the same levels as Shared(42)", name)
		}
	}

	vals := input()
	if allocs := testing.AllocsPerRun(20, func() {
		copy(vals, src)
		rank0.Shared(7).Transform(vals)
	}); allocs != 0 {
		t.Fatalf("Shared + Transform allocates %v times", allocs)
	}
}
