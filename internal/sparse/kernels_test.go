package sparse

import (
	"bytes"
	"math"
	"testing"

	"gtopkssgd/internal/prng"
)

// withKernels runs fn under the named kernel mode, restoring the prior
// mode afterwards. Skips when the mode is not available in this build
// (fast under -tags purego).
func withKernels(t *testing.T, mode string, fn func()) {
	t.Helper()
	if mode == KernelsFast && !FastKernelsAvailable() {
		t.Skipf("fast kernels unavailable in this build")
	}
	prev := Kernels()
	if err := SetKernels(mode); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetKernels(prev); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
}

func TestKernelsModeAPI(t *testing.T) {
	prev := Kernels()
	defer func() {
		if err := SetKernels(prev); err != nil {
			t.Fatal(err)
		}
	}()

	if got := DefaultKernels(); FastKernelsAvailable() != (got == KernelsFast) {
		t.Fatalf("DefaultKernels()=%q with FastKernelsAvailable()=%v", got, FastKernelsAvailable())
	}
	if err := SetKernels(KernelsPure); err != nil {
		t.Fatal(err)
	}
	if got := Kernels(); got != KernelsPure {
		t.Fatalf("Kernels()=%q after SetKernels(pure)", got)
	}
	if err := SetKernels("bogus"); err == nil {
		t.Fatal("SetKernels(bogus) did not error")
	}
	if got := Kernels(); got != KernelsPure {
		t.Fatalf("failed SetKernels changed the mode to %q", got)
	}
	err := SetKernels(KernelsFast)
	if FastKernelsAvailable() {
		if err != nil {
			t.Fatalf("SetKernels(fast) on a fast-capable build: %v", err)
		}
		if got := Kernels(); got != KernelsFast {
			t.Fatalf("Kernels()=%q after SetKernels(fast)", got)
		}
	} else if err == nil {
		t.Fatal("SetKernels(fast) succeeded in a build without fast kernels")
	}
}

// kernelInputFamilies generates the input classes the equivalence suite
// sweeps: normal random, tie-heavy quantized, all-zero, magnitude-skewed
// (exponents spanning denormals to huge), and non-finite-spiked slices.
func kernelInputFamilies(seed uint64, n int) map[string][]float32 {
	src := prng.New(seed)
	normal := make([]float32, n)
	ties := make([]float32, n)
	zeros := make([]float32, n)
	skew := make([]float32, n)
	wild := make([]float32, n)
	for i := 0; i < n; i++ {
		normal[i] = float32(src.NormFloat64())
		ties[i] = float32(int(src.Uint64()%5)) - 2
		skew[i] = float32(src.NormFloat64()) * float32(math.Pow(10, float64(int(src.Uint64()%80))-40))
		switch src.Uint64() % 8 {
		case 0:
			wild[i] = float32(math.NaN())
		case 1:
			wild[i] = float32(math.Inf(1))
		case 2:
			wild[i] = float32(math.Inf(-1))
		case 3:
			wild[i] = float32(math.Copysign(0, -1))
		default:
			wild[i] = float32(src.NormFloat64())
		}
	}
	return map[string][]float32{
		"normal": normal, "ties": ties, "zeros": zeros, "skew": skew, "wild": wild,
	}
}

// runSelectionUnderMode captures every observable output of the dense and
// sparse selection paths for one input under the active kernel mode.
func runSelectionUnderMode(t *testing.T, x []float32, k int) (dense, sprs *Vector, thr float32) {
	t.Helper()
	dense = &Vector{}
	TopKInto(dense, x, k)
	sv := FromDense(x)
	sprs = &Vector{}
	TopKSparseInto(sprs, sv, min(k, max(sv.NNZ(), 1)))
	if k >= 1 && k <= len(x) {
		thr = Threshold(x, k)
	}
	return dense, sprs, thr
}

func vectorsEqualBits(a, b *Vector) bool {
	if a.Dim != b.Dim || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] ||
			math.Float32bits(a.Values[i]) != math.Float32bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// TestKernelsSelectionEquivalence pins fast-mode selection bit-identical
// to pure mode across the input families — including NaN/Inf-spiked
// slices, where identity holds because the fast partition replays the
// pure partition's exact swap sequence.
func TestKernelsSelectionEquivalence(t *testing.T) {
	if !FastKernelsAvailable() {
		t.Skip("fast kernels unavailable in this build")
	}
	for name, x := range kernelInputFamilies(42, 501) {
		for _, k := range []int{1, 2, 50, 250, 500, 501} {
			var pd, ps *Vector
			var pthr float32
			withKernels(t, KernelsPure, func() { pd, ps, pthr = runSelectionUnderMode(t, x, k) })
			var fd, fs *Vector
			var fthr float32
			withKernels(t, KernelsFast, func() { fd, fs, fthr = runSelectionUnderMode(t, x, k) })
			if math.Float32bits(pthr) != math.Float32bits(fthr) {
				t.Fatalf("%s k=%d: Threshold pure %x fast %x", name, k,
					math.Float32bits(pthr), math.Float32bits(fthr))
			}
			if !vectorsEqualBits(pd, fd) {
				t.Fatalf("%s k=%d: TopKInto differs between modes", name, k)
			}
			if !vectorsEqualBits(ps, fs) {
				t.Fatalf("%s k=%d: TopKSparseInto differs between modes", name, k)
			}
		}
	}
}

// TestKernelsMergeEquivalence pins AddInto, MergeInto, the Accumulator
// scatter-add, and the wire encoding bit-identical across modes.
func TestKernelsMergeEquivalence(t *testing.T) {
	if !FastKernelsAvailable() {
		t.Skip("fast kernels unavailable in this build")
	}
	const dim = 512
	a := randomSparse(7, dim, 96, false)
	b := randomSparse(8, dim, 96, true)
	c := randomSparse(9, dim, 33, false)
	run := func() (sum, merged, acc *Vector, wire []byte) {
		sum, merged, acc = &Vector{}, &Vector{}, &Vector{}
		if err := AddInto(sum, a, b); err != nil {
			t.Fatal(err)
		}
		if err := MergeInto(merged, a, b, 40); err != nil {
			t.Fatal(err)
		}
		ac := GetAccumulator(dim)
		for _, v := range []*Vector{a, b, c, b} {
			if err := ac.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		ac.CompactInto(acc)
		ac.Release()
		wire = bytes.Clone(EncodeTo(make([]byte, EncodedSize(sum.NNZ())), sum))
		return sum, merged, acc, wire
	}
	var psum, pmerged, pacc *Vector
	var pwire []byte
	withKernels(t, KernelsPure, func() { psum, pmerged, pacc, pwire = run() })
	var fsum, fmerged, facc *Vector
	var fwire []byte
	withKernels(t, KernelsFast, func() { fsum, fmerged, facc, fwire = run() })
	if !vectorsEqualBits(psum, fsum) {
		t.Fatal("AddInto differs between modes")
	}
	if !vectorsEqualBits(pmerged, fmerged) {
		t.Fatal("MergeInto differs between modes")
	}
	if !vectorsEqualBits(pacc, facc) {
		t.Fatal("Accumulator differs between modes")
	}
	if !bytes.Equal(pwire, fwire) {
		t.Fatal("EncodeTo bytes differ between modes")
	}
}

// TestKernelsValidateEquivalence pins Validate verdicts AND error text
// across modes: the fast path's quick scan must fall back to the pure
// diagnostics on every malformed shape.
func TestKernelsValidateEquivalence(t *testing.T) {
	if !FastKernelsAvailable() {
		t.Skip("fast kernels unavailable in this build")
	}
	cases := []*Vector{
		{Dim: 8, Indices: []int32{0, 3, 7}, Values: []float32{1, 2, 3}},
		{Dim: 8, Indices: []int32{}, Values: []float32{}},
		{Dim: 8, Indices: []int32{-1, 3, 7}, Values: []float32{1, 2, 3}},
		{Dim: 8, Indices: []int32{0, 3, 8}, Values: []float32{1, 2, 3}},
		{Dim: 8, Indices: []int32{0, 3, 3}, Values: []float32{1, 2, 3}},
		{Dim: 8, Indices: []int32{5, 3, 7}, Values: []float32{1, 2, 3}},
		{Dim: 8, Indices: []int32{0, -2, 7}, Values: []float32{1, 2, 3}},
		{Dim: 8, Indices: []int32{0, 9, 7}, Values: []float32{1, 2, 3}},
	}
	for i, v := range cases {
		var perr, ferr error
		withKernels(t, KernelsPure, func() { perr = v.Validate() })
		withKernels(t, KernelsFast, func() { ferr = v.Validate() })
		pmsg, fmsg := "", ""
		if perr != nil {
			pmsg = perr.Error()
		}
		if ferr != nil {
			fmsg = ferr.Error()
		}
		if pmsg != fmsg {
			t.Fatalf("case %d: Validate pure=%q fast=%q", i, pmsg, fmsg)
		}
	}
}

// fuzzFloats reinterprets raw bytes as float32s — arbitrary bit patterns,
// NaN payloads and all.
func fuzzFloats(raw []byte, maxN int) []float32 {
	n := len(raw) / 4
	if n > maxN {
		n = maxN
	}
	out := make([]float32, n)
	for i := 0; i < n; i++ {
		bits := uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 |
			uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24
		out[i] = math.Float32frombits(bits)
	}
	return out
}

// FuzzKernelsEquiv asserts fast/pure bit-equivalence on arbitrary inputs:
// for any bit pattern (finite, Inf, NaN), selection, merge, scatter-add,
// and wire encoding must produce identical bits in both kernel modes.
// This is the contract that makes -kernels a pure speed knob. It runs
// with the candidate path's size gate lowered to 1, so the dense
// selections below go through the sampled-threshold path wherever k <=
// n/32, and each is also compared with the radix/quickselect path alone
// in the same mode — the contract that makes the candidate path a pure
// speed-up. A build without fast kernels still checks that half.
func FuzzKernelsEquiv(f *testing.F) {
	f.Add(uint8(3), []byte{1, 0, 0, 63, 0, 0, 128, 191, 0, 0, 192, 127})
	f.Add(uint8(1), []byte{0, 0, 128, 127, 0, 0, 128, 255, 1, 0, 0, 0})
	f.Add(uint8(7), bytes.Repeat([]byte{0xff}, 64))
	// 256 floats the candidate path admits (k2 <= 8): distinct finite
	// magnitudes, the same with a NaN and an Inf planted, and a heavy tie.
	ramp := make([]byte, 1024)
	for i := 0; i < 256; i++ {
		bits := math.Float32bits(float32(1+(i*89)%256) * float32(1-2*(i%2)))
		ramp[4*i], ramp[4*i+1], ramp[4*i+2], ramp[4*i+3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
	}
	f.Add(uint8(2), ramp)
	wild := bytes.Clone(ramp)
	copy(wild[4*77:], []byte{0, 0, 192, 127}) // NaN
	copy(wild[4*78:], []byte{0, 0, 128, 255}) // -Inf
	f.Add(uint8(4), wild)
	f.Add(uint8(5), bytes.Repeat([]byte{0, 0, 128, 63, 0, 0, 128, 191, 0, 0, 0, 63, 0, 0, 0, 0}, 64))
	f.Fuzz(func(t *testing.T, kRaw uint8, raw []byte) {
		x := fuzzFloats(raw, 256)
		if len(x) == 0 {
			return
		}
		k := int(kRaw)%len(x) + 1
		k2 := int(kRaw)%max(len(x)/candMaxShare, 1) + 1 // inside the candidate gate when n >= 32
		half := len(x) / 2
		av, bv := FromDense(x[:half]), FromDense(x[:half])
		if half > 0 {
			for i := range bv.Values {
				bv.Values[i] = x[len(x)-1-i%len(x)]
			}
		}
		setCandMinN(t, 1)
		type outputs struct {
			topk, topk2, sum, stopk *Vector
			thr                     float32
			wire                    []byte
		}
		run := func() outputs {
			o := outputs{topk: &Vector{}, topk2: &Vector{}, sum: &Vector{}, stopk: &Vector{}}
			TopKInto(o.topk, x, k)
			TopKInto(o.topk2, x, k2)
			for _, c := range []struct {
				got *Vector
				k   int
			}{{o.topk, k}, {o.topk2, k2}} {
				if !vectorsEqualBits(fullPathTopK(x, c.k), c.got) {
					t.Fatalf("%s k=%d: TopKInto with the candidate path differs from the full path", Kernels(), c.k)
				}
			}
			o.thr = Threshold(x, min(k, len(x)))
			if half > 0 {
				if err := AddInto(o.sum, av, bv); err != nil {
					t.Fatal(err)
				}
				// Sparse re-selection over the merged sum: the gTop-k tree's
				// ⊕ step, covering the sparse emit scan and the radix/
				// quickselect threshold on sparse magnitudes.
				TopKSparseInto(o.stopk, o.sum, min(k, o.sum.NNZ()))
			}
			o.wire = bytes.Clone(Encode(o.topk))
			return o
		}
		prev := Kernels()
		defer func() {
			if err := SetKernels(prev); err != nil {
				t.Fatal(err)
			}
		}()
		if err := SetKernels(KernelsPure); err != nil {
			t.Fatal(err)
		}
		p := run()
		if !FastKernelsAvailable() {
			return
		}
		if err := SetKernels(KernelsFast); err != nil {
			t.Fatal(err)
		}
		f := run()
		if math.Float32bits(p.thr) != math.Float32bits(f.thr) {
			t.Fatalf("Threshold pure %x fast %x", math.Float32bits(p.thr), math.Float32bits(f.thr))
		}
		if !vectorsEqualBits(p.topk, f.topk) || !vectorsEqualBits(p.topk2, f.topk2) {
			t.Fatal("TopKInto differs between modes")
		}
		if !vectorsEqualBits(p.sum, f.sum) {
			t.Fatal("AddInto differs between modes")
		}
		if !vectorsEqualBits(p.stopk, f.stopk) {
			t.Fatal("TopKSparseInto differs between modes")
		}
		if !bytes.Equal(p.wire, f.wire) {
			t.Fatal("Encode bytes differ between modes")
		}
	})
}
