package sparse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"gtopkssgd/internal/prng"
)

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

// radixWallInputs adds the edge classes of the radix ≡ quickselect wall
// to the kernelInputFamilies: infinities of both signs at the top, ±0
// ties, denormal magnitudes only, and one repeated value.
func radixWallInputs(seed uint64, n int) map[string][]float32 {
	in := kernelInputFamilies(seed, n)
	src := prng.New(seed + 1)
	inf := make([]float32, n)
	signedZeros := make([]float32, n)
	denormal := make([]float32, n)
	equal := make([]float32, n)
	for i := 0; i < n; i++ {
		inf[i] = float32(src.NormFloat64())
		if i%3 == 0 {
			inf[i] = float32(math.Inf(1 - 2*(i/3%2)))
		}
		signedZeros[i] = float32(math.Copysign(0, float64(1-2*(i%2))))
		if i%50 == 7 {
			signedZeros[i] = float32(src.NormFloat64())
		}
		denormal[i] = math.Float32frombits(uint32(src.Uint64()%0x7fffff+1) | uint32(i%2)<<31)
		equal[i] = -1.5
	}
	in["inf"], in["signed-zeros"], in["denormal"], in["all-equal"] = inf, signedZeros, denormal, equal
	return in
}

// quickselectRef is kthLargest's quickselect route on its own, over a
// fresh magnitude copy: the reference the radix descent must reproduce.
func quickselectRef(vals []float32, k int) (thr float32, strict int) {
	mags := make([]float32, len(vals))
	absInto(mags, vals)
	thr = selectKthLargest(mags, k)
	return thr, countGreater(mags, thr)
}

func hasNaN(x []float32) bool {
	return slices.ContainsFunc(x, func(v float32) bool { return v != v })
}

// checkRadixAgainstQuickselect asserts the radix descent's contract on
// one input: it declines below radixMinN or on NaN input, and otherwise
// returns the quickselect route's threshold bits and strict count.
// kthLargest must return the reference either way.
func checkRadixAgainstQuickselect(t *testing.T, label string, x []float32, k int) {
	t.Helper()
	wantThr, wantStrict := quickselectRef(x, k)
	thr, strict, ok := radixSelectKthLargest(x, k)
	switch {
	case len(x) < radixMinN || hasNaN(x):
		if ok {
			t.Fatalf("%s k=%d: radix accepted an input it must decline", label, k)
		}
	case !ok:
		t.Fatalf("%s k=%d: radix declined a NaN-free input of %d", label, k, len(x))
	case math.Float32bits(thr) != math.Float32bits(wantThr) || strict != wantStrict:
		t.Fatalf("%s k=%d: radix (%#x, %d), quickselect (%#x, %d)", label, k,
			math.Float32bits(thr), strict, math.Float32bits(wantThr), wantStrict)
	}
	thr, strict = kthLargest(x, k)
	if math.Float32bits(thr) != math.Float32bits(wantThr) || strict != wantStrict {
		t.Fatalf("%s k=%d: kthLargest (%#x, %d), quickselect (%#x, %d)", label, k,
			math.Float32bits(thr), strict, math.Float32bits(wantThr), wantStrict)
	}
}

// TestRadixMatchesQuickselect is the threshold kernel's wall: on both
// sides of the radix size gate, over every input family and edge class,
// the radix descent returns the same threshold bits and strict count as
// quickselect, and NaN input declines to quickselect.
func TestRadixMatchesQuickselect(t *testing.T) {
	for _, n := range []int{radixMinN - 1, radixMinN, radixMinN + 1, 4096} {
		for name, x := range radixWallInputs(uint64(n), n) {
			for _, k := range []int{1, n / 2, n - 1} {
				checkRadixAgainstQuickselect(t, fmt.Sprintf("n=%d %s", n, name), x, k)
			}
		}
	}
}

// refTopK is TopKInto's full selection with the threshold taken from the
// quickselect route and the winners from the branchy emit loop alone.
func refTopK(dst *Vector, idx []int32, vals []float32, dim, k int) {
	if k >= len(vals) {
		dst.Dim, dst.Indices, dst.Values = dim, slices.Clone(idx), slices.Clone(vals)
		return
	}
	thr, strict := quickselectRef(vals, k)
	ensureVec(dst, k)
	dst.Dim = dim
	o := emitTopKBranchy(dst.Indices, dst.Values, idx, vals, thr, k-strict, k)
	dst.Indices, dst.Values = dst.Indices[:o], dst.Values[:o]
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

// TestKernelsSelectionEquivalence pins TopKInto and TopKSparseInto to
// the same selection with the threshold from quickselect and the winners
// from the branchy emit loop, across the input families, on both sides
// of the radix size gate and of the branchless emit's shape gate —
// including NaN/Inf-spiked slices.
func TestKernelsSelectionEquivalence(t *testing.T) {
	for _, n := range []int{501, 2 * radixMinN} {
		for name, x := range kernelInputFamilies(42, n) {
			sv := FromDense(x)
			for _, k := range []int{1, 2, 50, n / 2, n - 1} {
				got, want := &Vector{}, &Vector{}
				TopKInto(got, x, k)
				refTopK(want, nil, x, n, k)
				if !vectorsEqualBits(want, got) {
					t.Fatalf("n=%d %s k=%d: TopKInto differs from the quickselect route", n, name, k)
				}
				ks := min(k, max(sv.NNZ(), 1))
				TopKSparseInto(got, sv, ks)
				refTopK(want, sv.Indices, sv.Values, n, ks)
				if !vectorsEqualBits(want, got) {
					t.Fatalf("n=%d %s k=%d: TopKSparseInto differs from the quickselect route", n, name, ks)
				}
			}
		}
	}
}

// refAdd is the sparse sum written out from the definition: the union
// support ascending, a+b where both hold an index, the lone value where
// one does.
func refAdd(a, b *Vector) *Vector {
	sum := map[int32]float32{}
	for i, idx := range a.Indices {
		sum[idx] = a.Values[i]
	}
	for i, idx := range b.Indices {
		if v, ok := sum[idx]; ok {
			sum[idx] = v + b.Values[i]
		} else {
			sum[idx] = b.Values[i]
		}
	}
	out := &Vector{Dim: a.Dim}
	for _, idx := range slices.Sorted(maps.Keys(sum)) {
		out.Indices = append(out.Indices, idx)
		out.Values = append(out.Values, sum[idx])
	}
	return out
}

// refPutWords is putWords' portable route on its own: one PutUint32 per
// word.
func refPutWords(buf []byte, indices []int32, values []float32) {
	for i, idx := range indices {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(idx))
	}
	for i, val := range values {
		binary.LittleEndian.PutUint32(buf[4*(len(indices)+i):], math.Float32bits(val))
	}
}

// TestKernelsMergeEquivalence pins AddInto to the sum's definition,
// MergeInto to the sort-based selection over it, and the wire encoding
// to per-word little-endian stores.
func TestKernelsMergeEquivalence(t *testing.T) {
	const dim = 512
	a := randomSparse(7, dim, 96, false)
	b := randomSparse(8, dim, 96, true)
	sum, merged := &Vector{}, &Vector{}
	if err := AddInto(sum, a, b); err != nil {
		t.Fatal(err)
	}
	if !vectorsEqualBits(refAdd(a, b), sum) {
		t.Fatal("AddInto differs from the definition")
	}
	if err := MergeInto(merged, a, b, 40); err != nil {
		t.Fatal(err)
	}
	if !vectorsEqualBits(referenceTopKSparse(sum, 40), merged) {
		t.Fatal("MergeInto differs from the sort-based selection")
	}
	want := make([]byte, EncodedSize(sum.NNZ()))
	binary.LittleEndian.PutUint32(want[0:], uint32(sum.Dim))
	binary.LittleEndian.PutUint32(want[4:], uint32(sum.NNZ()))
	refPutWords(want[headerBytes:], sum.Indices, sum.Values)
	if got := EncodeTo(make([]byte, len(want)), sum); !bytes.Equal(want, got) {
		t.Fatal("EncodeTo bytes differ from per-word stores")
	}
}

// checkIndicesAgainstScan asserts checkIndices' quick accept gives the
// full scan's verdict and error text.
func checkIndicesAgainstScan(t *testing.T, label string, indices []int32, dim int) {
	t.Helper()
	msg := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	if got, want := msg(checkIndices(indices, dim)), msg(indexError(indices, dim)); got != want {
		t.Fatalf("%s: checkIndices %q, full scan %q", label, got, want)
	}
}

// TestKernelsValidateEquivalence pins checkIndices' verdicts and error
// text to the full scan's on every malformed shape.
func TestKernelsValidateEquivalence(t *testing.T) {
	cases := [][]int32{
		{0, 3, 7},
		{},
		{-1, 3, 7},
		{0, 3, 8},
		{0, 3, 3},
		{5, 3, 7},
		{0, -2, 7},
		{0, 9, 7},
	}
	for i, idx := range cases {
		checkIndicesAgainstScan(t, fmt.Sprintf("case %d", i), idx, 8)
	}
	// A repeat or a descent at every position of a slice long enough for
	// the four-wide loop and its tail.
	for pos := 1; pos < 11; pos++ {
		for _, step := range []int32{0, -1} {
			idx := []int32{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
			idx[pos] = idx[pos-1] + step
			checkIndicesAgainstScan(t, fmt.Sprintf("pos %d step %d", pos, step), idx, 21)
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

// FuzzKernelsEquiv holds each kernel with a second route to that route on
// arbitrary bit patterns (finite, Inf, NaN): the radix descent to
// quickselect and the branchless emit to the branchy loop (over the
// input tiled past their size gates), the memcpy putWords to per-word
// stores, and checkIndices' quick accept to the full scan. It runs with the candidate path's size gate lowered to
// 1, so the dense selections go through the sampled-threshold path
// wherever k <= n/32, and each is compared with the radix/quickselect
// path alone — the contract that makes the candidate path a pure
// speed-up.
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
		n := len(x)
		k := int(kRaw)%n + 1
		k2 := int(kRaw)%max(n/candMaxShare, 1) + 1 // inside the candidate gate when n >= 32
		setCandMinN(t, 1)
		for _, kk := range []int{k, k2} {
			got := &Vector{}
			TopKInto(got, x, kk)
			if !vectorsEqualBits(fullPathTopK(x, kk), got) {
				t.Fatalf("k=%d: TopKInto with the candidate path differs from the full path", kk)
			}
		}

		tiled := slices.Repeat(x, radixMinN/n+1)
		kt := int(kRaw)*len(tiled)/256 + 1
		checkRadixAgainstQuickselect(t, "tiled", tiled, kt)
		if sv := FromDense(tiled); kt < sv.NNZ() {
			got, want := &Vector{}, &Vector{}
			TopKSparseInto(got, sv, kt)
			refTopK(want, sv.Indices, sv.Values, sv.Dim, kt)
			if !vectorsEqualBits(want, got) {
				t.Fatalf("tiled k=%d: TopKSparseInto differs from the quickselect route and branchy emit", kt)
			}
		}
		checkRadixAgainstQuickselect(t, "raw", x, k)

		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(math.Float32bits(x[i]))
		}
		got, want := make([]byte, 8*n), make([]byte, 8*n)
		putWords(got, idx, x)
		refPutWords(want, idx, x)
		if !bytes.Equal(got, want) {
			t.Fatal("putWords differs from per-word stores")
		}

		asc := FromDense(x).Indices
		repeat := slices.Clone(asc)
		if len(repeat) > 1 {
			j := int(kRaw)%(len(repeat)-1) + 1
			repeat[j] = repeat[j-1]
		}
		for _, dim := range []int{n, k, int(kRaw)} {
			checkIndicesAgainstScan(t, fmt.Sprintf("raw dim=%d", dim), idx, dim)
			checkIndicesAgainstScan(t, fmt.Sprintf("ascending dim=%d", dim), asc, dim)
			checkIndicesAgainstScan(t, fmt.Sprintf("repeat dim=%d", dim), repeat, dim)
		}
	})
}
