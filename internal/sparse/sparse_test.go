package sparse

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"gtopkssgd/internal/prng"
)

func randDense(src *prng.Source, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(src.NormFloat64())
	}
	return x
}

func randSparse(src *prng.Source, dim, nnz int) *Vector {
	perm := src.Perm(dim)[:nnz]
	sort.Ints(perm)
	v := &Vector{Dim: dim, Indices: make([]int32, nnz), Values: make([]float32, nnz)}
	for i, p := range perm {
		v.Indices[i] = int32(p)
		v.Values[i] = float32(src.NormFloat64())
		if v.Values[i] == 0 {
			v.Values[i] = 1
		}
	}
	return v
}

// referenceTopK is the obvious O(n log n) specification of magnitude
// top-k with low-index tie break.
func referenceTopK(x []float32, k int) map[int32]float32 {
	type pair struct {
		idx int32
		m   float32
	}
	ps := make([]pair, len(x))
	for i, v := range x {
		m := v
		if m < 0 {
			m = -m
		}
		ps[i] = pair{int32(i), m}
	}
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].m != ps[b].m {
			return ps[a].m > ps[b].m
		}
		return ps[a].idx < ps[b].idx
	})
	if k > len(ps) {
		k = len(ps)
	}
	out := make(map[int32]float32, k)
	for _, p := range ps[:k] {
		out[p.idx] = x[p.idx]
	}
	return out
}

func TestTopKMatchesReference(t *testing.T) {
	bothCandGates(t, func() {
		src := prng.New(1)
		for _, n := range []int{1, 5, 64, 257, 5000} {
			for _, k := range []int{0, 1, 2, n / 100, n / 2, n, n + 3} {
				x := randDense(src, n)
				got := TopK(x, k)
				if err := got.Validate(); err != nil {
					t.Fatalf("n=%d k=%d: invalid result: %v", n, k, err)
				}
				want := referenceTopK(x, k)
				if got.NNZ() != len(want) {
					t.Fatalf("n=%d k=%d: got %d entries, want %d", n, k, got.NNZ(), len(want))
				}
				for i, idx := range got.Indices {
					wv, ok := want[idx]
					if !ok {
						t.Fatalf("n=%d k=%d: unexpected index %d", n, k, idx)
					}
					if got.Values[i] != wv {
						t.Fatalf("n=%d k=%d idx=%d: value %v want %v", n, k, idx, got.Values[i], wv)
					}
				}
			}
		}
	})
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	bothCandGates(t, func() {
		// Five equal magnitudes: selection must pick the lowest indices.
		x := []float32{1, -1, 1, -1, 1}
		got := TopK(x, 2)
		if got.NNZ() != 2 || got.Indices[0] != 0 || got.Indices[1] != 1 {
			t.Fatalf("tie break: got indices %v, want [0 1]", got.Indices)
		}
		// The same rule at a size the candidate path takes: every 16th
		// entry ties at magnitude 1 above a floor of 0.5, and k asks for
		// fewer than there are.
		x = make([]float32, 8192)
		for i := range x {
			x[i] = 0.5
			if i%16 == 7 {
				x[i] = float32(1 - 2*(i/16%2))
			}
		}
		got = TopK(x, 100)
		if got.NNZ() != 100 {
			t.Fatalf("tie break at n=%d: %d entries, want 100", len(x), got.NNZ())
		}
		for i, idx := range got.Indices {
			if want := int32(16*i + 7); idx != want {
				t.Fatalf("tie break at n=%d: entry %d is index %d, want %d", len(x), i, idx, want)
			}
		}
	})
}

func TestTopKZeroVector(t *testing.T) {
	got := TopK(make([]float32, 10), 3)
	if got.NNZ() != 3 {
		// All-zero magnitudes still yield k entries (paper keeps exactly k).
		t.Fatalf("TopK on zero vector: nnz=%d, want 3", got.NNZ())
	}
}

func TestThresholdMatchesSorted(t *testing.T) {
	src := prng.New(4)
	for trial := 0; trial < 50; trial++ {
		n := 1 + src.Intn(200)
		if trial%2 == 1 {
			n += radixMinN // the radix route
		}
		x := randDense(src, n)
		mags := make([]float64, n)
		for i, v := range x {
			mags[i] = math.Abs(float64(v))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(mags)))
		k := 1 + src.Intn(n)
		thr, strict := kthLargest(x, k)
		if float64(thr) != mags[k-1] {
			t.Fatalf("n=%d k=%d: threshold=%v want %v", n, k, thr, mags[k-1])
		}
		if want := sort.Search(n, func(i int) bool { return mags[i] <= mags[k-1] }); strict != want {
			t.Fatalf("n=%d k=%d: strict=%d want %d", n, k, strict, want)
		}
	}
}

func TestAddMatchesDense(t *testing.T) {
	src := prng.New(5)
	for trial := 0; trial < 30; trial++ {
		dim := 20 + src.Intn(100)
		a := randSparse(src, dim, src.Intn(dim))
		b := randSparse(src, dim, src.Intn(dim))
		sum, err := Add(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.Validate(); err != nil {
			t.Fatalf("invalid sum: %v", err)
		}
		da, db, ds := a.Dense(), b.Dense(), sum.Dense()
		for i := range da {
			if want := da[i] + db[i]; ds[i] != want {
				t.Fatalf("trial %d elem %d: %v want %v", trial, i, ds[i], want)
			}
		}
	}
}

func TestAddDimensionMismatch(t *testing.T) {
	_, err := Add(&Vector{Dim: 3}, &Vector{Dim: 4})
	if err == nil {
		t.Fatal("Add with mismatched dims returned nil error")
	}
}

func TestMergeIsTopKOfSum(t *testing.T) {
	src := prng.New(6)
	for trial := 0; trial < 30; trial++ {
		dim := 50
		k := 8
		a := randSparse(src, dim, k)
		b := randSparse(src, dim, k)
		merged, err := Merge(a, b, k)
		if err != nil {
			t.Fatal(err)
		}
		if merged.NNZ() > k {
			t.Fatalf("merge produced %d > k=%d entries", merged.NNZ(), k)
		}
		// Compare against dense reference: top-k of the dense sum restricted
		// to the union support.
		dense := a.Dense()
		for i, v := range b.Dense() {
			dense[i] += v
		}
		want := referenceTopK(dense, k)
		gotDense := merged.Dense()
		for idx, wv := range want {
			if wv != 0 && gotDense[idx] != wv {
				t.Fatalf("trial %d: merged[%d]=%v want %v", trial, idx, gotDense[idx], wv)
			}
		}
	}
}

func TestMergeCommutativeSupport(t *testing.T) {
	src := prng.New(7)
	for trial := 0; trial < 20; trial++ {
		a := randSparse(src, 40, 6)
		b := randSparse(src, 40, 6)
		m1, _ := Merge(a, b, 6)
		m2, _ := Merge(b, a, 6)
		if m1.NNZ() != m2.NNZ() {
			t.Fatalf("⊕ not commutative in size: %d vs %d", m1.NNZ(), m2.NNZ())
		}
		for i := range m1.Indices {
			if m1.Indices[i] != m2.Indices[i] || m1.Values[i] != m2.Values[i] {
				t.Fatalf("⊕ not commutative at %d", i)
			}
		}
	}
}

func TestScatterAddAndScale(t *testing.T) {
	v := &Vector{Dim: 5, Indices: []int32{1, 3}, Values: []float32{2, -4}}
	dst := []float32{1, 1, 1, 1, 1}
	v.ScatterAdd(dst)
	want := []float32{1, 3, 1, -3, 1}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("ScatterAdd = %v, want %v", dst, want)
		}
	}
	v.Scale(0.5)
	if v.Values[0] != 1 || v.Values[1] != -2 {
		t.Fatalf("Scale = %v", v.Values)
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	x := []float32{0, 1, 0, -2, 0, 0, 3}
	v := FromDense(x)
	if v.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", v.NNZ())
	}
	d := v.Dense()
	for i := range x {
		if d[i] != x[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []*Vector{
		{Dim: 5, Indices: []int32{1}, Values: []float32{1, 2}},    // length mismatch
		{Dim: 5, Indices: []int32{5}, Values: []float32{1}},       // out of range
		{Dim: 5, Indices: []int32{-1}, Values: []float32{1}},      // negative
		{Dim: 5, Indices: []int32{2, 2}, Values: []float32{1, 2}}, // duplicate
		{Dim: 5, Indices: []int32{3, 1}, Values: []float32{1, 2}}, // unsorted
	}
	for i, v := range cases {
		if v.Validate() == nil {
			t.Errorf("case %d: Validate accepted corrupt vector", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	src := prng.New(8)
	for trial := 0; trial < 20; trial++ {
		v := randSparse(src, 100, src.Intn(50))
		buf := Encode(v)
		if len(buf) != EncodedSize(v.NNZ()) {
			t.Fatalf("encoded %d bytes, want %d", len(buf), EncodedSize(v.NNZ()))
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dim != v.Dim || got.NNZ() != v.NNZ() {
			t.Fatalf("round trip shape mismatch")
		}
		for i := range v.Indices {
			if got.Indices[i] != v.Indices[i] || got.Values[i] != v.Values[i] {
				t.Fatalf("round trip element %d mismatch", i)
			}
		}
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) accepted")
	}
	if _, err := Decode(make([]byte, 7)); err == nil {
		t.Error("Decode(short) accepted")
	}
	v := &Vector{Dim: 10, Indices: []int32{1, 2}, Values: []float32{1, 2}}
	buf := Encode(v)
	if _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Error("Decode(truncated) accepted")
	}
	// Corrupt an index to be out of range.
	bad := append([]byte(nil), buf...)
	bad[8] = 0xFF
	bad[9] = 0xFF
	bad[10] = 0xFF
	bad[11] = 0x7F
	if _, err := Decode(bad); err == nil {
		t.Error("Decode(corrupt index) accepted")
	}
}

func TestEncodeDecodeDenseRoundTrip(t *testing.T) {
	src := prng.New(9)
	x := randDense(src, 33)
	got, err := DecodeDense(EncodeDense(x))
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("dense round trip mismatch at %d", i)
		}
	}
	if _, err := DecodeDense([]byte{1, 2}); err == nil {
		t.Error("DecodeDense(short) accepted")
	}
	if _, err := DecodeDense(EncodeDense(x)[:10]); err == nil {
		t.Error("DecodeDense(truncated) accepted")
	}
}

// Property: TopK output always validates, has min(k, n) entries, and its
// smallest magnitude is >= the largest magnitude it excluded.
func TestQuickTopKInvariants(t *testing.T) {
	bothCandGates(t, func() { quickTopKInvariants(t) })
}

func quickTopKInvariants(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%128) + 1
		k := int(kRaw % 130)
		if seed%4 == 0 {
			// A quarter of the draws at a shape the candidate path admits
			// once its gate is lowered: k <= n/32.
			n, k = 32*(n+1), k%(n+1)+1
		}
		x := randDense(prng.New(seed), n)
		v := TopK(x, k)
		if v.Validate() != nil {
			return false
		}
		wantNNZ := k
		if wantNNZ > n {
			wantNNZ = n
		}
		if k > 0 && v.NNZ() != wantNNZ {
			return false
		}
		selected := make(map[int32]bool, v.NNZ())
		minSel := float32(math.MaxFloat32)
		for i, idx := range v.Indices {
			selected[idx] = true
			if m := abs32(v.Values[i]); m < minSel {
				minSel = m
			}
		}
		if v.NNZ() == 0 {
			return true
		}
		for i, val := range x {
			if !selected[int32(i)] && abs32(val) > minSel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge result support size <= k and every kept value equals the
// corresponding coordinate of the exact sum.
func TestQuickMergeInvariants(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		src := prng.New(seed)
		dim := 64
		k := int(kRaw%16) + 1
		a := randSparse(src, dim, k)
		b := randSparse(src, dim, k)
		m, err := Merge(a, b, k)
		if err != nil || m.Validate() != nil || m.NNZ() > k {
			return false
		}
		dense := a.Dense()
		for i, v := range b.Dense() {
			dense[i] += v
		}
		for i, idx := range m.Indices {
			if m.Values[i] != dense[idx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: encode/decode is the identity on valid vectors.
func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(seed uint64, nnzRaw uint8) bool {
		src := prng.New(seed)
		nnz := int(nnzRaw % 40)
		v := randSparse(src, 64, nnz)
		got, err := Decode(Encode(v))
		if err != nil || got.Dim != v.Dim || got.NNZ() != v.NNZ() {
			return false
		}
		for i := range v.Indices {
			if got.Indices[i] != v.Indices[i] || got.Values[i] != v.Values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTopK1M(b *testing.B) {
	x := randDense(prng.New(1), 1<<20)
	k := len(x) / 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TopK(x, k)
	}
}
