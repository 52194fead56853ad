package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"gtopkssgd/internal/prng"
)

func randMatrix(src *prng.Source, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(src.NormFloat64())
	}
	return m
}

// naiveMatMul is the O(n^3) reference used to validate the blocked kernels.
func naiveMatMul(a, b *Matrix, transA, transB bool) *Matrix {
	ar, ac := a.Rows, a.Cols
	if transA {
		ar, ac = ac, ar
	}
	br, bc := b.Rows, b.Cols
	if transB {
		br, bc = bc, br
	}
	if ac != br {
		panic("naiveMatMul: shape mismatch")
	}
	out := NewMatrix(ar, bc)
	get := func(m *Matrix, trans bool, i, j int) float32 {
		if trans {
			return m.At(j, i)
		}
		return m.At(i, j)
	}
	for i := 0; i < ar; i++ {
		for j := 0; j < bc; j++ {
			var s float64
			for k := 0; k < ac; k++ {
				s += float64(get(a, transA, i, k)) * float64(get(b, transB, k, j))
			}
			out.Set(i, j, float32(s))
		}
	}
	return out
}

func matricesClose(t *testing.T, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape mismatch: got %dx%d want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Abs(float64(v-want.Data[i])) > tol {
			t.Fatalf("element %d: got %v want %v", i, v, want.Data[i])
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	src := prng.New(1)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 13, 3}, {16, 32, 8}, {33, 17, 29},
	}
	for _, s := range shapes {
		a := randMatrix(src, s.m, s.k)
		b := randMatrix(src, s.k, s.n)
		dst := NewMatrix(s.m, s.n)
		MatMul(dst, a, b)
		matricesClose(t, dst, naiveMatMul(a, b, false, false), 1e-3)
	}
}

func TestMatMulTransBMatchesNaive(t *testing.T) {
	src := prng.New(2)
	a := randMatrix(src, 9, 14)
	b := randMatrix(src, 6, 14)
	dst := NewMatrix(9, 6)
	MatMulTransB(dst, a, b)
	matricesClose(t, dst, naiveMatMul(a, b, false, true), 1e-3)
}

func TestMatMulTransAMatchesNaive(t *testing.T) {
	src := prng.New(3)
	a := randMatrix(src, 14, 9)
	b := randMatrix(src, 14, 6)
	dst := NewMatrix(9, 6)
	MatMulTransA(dst, a, b)
	matricesClose(t, dst, naiveMatMul(a, b, true, false), 1e-3)
}

// refMatMul, refMatMulTransB and refMatMulTransA are the loops the blocked
// kernels replaced, kept verbatim: they define, bit for bit, what MatMul,
// MatMulTransB and MatMulTransA must return.
func refMatMul(dst, a, b *Matrix) {
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			AxpyInto(drow, aik, brow)
		}
	}
}

func refMatMulTransB(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			drow[j] = Dot(arow, b.Row(j))
		}
	}
}

func refMatMulTransA(dst, a, b *Matrix) {
	dst.Zero()
	for r := 0; r < a.Rows; r++ {
		arow := a.Row(r)
		brow := b.Row(r)
		for i := 0; i < a.Cols; i++ {
			ari := arow[i]
			if ari == 0 {
				continue
			}
			AxpyInto(dst.Row(i), ari, brow)
		}
	}
}

// gemmSpecials are the values a product must survive unchanged in its
// bits: both zeros (the skip predicate), denormals, infinities and NaN.
var gemmSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 0x1p-130,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.MaxFloat32,
}

// gemmMatrix is Gaussian with a share of exact zeros (as after a ReLU)
// and a share of gemmSpecials.
func gemmMatrix(src *prng.Source, rows, cols int, zeros, specials float64) *Matrix {
	m := randMatrix(src, rows, cols)
	for i := range m.Data {
		switch u := src.Float64(); {
		case u < zeros:
			m.Data[i] = 0
		case u < zeros+specials:
			m.Data[i] = gemmSpecials[src.Intn(len(gemmSpecials))]
		}
	}
	return m
}

// checkGEMMEquiv runs the three kernels and their references on one
// (m×k)·(k×n) problem, every dst pre-filled with garbage, and compares
// bits. A NaN must be a NaN in the same place, but not the same NaN: whose
// sign and payload an add of two NaNs (or of +Inf and -Inf) yields depends
// on the operand order of the instruction the compiler picked, which Go
// does not define, for the reference loops no more than for the kernels.
func checkGEMMEquiv(t *testing.T, src *prng.Source, m, k, n int, zeros, specials float64) {
	t.Helper()
	garbage := func(rows, cols int) (got, want *Matrix) {
		got, want = NewMatrix(rows, cols), NewMatrix(rows, cols)
		fill(got.Data, float32(math.NaN()))
		fill(want.Data, 12345)
		return got, want
	}
	same := func(name string, got, want *Matrix) {
		t.Helper()
		for i, v := range got.Data {
			if math.Float32bits(v) != math.Float32bits(want.Data[i]) && !(v != v && want.Data[i] != want.Data[i]) {
				t.Fatalf("%s (%dx%dx%d, zeros %v, specials %v): element (%d,%d) = %v (%#08x), reference %v (%#08x)",
					name, m, k, n, zeros, specials, i/max(got.Cols, 1), i%max(got.Cols, 1),
					v, math.Float32bits(v), want.Data[i], math.Float32bits(want.Data[i]))
			}
		}
	}
	a := gemmMatrix(src, m, k, zeros, specials)
	b := gemmMatrix(src, k, n, zeros/4, specials)
	got, want := garbage(m, n)
	MatMul(got, a, b)
	refMatMul(want, a, b)
	same("MatMul", got, want)

	at := gemmMatrix(src, k, m, zeros, specials) // aᵀ·b with a stored k×m
	got, want = garbage(m, n)
	MatMulTransA(got, at, b)
	refMatMulTransA(want, at, b)
	same("MatMulTransA", got, want)

	bt := gemmMatrix(src, n, k, zeros/4, specials) // a·bᵀ with b stored n×k
	got, want = garbage(m, n)
	MatMulTransB(got, a, bt)
	refMatMulTransB(want, a, bt)
	same("MatMulTransB", got, want)
}

// TestGEMMBitIdentical is the wall behind the blocked kernels: over
// every remainder path of the 4-term and 2×2 blocking and both sides of
// each tile edge, with clean, ReLU-like and special-value-laden
// operands, the result is the reference loops' result bit for bit.
func TestGEMMBitIdentical(t *testing.T) {
	src := prng.New(7)
	sizes := []int{0, 1, 2, 3, 5, 16, 17, 127, 128, 129}
	for _, m := range sizes {
		for _, k := range sizes {
			for _, n := range sizes {
				checkGEMMEquiv(t, src, m, k, n, 0.5, 0.02)
			}
		}
	}
	shapes := [][3]int{
		{16, 128, 1024}, {16, 1024, 64}, {64, 27, 8}, // VGG16Sim at batch 16
		{128, 16, 1024}, {1024, 16, 64}, {27, 64, 8}, // ... and its weight gradients
		{3, 2*gemmTileK + 1, 2*gemmTileCols + 3},
	}
	for _, s := range shapes {
		for _, mix := range [][2]float64{{0, 0}, {0.5, 0}, {0.5, 0.01}, {0.97, 0.02}} {
			checkGEMMEquiv(t, src, s[0], s[1], s[2], mix[0], mix[1])
		}
	}
}

// checkGEMMRoutes runs the two backward products of a Dense(in→out)
// layer at one batch — dW = xᵀ·dout (MatMulTransA) and dx = dout·Wᵀ
// (MatMulTransB) — on an input x with a share xZeros of exact zeros, a
// weight matrix W and an output gradient dout with a share doutZeros of
// zeros (as after a ReLU), each with a share of gemmSpecials. It asserts
// which route each product takes — the one the operands' zero counts and
// finiteness call for — and compares the product with its reference bit
// for bit; when every operand is finite it also runs every route of each
// product directly against the reference, so a route is checked whether
// or not the dispatcher picks it. It returns the routes taken.
func checkGEMMRoutes(t *testing.T, src *prng.Source, batch, in, out int, xZeros, doutZeros, specials float64) (route int, skip bool) {
	t.Helper()
	x := gemmMatrix(src, batch, in, xZeros, specials)
	w := gemmMatrix(src, in, out, 0, specials)
	dout := gemmMatrix(src, batch, out, doutZeros, specials)
	finite := func(m *Matrix) bool {
		for _, v := range m.Data {
			if math.IsInf(float64(v), 0) || v != v {
				return false
			}
		}
		return true
	}
	nonzero := func(m *Matrix) int {
		n := 0
		for _, v := range m.Data {
			if v != 0 {
				n++
			}
		}
		return n
	}
	allFin := finite(x) && finite(w) && finite(dout)
	nz := nonzero(dout)
	route, skip = transARoute(x, dout), transBSkips(dout, w)
	wantRoute := transAFromA
	if finite(x) && finite(dout) && 5*nz < 3*len(dout.Data) {
		wantRoute = transAOuter
		if in*out <= transTile {
			wantRoute = transATile
		}
	}
	if route != wantRoute {
		t.Fatalf("MatMulTransA (%dx%dx%d, dout %d of %d non-zero, x and dout finite %v): route %d, want %d",
			batch, in, out, nz, len(dout.Data), finite(x) && finite(dout), route, wantRoute)
	}
	if want := finite(w) && 2*nz <= len(dout.Data); skip != want {
		t.Fatalf("MatMulTransB (%dx%dx%d, dout %d of %d non-zero, W finite %v): skip route %v, want %v",
			batch, in, out, nz, len(dout.Data), finite(w), skip, want)
	}
	same := func(name string, got, want *Matrix) {
		t.Helper()
		for i, v := range got.Data {
			if math.Float32bits(v) != math.Float32bits(want.Data[i]) && !(v != v && want.Data[i] != want.Data[i]) {
				t.Fatalf("%s (batch %d, %d→%d, zeros %v/%v, specials %v): element %d = %v (%#08x), reference %v (%#08x)",
					name, batch, in, out, xZeros, doutZeros, specials, i,
					v, math.Float32bits(v), want.Data[i], math.Float32bits(want.Data[i]))
			}
		}
	}
	run := func(name string, product func(dst *Matrix), ref *Matrix) {
		t.Helper()
		got := NewMatrix(ref.Rows, ref.Cols)
		fill(got.Data, float32(math.NaN()))
		product(got)
		same(name, got, ref)
	}
	refA := NewMatrix(in, out)
	refMatMulTransA(refA, x, dout)
	run("MatMulTransA", func(dst *Matrix) { MatMulTransA(dst, x, dout) }, refA)
	refB := NewMatrix(batch, in)
	refMatMulTransB(refB, dout, w)
	run("MatMulTransB", func(dst *Matrix) { MatMulTransB(dst, dout, w) }, refB)
	if allFin {
		run("outerAdd", func(dst *Matrix) { outerAdd(dst, x, dout) }, refA)
		run("mulAdd (TransA)", func(dst *Matrix) { mulAdd(dst, x.Data, 1, x.Cols, dout) }, refA)
		if in*out <= transTile {
			run("mulAddT", func(dst *Matrix) { mulAddT(dst, x, dout) }, refA)
		}
		run("transBSparse", func(dst *Matrix) { transBSparse(dst, dout, w) }, refB)
		run("transBDense", func(dst *Matrix) { transBDense(dst, dout, w) }, refB)
	}
	return route, skip
}

// TestGEMMRoutesBitIdentical is the wall behind the backward products'
// zero-skipping routes: with finite operands and output gradients as
// sparse as VGG16Sim's (54 % zeros at the 1024-wide layer, 82 % at the
// 64-wide one, and nearly all), over the remainder paths of the 4-wide
// blocking, the edges of the listing runs (transBChunk, transBRows,
// len(nzList)) and the model's own backward shapes, each route is the
// reference loop bit for bit, and every route of both products is
// taken.
func TestGEMMRoutesBitIdentical(t *testing.T) {
	src := prng.New(11)
	taken := map[string]int{}
	count := func(route int, skip bool) {
		taken[fmt.Sprintf("route=%d", route)]++
		taken[fmt.Sprintf("skip=%v", skip)]++
	}
	sizes := []int{1, 3, 5, 17, 128, 129}
	for _, batch := range sizes {
		for _, in := range sizes {
			for _, out := range sizes {
				for _, z := range []float64{0.54, 0.82, 0.97} {
					count(checkGEMMRoutes(t, src, batch, in, out, 0.5, z, 0))
				}
			}
		}
	}
	shapes := []struct {
		batch, in, out int
		xZeros         float64
	}{
		{16, 128, 1024, 0.25}, {16, 1024, 64, 0.56}, {16, 64, 10, 0.82}, // VGG16Sim's Dense layers at batch 16
		{64, 27, 8, 0}, // one sample of its convolution
		{17, len(nzList{}) + 1, transBChunk + 3, 0.3}, // past one listing run each way
	}
	for _, s := range shapes {
		for _, z := range []float64{0, 0.3, 0.54, 0.82, 0.97} {
			count(checkGEMMRoutes(t, src, s.batch, s.in, s.out, s.xZeros, z, 0))
		}
		// Special values: checkGEMMRoutes asserts that a non-finite
		// operand sends a product down the reference's own route.
		route, skip := checkGEMMRoutes(t, src, s.batch, s.in, s.out, s.xZeros, 0.82, 0.02)
		if route == transAFromA {
			taken["route=0 with specials"]++
		}
		if !skip {
			taken["skip=false with specials"]++
		}
	}
	for _, route := range []string{"route=0", "route=1", "route=2", "skip=true", "skip=false",
		"route=0 with specials", "skip=false with specials"} {
		if taken[route] == 0 {
			t.Errorf("no case took route %s: %v", route, taken)
		}
	}
}

// TestAllFinite holds the word-at-a-time finite gate to math.IsInf and
// IsNaN: every special value at every position of short slices, at both
// alignments of the first element.
func TestAllFinite(t *testing.T) {
	buf := make([]float32, 12)
	for _, special := range gemmSpecials {
		for off := 0; off < 2; off++ {
			for n := 0; n <= len(buf)-off; n++ {
				for at := -1; at < n; at++ {
					x := buf[off : off+n]
					fill(x, 1.5)
					if at >= 0 {
						x[at] = special
					}
					want := at < 0 || !(math.IsInf(float64(special), 0) || special != special)
					if got := allFinite(x); got != want {
						t.Fatalf("allFinite(len %d, offset %d, %v at %d) = %v, want %v", n, off, special, at, got, want)
					}
				}
			}
		}
	}
}

// FuzzGEMMEquiv lets the fuzzer pick the shape, the operands' seed, the
// share of zeros and where a few special values land; each input also
// drives the backward products' routes (checkGEMMRoutes).
func FuzzGEMMEquiv(f *testing.F) {
	f.Add(uint8(16), uint8(128), uint16(1024), uint64(1), uint8(128), uint8(2))
	f.Add(uint8(5), uint8(3), uint16(7), uint64(2), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(255), uint16(513), uint64(3), uint8(250), uint8(40))
	// Zero-heavy output gradients: VGG16Sim's dense1, dense2 and conv.
	f.Add(uint8(16), uint8(128), uint16(1024), uint64(4), uint8(138), uint8(0))
	f.Add(uint8(16), uint8(255), uint16(64), uint64(5), uint8(210), uint8(0))
	f.Add(uint8(64), uint8(27), uint16(8), uint64(6), uint8(248), uint8(0))
	f.Add(uint8(16), uint8(64), uint16(10), uint64(7), uint8(210), uint8(3))
	f.Fuzz(func(t *testing.T, m, k uint8, n uint16, seed uint64, zeros, specials uint8) {
		checkGEMMEquiv(t, prng.New(seed), int(m), int(k), int(n%1100),
			float64(zeros)/256, float64(specials)/1024)
		// The backward products of a Dense(k→n) layer at batch m, dout
		// with the chosen share of zeros and x with half of it.
		checkGEMMRoutes(t, prng.New(^seed), int(m), int(k), int(n%1100),
			float64(zeros)/512, float64(zeros)/256, float64(specials)/1024)
	})
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with mismatched shapes did not panic")
		}
	}()
	MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(4, 2))
}

func TestAddBiasRows(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	AddBiasRows(m, []float32{10, 20, 30})
	want := []float32{11, 22, 33, 14, 25, 36}
	for i, v := range m.Data {
		if v != want[i] {
			t.Fatalf("element %d: got %v want %v", i, v, want[i])
		}
	}
}

func TestSumRowsInto(t *testing.T) {
	m := FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6})
	dst := make([]float32, 2)
	SumRowsInto(dst, m)
	if dst[0] != 9 || dst[1] != 12 {
		t.Fatalf("SumRowsInto = %v, want [9 12]", dst)
	}
}

func TestDotAxpyScale(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	dst := []float32{1, 1, 1}
	AxpyInto(dst, 2, a)
	if dst[0] != 3 || dst[1] != 5 || dst[2] != 7 {
		t.Fatalf("AxpyInto = %v, want [3 5 7]", dst)
	}
	Scale(dst, 0.5)
	if dst[0] != 1.5 || dst[1] != 2.5 || dst[2] != 3.5 {
		t.Fatalf("Scale = %v", dst)
	}
}

func TestAddInto(t *testing.T) {
	dst := []float32{1, 2, 3}
	AddInto(dst, []float32{1, 1, 1})
	if dst[0] != 2 || dst[1] != 3 || dst[2] != 4 {
		t.Fatalf("AddInto = %v, want [2 3 4]", dst)
	}
}

func TestNormsAndStats(t *testing.T) {
	x := []float32{3, -4}
	if got := L2Norm(x); math.Abs(got-5) > 1e-9 {
		t.Fatalf("L2Norm = %v, want 5", got)
	}
	if got := ArgMax([]float32{0, 9, 2}); got != 1 {
		t.Fatalf("ArgMax = %v, want 1", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Fatalf("ArgMax(nil) = %v, want -1", got)
	}
}

func TestClip(t *testing.T) {
	x := []float32{-10, -0.5, 0.5, 10}
	Clip(x, 1)
	want := []float32{-1, -0.5, 0.5, 1}
	for i, v := range x {
		if v != want[i] {
			t.Fatalf("Clip = %v, want %v", x, want)
		}
	}
}

// TestClipAxpyAtMatchesDense holds the one-pass update to Clip followed
// by AxpyInto over its dense scatter, bit for bit: −0 weights outside and
// inside the support, clipped and unclipped values, and limit 0. A nil
// at runs the same pass over a dense x, and panics when x is not as
// long as dst. Neither form writes x.
func TestClipAxpyAtMatchesDense(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	at := []int32{0, 2, 5, 6}
	unchanged := func(label string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: x[%d] became %v, was %v", label, i, got[i], want[i])
			}
		}
	}
	for _, limit := range []float32{0, 0.5} {
		values := []float32{3, -0.25, negZero, -7}
		given := append([]float32(nil), values...)
		weights := []float32{negZero, 1, negZero, 2, 3, 4, 5, 6}
		dense := make([]float32, len(weights))
		for j, i := range at {
			dense[i] = values[j]
		}
		want := append([]float32(nil), weights...)
		if limit > 0 {
			Clip(dense, limit)
		}
		AxpyInto(want, -0.1, dense)
		ClipAxpyAt(weights, -0.1, values, at, limit)
		for i := range want {
			if math.Float32bits(weights[i]) != math.Float32bits(want[i]) {
				t.Fatalf("limit %v: weights[%d] = %v, dense passes give %v", limit, i, weights[i], want[i])
			}
		}
		unchanged(fmt.Sprintf("limit %v", limit), values, given)
		// A nil at takes x as dense: the same pass, over all of it.
		x := []float32{3, negZero, -0.25, 0, 1e-3, negZero, -7, 0.5}
		given = append([]float32(nil), x...)
		clipped := append([]float32(nil), x...)
		if limit > 0 {
			Clip(clipped, limit)
		}
		want = []float32{negZero, 1, negZero, 2, 3, 4, 5, 6}
		weights = append([]float32(nil), want...)
		AxpyInto(want, -0.1, clipped)
		ClipAxpyAt(weights, -0.1, x, nil, limit)
		for i := range want {
			if math.Float32bits(weights[i]) != math.Float32bits(want[i]) {
				t.Fatalf("limit %v, dense: weights[%d] = %v, dense passes give %v", limit, i, weights[i], want[i])
			}
		}
		unchanged(fmt.Sprintf("limit %v, dense", limit), x, given)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ClipAxpyAt applied a 3-entry dense vector to 4 weights")
		}
	}()
	ClipAxpyAt(make([]float32, 4), 1, make([]float32, 3), nil, 0)
}

func TestCloneIsDeep(t *testing.T) {
	m := FromSlice(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestQuickDotSymmetric(t *testing.T) {
	f := func(raw []float32) bool {
		a := raw
		b := make([]float32, len(a))
		for i := range b {
			b[i] = a[len(a)-1-i]
		}
		d1, d2 := Dot(a, b), Dot(b, a)
		return d1 == d2 || (math.IsNaN(float64(d1)) && math.IsNaN(float64(d2)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAxpyLinearity(t *testing.T) {
	// (dst + a*x) + b*x == dst + (a+b)*x up to float error.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		src := prng.New(seed)
		x := make([]float32, n)
		base := make([]float32, n)
		for i := range x {
			x[i] = float32(src.NormFloat64())
			base[i] = float32(src.NormFloat64())
		}
		alpha, beta := float32(0.25), float32(0.5)
		lhs := append([]float32(nil), base...)
		AxpyInto(lhs, alpha, x)
		AxpyInto(lhs, beta, x)
		rhs := append([]float32(nil), base...)
		AxpyInto(rhs, alpha+beta, x)
		for i := range lhs {
			if math.Abs(float64(lhs[i]-rhs[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGEMM times the three GEMMs at the shapes one VGG16Sim step
// at batch 16 runs them: dense1 and dense2 are Dense(128→1024) and
// Dense(1024→64) (x·W forward, xᵀ·dout and dout·Wᵀ backward), conv is one
// sample of the 3×3 convolution after im2col. The operands carry the
// exact-zero shares VGG16Sim's backward pass sees. The post-ReLU output
// gradients, dout, are 54 % zeros at dense1 and 82 % at dense2, as
// measured on the model-overlap benchmark workload (seed 42). The inputs
// x — 25 % zeros at dense1 (a max-pool of a ReLU), 56 % at dense2 — and
// the convolution's dout, 82 %, are from 200 single-rank steps of
// VGG16Sim on that workload's data (seed 42, batch 16, SGD at 0.05); the
// convolution's input, an image, has none. Zeros sit at random
// positions, so the listing loops see no pattern a branch predictor could
// learn. Bytes per op are the three matrices touched once.
func BenchmarkGEMM(b *testing.B) {
	shapes := []struct {
		name              string
		batch, in, out    int
		xZeros, doutZeros float64
	}{
		{"dense1", 16, 128, 1024, 0.25, 0.54},
		{"dense2", 16, 1024, 64, 0.56, 0.82},
		{"conv", 64, 27, 8, 0, 0.82},
	}
	for _, s := range shapes {
		src := prng.New(1)
		x := gemmMatrix(src, s.batch, s.in, s.xZeros, 0)
		w := randMatrix(src, s.in, s.out)
		dout := gemmMatrix(src, s.batch, s.out, s.doutZeros, 0)
		kernels := []struct {
			name      string
			run       func(dst, a, b *Matrix)
			dst, a, b *Matrix
		}{
			{"MatMul", MatMul, NewMatrix(s.batch, s.out), x, w},
			{"TransA", MatMulTransA, NewMatrix(s.in, s.out), x, dout},
			{"TransB", MatMulTransB, NewMatrix(s.batch, s.in), dout, w},
		}
		for _, k := range kernels {
			b.Run(k.name+"/"+s.name, func(b *testing.B) {
				b.SetBytes(int64(4 * (len(k.dst.Data) + len(k.a.Data) + len(k.b.Data))))
				for i := 0; i < b.N; i++ {
					k.run(k.dst, k.a, k.b)
				}
			})
		}
	}
}

// fill sets every element of x to v.
func fill(x []float32, v float32) {
	for i := range x {
		x[i] = v
	}
}
