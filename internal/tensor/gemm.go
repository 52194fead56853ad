package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// The three matrix products of a forward/backward pass. They are plain
// scalar Go (the compiler does not vectorise), so what they buy is memory
// traffic, instruction-level parallelism and skipped work: every element
// of the larger operand — the weight matrix forward, the weight gradient
// backward — is loaded once per call instead of once per batch row, each
// listed coefficient feeds four multiply-adds, the dot-product forms keep
// four sums in flight, and a term with an exact-zero factor (as after a
// ReLU) is not computed where that is exact.
//
// Which operand each product reads its coefficients from, and so whose
// zeros it skips:
//   - MatMul (x·W) reads them from a, the layer input.
//   - MatMulTransA (dW = xᵀ·dout) reads them from a, the layer input. When
//     two fifths or more of b, the output gradient, is zero, it reads them
//     from both and adds one outer product per batch row over the non-zero
//     entries of each (outerAdd) — or, for a dst small enough for one stack
//     tile (a convolution's weight gradient for one sample), from b alone,
//     writing the tile back transposed (mulAddT).
//   - MatMulTransB (dx = dout·Wᵀ) sums every term; when half or more of a,
//     the output gradient, is zero, it reads its coefficients from a and
//     dots only a's non-zero entries against the rows of b (transBSparse).
//
// All three are exact drop-ins for the textbook loops kept in the tests
// (refMatMul, refMatMulTransA, refMatMulTransB): every destination element
// is built by the same float32 operations in the same order, one
// `t += x*y` statement per term so a fusing target (arm64) contracts each
// of them exactly as it does there. Where a route's terms differ from the
// reference's — it skips a term the reference takes, or takes one the
// reference skips — that term has an exact-zero factor, and the +0
// argument makes it harmless: every destination sum starts at +0, and a
// round-to-nearest add yields −0 only from two −0 operands, so the sum is
// never −0 and adding a ±0 term leaves it as it is. Such a term is ±0
// only when its other factor is finite, so those routes run only behind
// the finite gate: one scan of each operand such a zero could meet
// (allFinite reads two floats per word) finds no Inf or NaN, or the
// product takes the reference's own route. The results are therefore the
// same bits, with the one exception no Go source can close: where the
// result is a NaN it is a NaN in both, but its sign and payload follow
// the operand order of the machine add. dst is overwritten, never
// accumulated into, and must not alias a or b.
//
// The fastest product is the one not computed: by the first-layer rule
// (see nn.Network) a network's first layer builds no input gradient, so
// its dout·Wᵀ never runs.

// The block of b the accumulate form keeps hot while every destination
// row visits it: gemmTileK rows of gemmTileCols float32, 256 KB. That is
// sized for a second-level cache, not a first-level one: a scalar loop
// consumes about five bytes of b a cycle, which any L2 supplies, while
// long row segments keep the per-coefficient bookkeeping small.
const (
	gemmTileK    = 128 // a power of two, at most len(nzList)
	gemmTileCols = 512
)

// nzList holds the positions of the non-zero entries of one run of
// coefficients: up to gemmTileK of them for addTerms, up to transBChunk
// for transBSparse and outerAdd. Its length is a power of two (nonzeros
// masks with it).
type nzList [transBChunk]int32

// transBSparse lists the non-zero coefficients of transBRows rows of a,
// transBChunk columns at a time — 16 KB of positions on the stack — and
// dots them against four rows of b, 4 KB, that stay in the first-level
// cache meanwhile.
const (
	transBChunk = 256
	transBRows  = 16
)

// MatMul computes dst = a·b; dst must have shape (a.Rows, b.Cols).
//
// Contract: dst[i][j] starts at +0 and takes t += a[i][k]*b[k][j] for k
// ascending over exactly the k with a[i][k] != 0 — zeros of either sign
// are skipped (so a NaN or Inf in the skipped row of b does not reach
// dst), NaN coefficients are not. See mulAdd for the blocking.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch: (%dx%d)*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	mulAdd(dst, a.Data, a.Cols, 1, b)
}

// MatMulTransA computes dst = aᵀ·b; dst must have shape (a.Cols, b.Cols).
//
// Contract: dst[i][j] starts at +0 and takes t += a[r][i]*b[r][j] for r
// ascending over exactly the r with a[r][i] != 0 (same predicate as
// MatMul). It is MatMul's loop reading its coefficients down a column of
// a: the output row is outermost within a tile, so a row of the weight
// gradient is written once while the batch's rows of b stay in cache.
// When both operands are finite and b's zeros save enough, it skips them
// too (transARoute picks outerAdd or mulAddT) — the same bits, as the
// package comment argues.
func MatMulTransA(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch: (%dx%d)T*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	switch transARoute(a, b) {
	case transAOuter:
		outerAdd(dst, a, b)
	case transATile:
		mulAddT(dst, a, b)
	default:
		mulAdd(dst, a.Data, 1, a.Cols, b)
	}
}

// The routes of MatMulTransA.
const (
	transAFromA = iota // mulAdd: coefficients from a
	transAOuter        // outerAdd: the zeros of a and b skipped
	transATile         // mulAddT: coefficients from b, dstᵀ in one tile
)

// transTile is the most elements dst may have for mulAddT, which builds
// all of dstᵀ in a stack tile this size (16 KB).
const transTile = 4096

// transARoute picks MatMulTransA's route. Reading coefficients from b
// drops terms the reference takes, so it needs both operands finite, and
// it pays from two fifths of b zero on. Counted in multiply-adds, mulAdd
// does nnz(a)·b.Cols and outerAdd Σ_r nnz(a.Row(r))·nnz(b.Row(r)), about
// nnz(a)·nnz(b)/b.Rows; a scattered multiply-add costs about 5/3 of one
// of mulAdd's (measured at VGG16Sim's dense1 shape, where the two tie at
// two fifths of b zero), so outerAdd pays when 5·nnz(b) < 3·len(b),
// whatever a holds. A dst small enough for one tile — a convolution's
// weight gradient for one sample — goes to mulAddT instead: its rows are
// long and its scattered rows would be short (VGG16Sim's convolution:
// 3.5 against 10 µs for outerAdd and 15 for mulAdd).
func transARoute(a, b *Matrix) int {
	switch {
	case 5*nonzeroCount(b.Data) >= 3*len(b.Data) || !allFinite(b.Data) || !allFinite(a.Data):
		return transAFromA
	case a.Cols*b.Cols <= transTile:
		return transATile
	}
	return transAOuter
}

// mulAdd computes dst[i][j] = Σ_k c(i,k)·b[k][j] over the k with
// c(i,k) != 0, where c(i,k) = coef[i*iStride + k*kStride].
//
// b is cut into gemmTileK × gemmTileCols tiles; for each tile every row
// of dst adds its share (addTerms) before the next tile is touched, so b
// streams through the cache once however many rows dst has. Tiles
// advance through k in ascending order for a fixed column range, so each
// element still sees its terms in ascending k.
func mulAdd(dst *Matrix, coef []float32, iStride, kStride int, b *Matrix) {
	clear(dst.Data)
	rows, inner, cols := dst.Rows, b.Rows, b.Cols
	var ks nzList
	for j0 := 0; j0 < cols; j0 += gemmTileCols {
		j1 := min(j0+gemmTileCols, cols)
		for k0 := 0; k0 < inner; k0 += gemmTileK {
			k1 := min(k0+gemmTileK, inner)
			for i := 0; i < rows; i++ {
				addTerms(dst.Data[i*cols+j0:i*cols+j1], &ks,
					coef[i*iStride+k0*kStride:], kStride, k1-k0, b.Data[k0*cols+j0:], cols)
			}
		}
	}
}

// mulAddT computes dst = aᵀ·b, at most transTile elements, with its
// coefficients read down the columns of b: row j of dstᵀ is
// Σ_r b[r][j]·a.Row(r) over the r with b[r][j] != 0, built in a stack tile
// by addTerms and written back transposed once. The product
// b[r][j]·a[r][i] is the reference's a[r][i]·b[r][j] with its factors
// swapped, which an IEEE multiply (or a fused multiply-add) does not see.
func mulAddT(dst, a, b *Matrix) {
	inner, rows, cols := a.Rows, a.Cols, b.Cols
	var ks nzList
	var tile [transTile]float32 // dstᵀ: cols rows of rows floats, starting at +0
	for k0 := 0; k0 < inner; k0 += gemmTileK {
		k1 := min(k0+gemmTileK, inner)
		for j := 0; j < cols; j++ {
			addTerms(tile[j*rows:(j+1)*rows], &ks, b.Data[k0*cols+j:], cols, k1-k0, a.Data[k0*rows:], rows)
		}
	}
	for i := 0; i < rows; i++ {
		d := dst.Data[i*cols : (i+1)*cols]
		for j := range d {
			d[j] = tile[j*rows+i]
		}
	}
}

// outerAdd computes dst = aᵀ·b as a sum of outer products, one per row
// r of a and b taken in ascending order, each restricted to the i with
// a[r][i] != 0 and the j with b[r][j] != 0: dst[i][j] += a[r][i]*b[r][j].
// Each element thus takes its terms in ascending r, as in the reference.
// For each r both lists of positions are built once (a run of
// len(nzList) at a time); scatter4 then applies the j list to four listed
// rows of dst at a time.
func outerAdd(dst, a, b *Matrix) {
	clear(dst.Data)
	var is, js nzList
	rows, cols := a.Cols, b.Cols
	for r := 0; r < a.Rows; r++ {
		for j0 := 0; j0 < cols; j0 += len(js) {
			y := b.Row(r)[j0:min(j0+len(js), cols)]
			nj := nonzeros(&js, y, 1, len(y))
			if nj == 0 {
				continue
			}
			for i0 := 0; i0 < rows; i0 += len(is) {
				x := a.Row(r)[i0:min(i0+len(is), rows)]
				ni := nonzeros(&is, x, 1, len(x))
				// listed row q of this run: its coefficient and its segment of dst.
				row := func(q int) (float32, []float32) {
					i := i0 + int(is[q])
					return x[i-i0], dst.Data[i*cols+j0 : i*cols+j0+len(y)]
				}
				q := 0
				for ; q+4 <= ni; q += 4 {
					c0, d0 := row(q)
					c1, d1 := row(q + 1)
					c2, d2 := row(q + 2)
					c3, d3 := row(q + 3)
					scatter4(js[:nj], y, c0, d0, c1, d1, c2, d2, c3, d3)
				}
				for ; q < ni; q++ {
					c0, d0 := row(q)
					for _, j := range js[:nj] {
						d0[j] += c0 * y[j]
					}
				}
			}
		}
	}
}

// scatter4 adds cN*y[j] to dN[j] for N = 0..3 at every j listed in js.
// The one range check per j proves every load and store in bounds.
func scatter4(js []int32, y []float32, c0 float32, d0 []float32, c1 float32, d1 []float32, c2 float32, d2 []float32, c3 float32, d3 []float32) {
	y, d1, d2, d3 = y[:len(d0)], d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	for _, j := range js {
		j := int(j)
		if uint(j) >= uint(len(d0)) {
			panic("tensor: listed position out of range")
		}
		v := y[j]
		d0[j] += c0 * v
		d1[j] += c1 * v
		d2[j] += c2 * v
		d3[j] += c3 * v
	}
}

// addTerms adds to d the terms c[k*kStride]·x[k*xStride:][:len(d)] for
// the k in [0, n) with c[k*kStride] != 0, ascending; n <= gemmTileK.
// It first lists the non-zero coefficients (nonzeros — no data-dependent
// branch, where a ReLU's zeros would mispredict every other one) and
// then applies them four at a time in one pass over d (axpy4), the last
// one to three singly.
func addTerms(d []float32, ks *nzList, c []float32, kStride, n int, x []float32, xStride int) {
	m := nonzeros(ks, c, kStride, n)
	// term q: its coefficient and its segment of x.
	term := func(q int) (float32, []float32) {
		k := int(ks[q])
		return c[k*kStride], x[k*xStride : k*xStride+len(d)]
	}
	q := 0
	for ; q+4 <= m; q += 4 {
		c0, x0 := term(q)
		c1, x1 := term(q + 1)
		c2, x2 := term(q + 2)
		c3, x3 := term(q + 3)
		axpy4(d, c0, x0, c1, x1, c2, x2, c3, x3)
	}
	for ; q < m; q++ {
		c0, x0 := term(q)
		AxpyInto(d, c0, x0)
	}
}

// nonzeros writes to ks, ascending, the k in [0, n) with c[k*stride] != 0
// and returns how many there are; n <= len(ks). Shifting the sign bit
// out leaves zero exactly for +0 and -0, so the count advances on the
// same values `v != 0` is true for — NaN included — without a branch.
func nonzeros(ks *nzList, c []float32, stride, n int) int {
	m := 0
	for k := 0; k < n; k++ {
		ks[m&(len(ks)-1)] = int32(k)
		bits := math.Float32bits(c[k*stride]) << 1
		m += int((bits | -bits) >> 31)
	}
	return m
}

// nonzeroCount returns how many elements of x are not ±0 (NaN counts),
// with nonzeros' test.
func nonzeroCount(x []float32) int {
	n := 0
	for _, v := range x {
		bits := math.Float32bits(v) << 1
		n += int((bits | -bits) >> 31)
	}
	return n
}

// allFinite reports whether x holds no Inf or NaN. An exponent of all
// ones — Inf or NaN — is the one that carries into the float's top bit
// when a one is added below it; the test runs on two floats per 64-bit
// word, whose lanes, masked to their exponents, cannot carry into each
// other, and it is the same in either byte order. It is the finite gate
// on a whole weight matrix, so it reads four words per step; the first
// float is taken on its own when it would leave the words misaligned.
func allFinite(x []float32) bool {
	const exps, ones = 0x7f800000_7f800000, 0x00800000_00800000
	var carry uint64
	if len(x) > 0 && uintptr(unsafe.Pointer(&x[0]))%8 != 0 {
		carry = uint64(math.Float32bits(x[0]))&exps + ones
		x = x[1:]
	}
	if len(x)%2 == 1 {
		carry |= uint64(math.Float32bits(x[len(x)-1]))&exps + ones
	}
	if len(x) < 2 {
		return carry&0x80000000_80000000 == 0
	}
	w := unsafe.Slice((*uint64)(unsafe.Pointer(&x[0])), len(x)/2)
	for ; len(w) >= 4; w = w[4:] {
		carry |= (w[0]&exps + ones) | (w[1]&exps + ones) | (w[2]&exps + ones) | (w[3]&exps + ones)
	}
	for _, v := range w {
		carry |= v&exps + ones
	}
	return carry&0x80000000_80000000 == 0
}

// axpy4 is four AxpyInto calls in sequence with one load and one store
// of each d[j]: d += c0*x0, then c1*x1, c2*x2, c3*x3, each product
// rounded into the running sum before the next.
func axpy4(d []float32, c0 float32, x0 []float32, c1 float32, x1 []float32, c2 float32, x2 []float32, c3 float32, x3 []float32) {
	x0, x1, x2, x3 = x0[:len(d)], x1[:len(d)], x2[:len(d)], x3[:len(d)]
	for j, t := range d {
		t += c0 * x0[j]
		t += c1 * x1[j]
		t += c2 * x2[j]
		t += c3 * x3[j]
		d[j] = t
	}
}

// MatMulTransB computes dst = a·bᵀ; dst must have shape (a.Rows, b.Rows).
//
// Contract: dst[i][j] = Dot(a.Row(i), b.Row(j)) — a sum that starts at +0
// and takes s += a[i][k]*b[j][k] for every k ascending. When half or
// more of a is ±0 and b is finite (transBSkips), the terms with
// a[i][k] == ±0 are left out (transBSparse) — the same bits, as the
// package comment argues; otherwise no term is skipped (transBDense).
func MatMulTransB(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch: (%dx%d)*(%dx%d)T->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if transBSkips(a, b) {
		transBSparse(dst, a, b)
		return
	}
	transBDense(dst, a, b)
}

// transBSkips reports whether MatMulTransB skips a's zeros: exact only
// when b is finite, and worth it from half of a zero on — a listed term
// costs about 5/3 of one of the dense 2×2 loop, and the finite gate reads
// all of b (measured at VGG16Sim's dense1 shape).
func transBSkips(a, b *Matrix) bool {
	return 2*nonzeroCount(a.Data) <= len(a.Data) && allFinite(b.Data)
}

// transBSparse lists the positions of the non-zero coefficients of up
// to transBRows rows of a, transBChunk columns at a time, and dots each
// list against four rows of b at a time (dot4At): four independent sums,
// each listed coefficient and position feeding four products. The four
// row segments of b stay in the first-level cache while every listed row
// of a visits them, so b streams through once for each group of rows. A
// row with nothing listed costs only its listing. Sums carry over in dst
// from one run of columns to the next.
func transBSparse(dst, a, b *Matrix) {
	m, n, inner := a.Rows, b.Rows, a.Cols
	clear(dst.Data)
	var lists [transBRows]nzList
	var counts [transBRows]int
	for k0 := 0; k0 < inner; k0 += transBChunk {
		k1 := min(k0+transBChunk, inner)
		seg := func(j int) []float32 { return b.Data[j*inner+k0 : j*inner+k1] }
		for i0 := 0; i0 < m; i0 += transBRows {
			rows := min(transBRows, m-i0)
			for r := 0; r < rows; r++ {
				c := a.Data[(i0+r)*inner+k0 : (i0+r)*inner+k1]
				counts[r] = nonzeros(&lists[r], c, 1, len(c))
			}
			j := 0
			for ; j+4 <= n; j += 4 {
				y0, y1, y2, y3 := seg(j), seg(j+1), seg(j+2), seg(j+3)
				for r := 0; r < rows; r++ {
					if counts[r] == 0 {
						continue
					}
					i := i0 + r
					d := dst.Data[i*n+j : i*n+j+4]
					d[0], d[1], d[2], d[3] = dot4At(d[0], d[1], d[2], d[3], lists[r][:counts[r]],
						a.Data[i*inner+k0:i*inner+k1], y0, y1, y2, y3)
				}
			}
			for ; j < n; j++ {
				for r := 0; r < rows; r++ {
					i := i0 + r
					dst.Data[i*n+j] = dotAt(dst.Data[i*n+j], lists[r][:counts[r]], a.Data[i*inner+k0:i*inner+k1], seg(j))
				}
			}
		}
	}
}

// dot4At continues the sums sJ += c[k]*yJ[k] over the k listed in ks,
// ascending. The one range check per k proves every load in bounds.
func dot4At(s0, s1, s2, s3 float32, ks []int32, c, y0, y1, y2, y3 []float32) (float32, float32, float32, float32) {
	c, y1, y2, y3 = c[:len(y0)], y1[:len(y0)], y2[:len(y0)], y3[:len(y0)]
	for _, k := range ks {
		k := int(k)
		if uint(k) >= uint(len(y0)) {
			panic("tensor: listed coefficient out of range")
		}
		v := c[k]
		s0 += v * y0[k]
		s1 += v * y1[k]
		s2 += v * y2[k]
		s3 += v * y3[k]
	}
	return s0, s1, s2, s3
}

// dotAt continues the sum s += c[k]*y[k] over the k listed in ks.
func dotAt(s float32, ks []int32, c, y []float32) float32 {
	c = c[:len(y)]
	for _, k := range ks {
		s += c[k] * y[k]
	}
	return s
}

// transBDense holds two rows of b against two rows of a at a time: four
// independent sums, so no add waits for the one before it, and each
// loaded value feeds two products. (Eight sums spill out of the amd64
// registers the compiler has and run slower than four.) The rows of b
// are the outer loop, so b — the weight matrix — streams once while the
// much smaller a is re-read from cache.
func transBDense(dst, a, b *Matrix) {
	m, n := a.Rows, b.Rows
	j := 0
	for ; j+2 <= n; j += 2 {
		b0, b1 := b.Row(j), b.Row(j+1)
		i := 0
		for ; i+2 <= m; i += 2 {
			d0, d1 := dst.Data[i*n+j:i*n+j+2], dst.Data[(i+1)*n+j:(i+1)*n+j+2]
			d0[0], d0[1], d1[0], d1[1] = dot2x2(a.Row(i), a.Row(i+1), b0, b1)
		}
		if i < m {
			dst.Data[i*n+j], dst.Data[i*n+j+1] = Dot(a.Row(i), b0), Dot(a.Row(i), b1)
		}
	}
	if j < n {
		bj := b.Row(j)
		for i := 0; i < m; i++ {
			dst.Data[i*n+j] = Dot(a.Row(i), bj)
		}
	}
}

// dot2x2 returns the four inner products of {x0, x1} with {y0, y1}
// (sIJ = Dot(xI, yJ)), each summed in index order on its own.
func dot2x2(x0, x1, y0, y1 []float32) (s00, s01, s10, s11 float32) {
	x1, y0, y1 = x1[:len(x0)], y0[:len(x0)], y1[:len(x0)]
	for k, u := range x0 {
		v := x1[k]
		w := y0[k]
		s00 += u * w
		s10 += v * w
		w = y1[k]
		s01 += u * w
		s11 += v * w
	}
	return
}
