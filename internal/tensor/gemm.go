package tensor

import (
	"fmt"
	"math"
)

// The three matrix products of a forward/backward pass. They are plain
// scalar Go (the compiler does not vectorise), so what they buy is memory
// traffic and instruction-level parallelism: every element of the larger
// operand — the weight matrix forward, the weight gradient backward — is
// loaded once per call instead of once per batch row, each load/store of
// a destination element carries four multiply-adds, and the dot-product
// form keeps four sums in flight.
//
// All three are exact drop-ins for the textbook loops kept in the tests
// (refMatMul, refMatMulTransA, refMatMulTransB): every destination element
// is built by the same float32 operations in the same order, one
// `t += x*y` statement per term so a fusing target (arm64) contracts each
// of them exactly as it does there. The results are therefore the same
// bits, with the one exception no Go source can close: where the result
// is a NaN it is a NaN in both, but its sign and payload follow the
// operand order of the machine add. dst is overwritten, never accumulated
// into, and must not alias a or b.

// The block of b the accumulate form keeps hot while every destination
// row visits it: gemmTileK rows of gemmTileCols float32, 256 KB. That is
// sized for a second-level cache, not a first-level one: a scalar loop
// consumes about five bytes of b a cycle, which any L2 supplies, while
// long row segments keep the per-coefficient bookkeeping small.
const (
	gemmTileK    = 128 // a power of two (nonzeros masks with it)
	gemmTileCols = 512
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
func MatMulTransA(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch: (%dx%d)T*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	mulAdd(dst, a.Data, 1, a.Cols, b)
}

// mulAdd computes dst[i][j] = Σ_k c(i,k)·b[k][j] over the k with
// c(i,k) != 0, where c(i,k) = coef[i*iStride + k*kStride].
//
// b is cut into gemmTileK × gemmTileCols tiles; for each tile every row
// of dst adds its share before the next tile is touched, so b streams
// through the cache once however many rows dst has. Within a tile a row
// first lists its non-zero coefficients (nonzeros — no data-dependent
// branch, where a ReLU's zeros would mispredict every other one) and then
// applies them four at a time in one pass over the row segment (axpy4),
// the last one to three singly. Tiles advance through k in
// ascending order for a fixed column range, so each element still sees
// its terms in ascending k.
func mulAdd(dst *Matrix, coef []float32, iStride, kStride int, b *Matrix) {
	clear(dst.Data)
	rows, inner, cols := dst.Rows, b.Rows, b.Cols
	var ks [gemmTileK]int32
	for j0 := 0; j0 < cols; j0 += gemmTileCols {
		j1 := min(j0+gemmTileCols, cols)
		for k0 := 0; k0 < inner; k0 += gemmTileK {
			k1 := min(k0+gemmTileK, inner)
			for i := 0; i < rows; i++ {
				d := dst.Data[i*cols+j0 : i*cols+j1]
				c := coef[i*iStride+k0*kStride:]
				n := nonzeros(&ks, c, kStride, k1-k0)
				// term q of this row and tile: coefficient and segment of b.
				term := func(q int) (float32, []float32) {
					k := int(ks[q])
					return c[k*kStride], b.Data[(k0+k)*cols+j0 : (k0+k)*cols+j1]
				}
				q := 0
				for ; q+4 <= n; q += 4 {
					c0, x0 := term(q)
					c1, x1 := term(q + 1)
					c2, x2 := term(q + 2)
					c3, x3 := term(q + 3)
					axpy4(d, c0, x0, c1, x1, c2, x2, c3, x3)
				}
				for ; q < n; q++ {
					c0, x0 := term(q)
					AxpyInto(d, c0, x0)
				}
			}
		}
	}
}

// nonzeros writes to ks, ascending, the k in [0, n) with c[k*stride] != 0
// and returns how many there are; n <= gemmTileK. Shifting the sign bit
// out leaves zero exactly for +0 and -0, so the count advances on the
// same values `v != 0` is true for — NaN included — without a branch.
func nonzeros(ks *[gemmTileK]int32, c []float32, stride, n int) int {
	m := 0
	for k := 0; k < n; k++ {
		ks[m&(gemmTileK-1)] = int32(k)
		bits := math.Float32bits(c[k*stride]) << 1
		m += int((bits | -bits) >> 31)
	}
	return m
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
// and takes s += a[i][k]*b[j][k] for every k ascending, no term skipped.
// Two rows of b are held against two rows of a at a time: four
// independent sums, so no add waits for the one before it, and each
// loaded value feeds two products. (Eight sums spill out of the amd64
// registers the compiler has and run slower than four.) The rows of b
// are the outer loop, so b — the weight matrix — streams once while the
// much smaller a is re-read from cache.
func MatMulTransB(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch: (%dx%d)*(%dx%d)T->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
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
