// Package tensor implements the dense float32 linear algebra used by the
// neural-network substrate: flat vectors for parameters/gradients and a
// row-major matrix type with cache-blocked multiplication.
//
// The paper trains with 32-bit floats ("All models are trained with 32-bit
// floating points", Table III), so the element type here is float32;
// reductions that feed metrics accumulate in float64 to avoid drift.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float32.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMatrix(%d, %d): negative dimension", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows x cols matrix. It inlines
// (the panic is kept out of line for that), so a header that goes no
// further than a call into this package stays on the caller's stack —
// which nn/models' TestForwardBackwardAllocCeiling relies on.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panicFromSlice(rows, cols, len(data))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

//go:noinline
func panicFromSlice(rows, cols, n int) {
	panic(fmt.Sprintf("tensor: FromSlice(%d, %d) with %d elements", rows, cols, n))
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() { clear(m.Data) }

// AddBiasRows adds bias to every row of m in place.
func AddBiasRows(m *Matrix, bias []float32) {
	if len(bias) != m.Cols {
		panic(fmt.Sprintf("tensor: AddBiasRows: %d columns, %d bias terms", m.Cols, len(bias)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, b := range bias {
			row[j] += b
		}
	}
}

// SumRowsInto accumulates the column-wise sum of m into dst (dst += Σ rows).
func SumRowsInto(dst []float32, m *Matrix) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: SumRowsInto: %d columns, %d dst terms", m.Cols, len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}

// Dot returns the inner product of a and b (same length required).
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch: %d vs %d", len(a), len(b)))
	}
	var s float32
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AxpyInto computes dst += alpha * x element-wise.
func AxpyInto(dst []float32, alpha float32, x []float32) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: AxpyInto length mismatch: %d vs %d", len(dst), len(x)))
	}
	for i, v := range x {
		dst[i] += float32(alpha * v) // rounded apart: no fused multiply-add
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(x []float32, alpha float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// AddInto computes dst += x element-wise.
func AddInto(dst, x []float32) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: AddInto length mismatch: %d vs %d", len(dst), len(x)))
	}
	for i, v := range x {
		dst[i] += v
	}
}

// L2Norm returns the Euclidean norm of x, accumulated in float64.
func L2Norm(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// ArgMax returns the index of the largest element of x (-1 for empty x).
func ArgMax(x []float32) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// Clamp bounds v to [-limit, limit]; limit <= 0 disables the bound and
// returns v.
func Clamp(v, limit float32) float32 {
	if limit > 0 && v > limit {
		return limit
	}
	if limit > 0 && v < -limit {
		return -limit
	}
	return v
}

// ClipAxpyAt applies a compact vector — x[j] at position at[j] — in one
// pass: dst[at[j]] += alpha*Clamp(x[j], limit); x itself is not written.
// Every position outside at would receive w + alpha*0, which is w, so
// dst ends bit-identical to clamping every element of the dense scatter
// and then AxpyInto over it. A nil at means x is dense — x[j] belongs to position j — and
// len(x) must equal len(dst).
func ClipAxpyAt(dst []float32, alpha float32, x []float32, at []int32, limit float32) {
	if at == nil && len(x) != len(dst) || at != nil && len(at) != len(x) {
		panic(fmt.Sprintf("tensor: ClipAxpyAt length mismatch: %d values, %d positions, %d weights", len(x), len(at), len(dst)))
	}
	if at == nil {
		for i, v := range x {
			dst[i] += float32(alpha * Clamp(v, limit)) // rounded apart: no fused multiply-add
		}
		return
	}
	for j, i := range at {
		dst[i] += float32(alpha * Clamp(x[j], limit)) // rounded apart: no fused multiply-add
	}
}
