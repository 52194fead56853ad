// Package sparse implements the sparse-gradient machinery of the paper:
// magnitude top-k selection over dense gradient vectors, the compact
// [values, indices] representation exchanged between workers, and the
// Top-k merge operator "⊕" of Definition 1 used by gTopKAllReduce.
//
// Conventions follow the paper: for a model with m parameters and density
// ρ, k = ρ·m gradients survive selection; everything else stays in the
// worker-local residual (error feedback), handled by package core.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Vector is a sparse view of a length-Dim dense vector: Values[i] lives at
// dense position Indices[i]. Indices are unique and kept in ascending
// order by every constructor in this package (ascending order makes the
// merge in Add a linear scan and wire encodings canonical).
type Vector struct {
	Dim     int
	Indices []int32
	Values  []float32
}

// ErrDimension reports incompatible dense dimensions in a binary operation.
var ErrDimension = errors.New("sparse: dimension mismatch")

// NNZ returns the number of stored (non-zero) entries.
func (v *Vector) NNZ() int { return len(v.Indices) }

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	return &Vector{
		Dim:     v.Dim,
		Indices: append([]int32(nil), v.Indices...),
		Values:  append([]float32(nil), v.Values...),
	}
}

// Validate checks the structural invariants (sorted unique in-range
// indices, parallel slices) and returns a descriptive error on violation.
func (v *Vector) Validate() error {
	if len(v.Indices) != len(v.Values) {
		return fmt.Errorf("sparse: %d indices but %d values", len(v.Indices), len(v.Values))
	}
	return checkIndices(v.Indices, v.Dim)
}

// Dense scatters v into a freshly allocated dense vector.
func (v *Vector) Dense() []float32 {
	out := make([]float32, v.Dim)
	for i, idx := range v.Indices {
		out[idx] = v.Values[i]
	}
	return out
}

// ScatterAdd adds v into dst (len(dst) must equal v.Dim).
func (v *Vector) ScatterAdd(dst []float32) {
	if len(dst) != v.Dim {
		panic(fmt.Sprintf("sparse: ScatterAdd into %d-dim buffer, vector dim %d", len(dst), v.Dim))
	}
	for i, idx := range v.Indices {
		dst[idx] += v.Values[i]
	}
}

// MeanInto overwrites dst with v/p: zero, scatter-add, then scale the
// whole buffer — the dense reference the tests hold the sparse
// aggregators' mean (taken at the k global entries) and MeanIntoSparse
// to. That order is a bit-level contract: a −0 entry becomes +0 here,
// which writing v·(1/p) straight into a zeroed dst would not reproduce.
func (v *Vector) MeanInto(dst []float32, p int) {
	clear(dst)
	v.ScatterAdd(dst)
	inv := 1 / float32(p)
	for i := range dst {
		dst[i] *= inv
	}
}

// MeanIntoSparse is MeanInto in O(nnz) for a dst the caller keeps zero
// outside prev, the support the previous call on dst returned: it zeroes
// dst at prev, writes (0 + v)·(1/p) at v's indices — the additions and
// the multiplication MeanInto performs there, so a −0 entry still becomes
// +0 — and returns v's support, copied into prev's storage. Everywhere
// else dst holds the +0 that MeanInto's 0·(1/p) would leave.
func (v *Vector) MeanIntoSparse(dst []float32, p int, prev []int32) []int32 {
	if len(dst) != v.Dim {
		panic(fmt.Sprintf("sparse: MeanIntoSparse into %d-dim buffer, vector dim %d", len(dst), v.Dim))
	}
	for _, idx := range prev {
		dst[idx] = 0
	}
	inv := 1 / float32(p)
	for i, idx := range v.Indices {
		dst[idx] = (0 + v.Values[i]) * inv
	}
	return append(prev[:0], v.Indices...)
}

// Scale multiplies every stored value by alpha in place.
func (v *Vector) Scale(alpha float32) {
	for i := range v.Values {
		v.Values[i] *= alpha
	}
}

// FromDense collects the non-zero entries of x into a sparse vector.
func FromDense(x []float32) *Vector {
	v := &Vector{Dim: len(x)}
	for i, val := range x {
		if val != 0 {
			v.Indices = append(v.Indices, int32(i))
			v.Values = append(v.Values, val)
		}
	}
	return v
}

// Add returns the sparse sum a+b. The result's support is the union of the
// operand supports; exact zero sums are kept (their index was touched, and
// gTop-k treats "sent" and "zero" differently only via magnitude, so a
// zero sum simply never survives a subsequent TopK). Hot paths use
// AddInto, which this wraps.
func Add(a, b *Vector) (*Vector, error) {
	out := &Vector{}
	if err := AddInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// Merge implements the paper's Definition 1: the Top-k operator ⊕ over
// two sparse vectors. It returns TopK(a+b, k): the k largest-magnitude
// entries of the element-wise sum (fewer if the union support is smaller).
// Hot paths use MergeInto, which this wraps.
func Merge(a, b *Vector, k int) (*Vector, error) {
	out := &Vector{}
	if err := MergeInto(out, a, b, k); err != nil {
		return nil, err
	}
	return out, nil
}

// TopK selects the k largest-magnitude entries of the dense vector x.
// Ties at the threshold magnitude are broken by lower dense index so the
// result is deterministic across workers (essential: all replicas must
// make identical selections from identical inputs).
//
// This is exactly Algorithm 1 lines 5-7 of the paper: find the k-th
// largest |x_i|, then mask everything below it in one ascending scan —
// which also yields the indices pre-sorted. Large sparse selections first
// narrow x to the few entries above a sampled threshold (candidates.go)
// and run the same two steps over those; the result is the same bits.
func TopK(x []float32, k int) *Vector {
	out := &Vector{}
	TopKInto(out, x, k)
	return out
}

// TopKInto is TopK writing into a caller-owned destination, reusing its
// capacity. Selection order and tie-breaking are identical to TopK.
func TopKInto(dst *Vector, x []float32, k int) {
	dst.Dim = len(x)
	if k <= 0 {
		dst.Indices = dst.Indices[:0]
		dst.Values = dst.Values[:0]
		return
	}
	if k >= len(x) {
		// All non-zero entries survive (FromDense semantics).
		ensureVec(dst, len(x))
		o := 0
		for i, v := range x {
			if v != 0 {
				dst.Indices[o] = int32(i)
				dst.Values[o] = v
				o++
			}
		}
		dst.Indices = dst.Indices[:o]
		dst.Values = dst.Values[:o]
		return
	}
	if topKCandidates(dst, x, k) {
		return
	}
	// The full selection: the k-th largest magnitude and the count of
	// strict winners above it; the remaining tie quota goes to the
	// lowest-index entries at the threshold.
	thr, strict := kthLargest(x, k)
	ensureVec(dst, k)
	o := emitTopK(dst.Indices, dst.Values, nil, x, thr, k-strict, k)
	dst.Indices = dst.Indices[:o]
	dst.Values = dst.Values[:o]
}

// TopKSparse selects the k largest-magnitude stored entries of v. Hot
// paths use TopKSparseInto, which this wraps.
func TopKSparse(v *Vector, k int) *Vector {
	out := &Vector{}
	TopKSparseInto(out, v, k)
	return out
}

// Scratch pool for kthLargest's quickselect route, which partitions a
// magnitude copy in place. The pool is safe for the concurrent
// per-bucket selections of the bucketed aggregation pipeline.
var magScratch = sync.Pool{New: func() any { return new([]float32) }}

func getMagScratch(n int) *[]float32 {
	sp := magScratch.Get().(*[]float32)
	if cap(*sp) < n {
		*sp = make([]float32, n)
	}
	*sp = (*sp)[:n]
	return sp
}

// selectKthLargest returns the k-th largest element of mags, reordering
// mags freely (callers pass pooled scratch). Expected O(n) quickselect
// over plain float32s, swapping values directly instead of going through
// position indirection — kthLargest's route for small or NaN input.
func selectKthLargest(mags []float32, k int) float32 {
	lo, hi, want := 0, len(mags)-1, k-1
	state := uint64(0x9e3779b97f4a7c15)
	for lo < hi {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		p := lo + int(state%uint64(hi-lo+1))
		pivot := mags[p]
		mags[p], mags[hi] = mags[hi], mags[p]
		store := partitionGreater(mags, lo, hi, pivot)
		mags[store], mags[hi] = mags[hi], mags[store]
		switch {
		case store == want:
			return mags[store]
		case store < want:
			lo = store + 1
		default:
			hi = store - 1
		}
	}
	return mags[lo]
}

// abs32 is mask-abs: clearing the sign bit, branch-free, is |v| for
// every float32 including -0 and NaN payloads — the same sign-bit clear
// the radix descent applies to the bit patterns, so both routes of
// kthLargest see the same magnitudes.
func abs32(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
}
