package sparse

import (
	"fmt"
	"slices"
	"sync"
)

// This file holds the allocation-free variants of the merge machinery:
// every function writes into caller-owned (usually pooled) destination
// vectors instead of returning fresh ones, so the gTop-k tree's
// per-round merge loop runs without touching the garbage collector.
// The allocating Add/Merge/TopKSparse entry points in sparse.go are thin
// wrappers over these.

// ensureVec resizes v's parallel slices to length n, reusing capacity.
func ensureVec(v *Vector, n int) {
	if cap(v.Indices) < n {
		v.Indices = make([]int32, n)
	} else {
		v.Indices = v.Indices[:n]
	}
	if cap(v.Values) < n {
		v.Values = make([]float32, n)
	} else {
		v.Values = v.Values[:n]
	}
}

// CopyInto overwrites dst with a copy of v, reusing dst's capacity.
func CopyInto(dst, v *Vector) {
	ensureVec(dst, v.NNZ())
	dst.Dim = v.Dim
	copy(dst.Indices, v.Indices)
	copy(dst.Values, v.Values)
}

// AddInto writes the sparse sum a+b into dst, reusing dst's capacity.
// dst must not alias a or b. The result is bit-identical to Add: union
// support in ascending index order, exact zero sums kept.
func AddInto(dst, a, b *Vector) error {
	if a.Dim != b.Dim {
		return fmt.Errorf("%w: %d vs %d", ErrDimension, a.Dim, b.Dim)
	}
	ensureVec(dst, len(a.Indices)+len(b.Indices))
	dst.Dim = a.Dim
	o := mergeAdd(dst.Indices, dst.Values, a, b)
	dst.Indices = dst.Indices[:o]
	dst.Values = dst.Values[:o]
	return nil
}

// TopKSparseInto writes the k largest-magnitude stored entries of v into
// dst, reusing dst's capacity. dst must not alias v. Selection order and
// tie-breaking are identical to TopKSparse.
//
// The selection mirrors the dense TopK: find the k-th largest magnitude
// (kthLargest), then emit winners in one ascending scan. Because stored
// entries are already in ascending index order, the scan yields the
// output pre-sorted AND breaks threshold ties toward the lower dense
// index — no sort of the winners at all.
func TopKSparseInto(dst, v *Vector, k int) {
	n := v.NNZ()
	switch {
	case k <= 0:
		dst.Dim = v.Dim
		dst.Indices = dst.Indices[:0]
		dst.Values = dst.Values[:0]
	case k >= n:
		CopyInto(dst, v)
	default:
		thr, strict := kthLargest(v.Values, k)
		ensureVec(dst, k+1) // emitTopK's slack slot
		dst.Dim = v.Dim
		o := emitTopK(dst.Indices, dst.Values, v.Indices, v.Values, thr, k-strict, k)
		dst.Indices = dst.Indices[:o]
		dst.Values = dst.Values[:o]
	}
}

// MergeInto writes TopK(a+b, k) — the paper's ⊕ operator — into dst,
// reusing dst's capacity. The intermediate sum lives in a pooled scratch
// vector, so a warmed-up steady state performs zero allocations. dst
// must not alias a or b.
func MergeInto(dst, a, b *Vector, k int) error {
	sum := GetVector()
	err := AddInto(sum, a, b)
	if err == nil {
		TopKSparseInto(dst, sum, k)
	}
	PutVector(sum)
	return err
}

// vecPool recycles scratch vectors between merge-heavy call sites (the
// gTop-k tree's ping-pong buffers, MergeInto's intermediate sums).
var vecPool = sync.Pool{New: func() any { return new(Vector) }}

// GetVector returns a pooled scratch vector with unspecified contents;
// callers overwrite it via the *Into functions. Safe for concurrent use
// across goroutines (each Get hands out a distinct vector).
func GetVector() *Vector { return vecPool.Get().(*Vector) }

// PutVector recycles a scratch vector. The caller must hold the only
// live reference; in particular a vector must not be Put while a result
// returned to an API consumer still aliases its slices.
func PutVector(v *Vector) {
	v.Dim = 0
	v.Indices = v.Indices[:0]
	v.Values = v.Values[:0]
	vecPool.Put(v)
}

// Accumulator is a pooled dense scatter-add buffer for summing many
// sparse vectors over the same dimension — the aggregation pattern of
// Algorithm 1's AllGather path. Adding P vectors of k entries costs
// O(P·k) plus one O(u·log u) compaction over the union support u,
// instead of the O(P·k·…) of repeated sparse adds.
//
// The dense buffer and its touch marks are kept all-zero between uses
// (CompactInto and Release both reset only the touched entries), so
// pooling never leaks values across users.
type Accumulator struct {
	dim     int
	dense   []float32
	mark    []bool
	touched []int32
}

var accPool = sync.Pool{New: func() any { return new(Accumulator) }}

// GetAccumulator returns a pooled accumulator over a dim-element dense
// space, growing the pooled buffers when needed.
func GetAccumulator(dim int) *Accumulator {
	a := accPool.Get().(*Accumulator)
	if cap(a.dense) < dim {
		a.dense = make([]float32, dim)
		a.mark = make([]bool, dim)
	}
	a.dense = a.dense[:dim]
	a.mark = a.mark[:dim]
	a.dim = dim
	return a
}

// Add scatter-adds v into the accumulator. Summation order per index
// follows call order, so replaying the same sequence of Adds reproduces
// the same floating-point bits as a chain of sparse Adds.
func (a *Accumulator) Add(v *Vector) error {
	if v.Dim != a.dim {
		return fmt.Errorf("%w: %d vs %d", ErrDimension, v.Dim, a.dim)
	}
	a.touched = scatterAdd(a.dense, a.mark, a.touched, v.Indices, v.Values)
	return nil
}

// CompactInto writes the accumulated sum — every touched index, in
// ascending order, including exact zeros — into dst and resets the
// accumulator for reuse.
func (a *Accumulator) CompactInto(dst *Vector) {
	slices.Sort(a.touched)
	ensureVec(dst, len(a.touched))
	dst.Dim = a.dim
	for i, idx := range a.touched {
		dst.Indices[i] = idx
		dst.Values[i] = a.dense[idx]
	}
	a.reset()
}

// Release resets the accumulator and returns it to the pool.
func (a *Accumulator) Release() {
	a.reset()
	accPool.Put(a)
}

// reset re-zeroes exactly the touched entries (O(touched), not O(dim)).
func (a *Accumulator) reset() {
	for _, idx := range a.touched {
		a.dense[idx] = 0
		a.mark[idx] = false
	}
	a.touched = a.touched[:0]
}
