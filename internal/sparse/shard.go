package sparse

import (
	"runtime"
	"sync"
)

// This file is the parallel sharded selection engine: the paper's
// T_sparsify term is a dense top-k over the full residual every
// iteration, which the serial path runs on one goroutine no matter how
// many cores the worker has. The engine splits the dense vector into
// contiguous per-core shards, runs the existing threshold-quickselect
// per shard concurrently, and merges the shard winners into the EXACT
// global top-k — bit-identical to the serial selection for every shard
// count.
//
// Why the merge is exact: any entry of the global top-k is, within its
// shard, among that shard's top-k under the same (magnitude desc, index
// asc) priority — if a shard's tie-quota dropped it, the shard already
// holds k entries that all outrank it globally, contradicting its global
// selection. A shard shorter than k contributes every entry (zeros
// included: with a zero global threshold they are legal tie-fillers).
// The union of shard winners therefore contains the global top-k, and
// re-selecting k of the union — candidates concatenate in ascending
// index order, so TopKSparseInto applies the identical tie rule — yields
// exactly the serial result.

// minShardElems is the smallest per-shard span worth a goroutine: below
// this the handoff costs more than the parallel quickselect saves, so
// the engine degrades toward fewer (or one) shards. Results never depend
// on the effective shard count.
const minShardElems = 1 << 15

// ShardSelector runs exact dense top-k selection over per-core shards.
// A selector owns reusable per-shard scratch; it is NOT safe for
// concurrent use (one selector per goroutine — e.g. per bucket of the
// bucketed pipeline), though independent selectors may run concurrently.
type ShardSelector struct {
	shards int
	parts  []Vector
	cand   Vector
}

// NewShardSelector creates a selector with the given shard count;
// shards < 1 selects GOMAXPROCS (one shard per schedulable core).
func NewShardSelector(shards int) *ShardSelector {
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	return &ShardSelector{shards: shards, parts: make([]Vector, shards)}
}

// TopK is TopKInto into a fresh vector.
func (s *ShardSelector) TopK(x []float32, k int) *Vector {
	out := &Vector{}
	s.TopKInto(out, x, k)
	return out
}

// TopKInto writes the k largest-magnitude entries of x into dst —
// bit-identical to sparse.TopKInto(dst, x, k) for every shard count.
func (s *ShardSelector) TopKInto(dst *Vector, x []float32, k int) {
	n := len(x)
	shards := s.shards
	if max := n / minShardElems; shards > max {
		shards = max
	}
	if shards <= 1 || k <= 0 || k >= n {
		TopKInto(dst, x, k)
		return
	}

	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		lo, hi := i*n/shards, (i+1)*n/shards
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			s.runShard(i, lo, hi, x, k)
		}(i, lo, hi)
	}
	wg.Wait()

	// Concatenate shard winners — ascending within each shard, shards in
	// index order, so the union is globally ascending — and re-select.
	total := 0
	for i := 0; i < shards; i++ {
		total += s.parts[i].NNZ()
	}
	ensureVec(&s.cand, total)
	s.cand.Dim = n
	o := 0
	for i := 0; i < shards; i++ {
		o += copy(s.cand.Indices[o:], s.parts[i].Indices)
	}
	o = 0
	for i := 0; i < shards; i++ {
		o += copy(s.cand.Values[o:], s.parts[i].Values)
	}
	TopKSparseInto(dst, &s.cand, k)
}

// runShard selects shard i's candidates — the existing threshold-
// quickselect over x[lo:hi] with indices rebased to the global space.
func (s *ShardSelector) runShard(i, lo, hi int, x []float32, k int) {
	part := &s.parts[i]
	if shardLen := hi - lo; k >= shardLen {
		// Short shard: every entry is a candidate, zeros included
		// (they can fill a zero-threshold global tie quota).
		ensureVec(part, shardLen)
		for j := 0; j < shardLen; j++ {
			part.Indices[j] = int32(lo + j)
			part.Values[j] = x[lo+j]
		}
	} else {
		TopKInto(part, x[lo:hi], k)
		for j := range part.Indices {
			part.Indices[j] += int32(lo)
		}
	}
	part.Dim = len(x)
}
