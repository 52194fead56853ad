package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
)

// floorPair times kernel and floor b.N times each and reports both
// per-call times and their ratio as x-floor (internal/sparse's floor
// benchmarks explain the pairing).
func floorPair(b *testing.B, kernel, floor func()) {
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for range b.N {
		kernel()
	}
	kt := time.Since(start)
	start = time.Now()
	for range b.N {
		floor()
	}
	ft := time.Since(start)
	b.ReportMetric(float64(kt.Nanoseconds())/float64(b.N), "kernel-ns")
	b.ReportMetric(float64(ft.Nanoseconds())/float64(b.N), "floor-ns")
	b.ReportMetric(float64(kt)/float64(ft), "x-floor")
}

// settleRound is comm-tcp's settle at one rank: a local selection of
// k = 2 000 of dim 10⁵ whose sent values sit off the selected ones by a
// lattice rounding, and a global support of the same size that keeps
// every other local index and 1 000 indices from elsewhere.
func settleRound() (local *sparse.Vector, orig []float32, global []int32) {
	const dim, k = 100_000, 2000
	src := prng.New(21)
	grad := make([]float32, dim)
	for i := range grad {
		grad[i] = float32(src.NormFloat64())
	}
	local = &sparse.Vector{}
	sparse.TopKInto(local, grad, k)
	orig = slices.Clone(local.Values)
	for i, v := range local.Values {
		local.Values[i] = float32(math.Round(float64(v)*64) / 64)
	}
	for i := 0; i < k; i += 2 {
		global = append(global, local.Indices[i])
	}
	for len(global) < k {
		if idx := int32(src.Uint64() % dim); !slices.Contains(local.Indices, idx) && !slices.Contains(global, idx) {
			global = append(global, idx)
		}
	}
	slices.Sort(global)
	return local, orig, global
}

// BenchmarkFloorSettle is the round's one settle pass beside a loop that
// reads the selection's indices, sent and original values and the global
// support once and writes one residual word per selected entry.
func BenchmarkFloorSettle(b *testing.B) {
	local, orig, global := settleRound()
	sp := NewSparsifier(local.Dim)
	floorPair(b, func() { sp.Settle(local, orig, global) }, func() {
		for i, idx := range local.Indices {
			sp.residual[idx] = orig[i] - local.Values[i] + float32(global[i])
		}
	})
}
