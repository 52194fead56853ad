package sparse

import (
	"fmt"
	"testing"

	"gtopkssgd/internal/prng"
)

// Benchmarks for the aggregation hot path's primitive operations. All of
// them report allocations: the merge-side primitives (DecodeView,
// MergeInto via pooled scratch) must stay at zero in steady state.

func benchVector(seed uint64, dim, nnz int) *Vector {
	src := prng.New(seed)
	g := make([]float32, dim)
	for i := range g {
		g[i] = float32(src.NormFloat64())
	}
	return TopK(g, nnz)
}

func BenchmarkTopKSparse(b *testing.B) {
	v := benchVector(1, 100_000, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TopKSparse(v, 1000)
	}
}

func BenchmarkTopKSparseInto(b *testing.B) {
	v := benchVector(1, 100_000, 2000)
	dst := &Vector{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopKSparseInto(dst, v, 1000)
	}
}

func BenchmarkEncode(b *testing.B) {
	v := benchVector(2, 100_000, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PutBuffer(Encode(v))
	}
}

func BenchmarkDecode(b *testing.B) {
	v := benchVector(3, 100_000, 1000)
	buf := Encode(v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeView(b *testing.B) {
	v := benchVector(3, 100_000, 1000)
	buf := Encode(v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeView(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	x := benchVector(4, 100_000, 1000)
	y := benchVector(5, 100_000, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Merge(x, y, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergeInto(b *testing.B) {
	x := benchVector(4, 100_000, 1000)
	y := benchVector(5, 100_000, 1000)
	dst := &Vector{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MergeInto(dst, x, y, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeRoundFromWire is the full receive-side unit of one tree
// round: encode (stands in for the inbound frame), decode-free view,
// bounded add, top-k re-selection, frame release. Steady state must be
// allocation-free (TestMergeLoopZeroAlloc asserts exactly that).
func BenchmarkMergeRoundFromWire(b *testing.B) {
	x := benchVector(6, 100_000, 1000)
	y := benchVector(7, 100_000, 1000)
	sum := &Vector{}
	cur := &Vector{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := EncodeSlices(y.Dim, y.Indices, y.Values)
		view, err := DecodeView(buf)
		if err != nil {
			b.Fatal(err)
		}
		if err := AddInto(sum, x, &view); err != nil {
			b.Fatal(err)
		}
		TopKSparseInto(cur, sum, 1000)
		PutBuffer(buf)
	}
}

func BenchmarkAccumulator(b *testing.B) {
	const p = 8
	vecs := make([]*Vector, p)
	for r := range vecs {
		vecs[r] = benchVector(uint64(10+r), 100_000, 1000)
	}
	acc := GetAccumulator(100_000)
	defer acc.Release()
	sum := &Vector{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vecs {
			if err := acc.Add(v); err != nil {
				b.Fatal(err)
			}
		}
		acc.CompactInto(sum)
	}
}

// BenchmarkShardSelector is the sharded selection engine's micro
// evidence (ROADMAP 5(c)): the concurrent path at 1, 2 and 4 shards over
// one Gaussian vector of 128 x minShardElems, so all four shards are
// effective, selecting dim/1000 like BenchmarkTopK1M. A shard count
// above the free cores cannot win; compare across -cpu settings.
func BenchmarkShardSelector(b *testing.B) {
	x := randDense(prng.New(1), 128*minShardElems)
	k := len(x) / 1000
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sel := NewShardSelector(shards)
			dst := &Vector{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel.TopKInto(dst, x, k)
			}
		})
	}
}

// benchKernelModes runs one benchmark body under each available kernel
// mode (fast first when the build has it), restoring the prior mode.
// This is the per-kernel fast-vs-pure comparison harness: identical
// inputs, identical outputs (pinned by the kernels_test equivalence
// suite), only the implementation differs.
func benchKernelModes(b *testing.B, run func(b *testing.B)) {
	modes := []string{KernelsPure}
	if FastKernelsAvailable() {
		modes = []string{KernelsFast, KernelsPure}
	}
	prev := Kernels()
	defer func() {
		if err := SetKernels(prev); err != nil {
			b.Fatal(err)
		}
	}()
	for _, mode := range modes {
		b.Run(mode, func(b *testing.B) {
			if err := SetKernels(mode); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			run(b)
		})
	}
}

// BenchmarkKernelThreshold isolates the magnitude-fill + quickselect
// kernels (absInto, partitionGreater) on a dense 100k-element input.
func BenchmarkKernelThreshold(b *testing.B) {
	src := prng.New(21)
	x := make([]float32, 100_000)
	for i := range x {
		x[i] = float32(src.NormFloat64())
	}
	benchKernelModes(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Threshold(x, 100)
		}
	})
}

// BenchmarkKernelTopKSparseInto covers the full sparse re-selection unit
// (absInto + partitionGreater + countGreater + emit scan).
func BenchmarkKernelTopKSparseInto(b *testing.B) {
	v := benchVector(22, 100_000, 2000)
	dst := &Vector{}
	benchKernelModes(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			TopKSparseInto(dst, v, 1000)
		}
	})
}

// BenchmarkKernelAddInto isolates the sorted-merge kernel (mergeAdd).
func BenchmarkKernelAddInto(b *testing.B) {
	x := benchVector(23, 100_000, 1000)
	y := benchVector(24, 100_000, 1000)
	dst := &Vector{}
	benchKernelModes(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := AddInto(dst, x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKernelScatterAdd isolates the dense scatter-add kernel behind
// Accumulator.Add (P=8 rounds like the AllGather aggregation path).
func BenchmarkKernelScatterAdd(b *testing.B) {
	const p = 8
	vecs := make([]*Vector, p)
	for r := range vecs {
		vecs[r] = benchVector(uint64(30+r), 100_000, 1000)
	}
	acc := GetAccumulator(100_000)
	defer acc.Release()
	sum := &Vector{}
	benchKernelModes(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range vecs {
				if err := acc.Add(v); err != nil {
					b.Fatal(err)
				}
			}
			acc.CompactInto(sum)
		}
	})
}

// BenchmarkKernelEncode isolates the wire word-move kernel (putWords:
// two memcpys in fast mode, per-element PutUint32 loops in pure mode).
func BenchmarkKernelEncode(b *testing.B) {
	v := benchVector(25, 100_000, 1000)
	buf := make([]byte, EncodedSize(v.NNZ()))
	benchKernelModes(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = EncodeTo(buf, v)
		}
	})
}

// BenchmarkKernelValidate isolates the index-validation kernel
// (checkIndices: one compare per element in fast mode on valid input).
func BenchmarkKernelValidate(b *testing.B) {
	v := benchVector(26, 100_000, 1000)
	benchKernelModes(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := v.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
