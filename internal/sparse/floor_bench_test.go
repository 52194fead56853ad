package sparse

import (
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// The floor benchmarks time a hot kernel beside a bare loop that moves
// the same bytes — reads each input byte or word once, writes each
// output word once, and decides nothing — and report kernel/floor as
// x-floor, so a kernel states its distance from what its memory traffic
// alone costs. Run them with
//
//	go test ./internal/sparse ./internal/core -run '^$' -bench Floor -count 5
//
// and read the spread across the five: single runs on a shared box move
// by tens of percent.

// floorPair times kernel and floor b.N times each and reports both
// per-call times and their ratio.
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

// floorFrame is comm-tcp's hop at one rank: k = 2 000 of dim 10⁵, with
// the levels a QSGD transform would give its values (scale the largest
// magnitude, each magnitude rounded to the nearest of 255 steps).
func floorFrame() (v *Vector, scale float32, levels []int16) {
	v = benchVector(11, 100_000, 2000)
	for _, x := range v.Values {
		scale = max(scale, abs32(x))
	}
	levels = make([]int16, v.NNZ())
	for i, x := range v.Values {
		levels[i] = int16(abs32(x)/scale*255 + 0.5)
		if x < 0 {
			levels[i] = -levels[i]
		}
	}
	return v, scale, levels
}

// foldBytes reads b once, eight bytes at a time.
func foldBytes(b []byte) uint64 {
	var w uint64
	for ; len(b) >= 8; b = b[8:] {
		w ^= binary.LittleEndian.Uint64(b)
	}
	for _, c := range b {
		w ^= uint64(c)
	}
	return w
}

// fillBytes writes b once, eight bytes at a time.
func fillBytes(b []byte, w uint64) {
	for ; len(b) >= 8; b = b[8:] {
		binary.LittleEndian.PutUint64(b, w)
	}
	for i := range b {
		b[i] = byte(w)
	}
}

// floorDecode reads frame once and writes one index and one value word
// per entry.
func floorDecode(frame []byte, indices []int32, values []float32) {
	w := uint32(foldBytes(frame))
	for i := range indices {
		indices[i], values[i] = int32(w), math.Float32frombits(w)
	}
}

// floorEncode reads one index and one value or level per entry and
// writes each frame byte once.
func floorEncode[T int16 | float32](frame []byte, indices []int32, values []T) {
	var w uint32
	for i, idx := range indices {
		w ^= uint32(idx) ^ uint32(values[i])
	}
	fillBytes(frame, uint64(w))
}

// BenchmarkFloorDecodeV3 is DecodeV3Into of one comm-tcp hop (qsgd8)
// and of its lossless v3 twin (fp32).
func BenchmarkFloorDecodeV3(b *testing.B) {
	v, scale, levels := floorFrame()
	for _, c := range []Codec{CodecV3Q8, CodecV3} {
		b.Run(c.Value().String(), func(b *testing.B) {
			frame := EncodeSlicesV3(c, v.Dim, v.Indices, v.Values, scale, levels)
			dst := &Vector{}
			indices, values := make([]int32, v.NNZ()), make([]float32, v.NNZ())
			floorPair(b, func() {
				if err := DecodeV3Into(dst, frame); err != nil {
					b.Fatal(err)
				}
			}, func() { floorDecode(frame, indices, values) })
		})
	}
}

// BenchmarkFloorEncodeV3 is EncodeSlicesV3 of the same hop.
func BenchmarkFloorEncodeV3(b *testing.B) {
	v, scale, levels := floorFrame()
	for _, c := range []Codec{CodecV3Q8, CodecV3} {
		b.Run(c.Value().String(), func(b *testing.B) {
			frame := EncodeSlicesV3(c, v.Dim, v.Indices, v.Values, scale, levels)
			out := make([]byte, len(frame))
			floor := func() { floorEncode(out, v.Indices, levels) }
			if c == CodecV3 {
				floor = func() { floorEncode(out, v.Indices, v.Values) }
			}
			floorPair(b, func() {
				PutBuffer(EncodeSlicesV3(c, v.Dim, v.Indices, v.Values, scale, levels))
			}, floor)
		})
	}
}

// BenchmarkFloorTopKSparse is the select at the size of comm-tcp's folds
// and candidate path: the top 2 000 of 3 800 sparse entries.
func BenchmarkFloorTopKSparse(b *testing.B) {
	const k = 2000
	v := benchVector(12, 100_000, 3800)
	dst := &Vector{}
	indices, values := make([]int32, k), make([]float32, k)
	floorPair(b, func() { TopKSparseInto(dst, v, k) }, func() {
		var w uint32
		for i, x := range v.Values {
			w ^= uint32(v.Indices[i]) ^ math.Float32bits(x)
		}
		for i := range indices {
			indices[i], values[i] = int32(w), math.Float32frombits(w)
		}
	})
}
