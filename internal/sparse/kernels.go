package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"
)

// The hot-loop kernels of the selection/merge/encode machinery: the k-th
// largest magnitude (radix descent, quickselect for small or NaN input),
// the winner emit scan, the sorted merge, the dense scatter-add, the
// wire word moves and the index validation. Each has one portable
// implementation, the one that won its A/B (docs/ARCHITECTURE.md,
// "Kernels"). Three pick a route by input size or host — radix vs
// quickselect, branchless vs branchy emit, memcpy vs per-word stores —
// and the tests hold each pair to the same bits.

// kthLargest returns the k-th largest magnitude of vals (1 <= k <=
// len(vals)) and the count of entries whose magnitude is strictly above
// it — the threshold and the strict-winner count every top-k emit needs.
// The radix descent reads the signed values directly; small or NaN input
// goes to quickselect over a pooled magnitude scratch. Both compute the
// same multiset property, so which route ran never shows in the bits.
func kthLargest(vals []float32, k int) (thr float32, strict int) {
	if thr, strict, ok := radixSelectKthLargest(vals, k); ok {
		return thr, strict
	}
	sp := getMagScratch(len(vals))
	mags := *sp
	absInto(mags, vals)
	thr = selectKthLargest(mags, k)
	strict = countGreater(mags, thr)
	magScratch.Put(sp)
	return thr, strict
}

// absInto fills dst[i] with |src[i]| (mask-abs, NaN payloads included).
// len(dst) >= len(src).
func absInto(dst, src []float32) {
	for i, v := range src {
		dst[i] = abs32(v)
	}
}

// partitionGreater runs one Lomuto partition pass over mags[lo:hi],
// moving strictly-greater-than-pivot elements to the front, and returns
// the store index.
func partitionGreater(mags []float32, lo, hi int, pivot float32) int {
	store := lo
	for i := lo; i < hi; i++ {
		if mags[i] > pivot {
			mags[i], mags[store] = mags[store], mags[i]
			store++
		}
	}
	return store
}

// countGreater counts elements of mags strictly greater than thr.
func countGreater(mags []float32, thr float32) int {
	n := 0
	for _, m := range mags {
		if m > thr {
			n++
		}
	}
	return n
}

// u32Scratch pools the survivor buffers of the radix threshold descent.
var u32Scratch = sync.Pool{New: func() any { return new([]uint32) }}

// radixMinN is the input size below which the radix descent loses to
// quickselect: each byte level zeroes and walks a 256-bin histogram, a
// fixed ~1KB cost that dominates when the scan itself is only a few
// hundred elements.
const radixMinN = 1024

// radixSelectKthLargest finds the k-th largest magnitude — and the count
// of elements strictly above it — by byte-wise radix descent over the
// float32 bit patterns. The descent clears the sign bit as it converts
// each element to bits (mask-abs, exactly abs32), so it accepts the raw
// signed values directly. Sign-free IEEE-754 bit patterns order exactly
// like the floats themselves: a 256-bin histogram walks from the top
// byte down, narrowing to the bin holding the k-th largest at each of
// the four byte levels. Every pass is a sequential scan with no
// data-dependent branching, against quickselect's pivot-driven swap
// cascade.
//
// ok=false when vals contains a NaN (whose float ordering disagrees with
// the bit ordering) or is below radixMinN; kthLargest then runs
// quickselect.
func radixSelectKthLargest(vals []float32, k int) (thr float32, strict int, ok bool) {
	n := len(vals)
	if n < radixMinN {
		return 0, 0, false
	}
	// Four interleaved histograms: gradient magnitudes cluster heavily in
	// a handful of exponent bytes, so a single histogram serialises on
	// store-to-load forwarding through the hot bin. Striping consecutive
	// elements across four counter banks keeps the increments independent;
	// the bin walk just sums the four banks per bin.
	var h [4][256]int32
	nan := false
	i := 0
	for ; i+4 <= n; i += 4 {
		u0 := math.Float32bits(vals[i]) &^ signMask32
		u1 := math.Float32bits(vals[i+1]) &^ signMask32
		u2 := math.Float32bits(vals[i+2]) &^ signMask32
		u3 := math.Float32bits(vals[i+3]) &^ signMask32
		if u0 > infBits || u1 > infBits || u2 > infBits || u3 > infBits {
			nan = true
		}
		h[0][u0>>24]++
		h[1][u1>>24]++
		h[2][u2>>24]++
		h[3][u3>>24]++
	}
	for ; i < n; i++ {
		u := math.Float32bits(vals[i]) &^ signMask32
		if u > infBits {
			nan = true
		}
		h[0][u>>24]++
	}
	if nan {
		return 0, 0, false
	}
	// want is the 1-based rank (from the top) still sought inside the
	// current prefix group; each level subtracts the sizes of the bins
	// strictly above the chosen one, i.e. the strictly-greater elements.
	want := k
	b := 255
	for {
		c := int(h[0][b] + h[1][b] + h[2][b] + h[3][b])
		if want <= c {
			break
		}
		want -= c
		b--
	}
	prefix := uint32(b) << 24
	sp := u32Scratch.Get().(*[]uint32)
	cur := *sp
	if cap(cur) < n {
		// Power-of-two capacities: the pool serves selections of many sizes
		// (tree merges, the accumulate pass's few thousand candidates), and
		// a buffer grown to each exact size it meets leaves a trail of
		// garbage that a steady state, which never triggers a GC, keeps in
		// RSS (measured: +5 MiB peak on wan-hier).
		cur = make([]uint32, n, 1<<bits.Len(uint(n-1)))
	}
	cur = cur[:n]
	// Branchless compaction of the survivors: the keep/drop decision is
	// near 50/50 on clustered data, so a conditional append would be
	// mispredict-bound. Store unconditionally, advance conditionally.
	o := 0
	for _, v := range vals {
		u := math.Float32bits(v) &^ signMask32
		cur[o] = u
		if u>>24 == uint32(b) {
			o++
		}
	}
	cur = cur[:o]
	for shift := 16; ; shift -= 8 {
		h = [4][256]int32{}
		i = 0
		for ; i+4 <= len(cur); i += 4 {
			h[0][(cur[i]>>shift)&0xff]++
			h[1][(cur[i+1]>>shift)&0xff]++
			h[2][(cur[i+2]>>shift)&0xff]++
			h[3][(cur[i+3]>>shift)&0xff]++
		}
		for ; i < len(cur); i++ {
			h[0][(cur[i]>>shift)&0xff]++
		}
		bb := 255
		for {
			c := int(h[0][bb] + h[1][bb] + h[2][bb] + h[3][bb])
			if want <= c {
				break
			}
			want -= c
			bb--
		}
		prefix |= uint32(bb) << shift
		if shift == 0 {
			break
		}
		o = 0
		for _, u := range cur {
			cur[o] = u
			if (u>>shift)&0xff == uint32(bb) {
				o++
			}
		}
		cur = cur[:o]
	}
	*sp = cur
	u32Scratch.Put(sp)
	return math.Float32frombits(prefix), k - want, true
}

// emitTopK scans srcVal (paired with srcIdx, or dense positions when
// srcIdx is nil) and writes the selected entries into the dst slices,
// returning the count written: strict winners (|v| > thr) always,
// threshold ties lowest-index-first until tieQuota runs out, at most k.
// NaN compares false on both tests, so it is never selected.
//
// Sparse scans that are long (n >= radixMinN) and winner-dense (n <= 8k:
// the tree's k-of-2k merges and the candidate sets) store every entry at
// the current output slot and advance the slot only for a selected one.
// Their select/reject pattern is data-random, and a mispredicted branch
// per entry costs more than the extra store: with the branchy loop alone
// the comm-tcp benchmark's step_ms_p10 rose 5 % (2 vCPUs). Those scans need
// dst len >= k+1: a rejected entry may land one slot past the last
// winner. Everything else predicts well and takes the branchy loop.
func emitTopK(dstIdx []int32, dstVal []float32, srcIdx []int32, srcVal []float32, thr float32, tieQuota, k int) int {
	if n := len(srcVal); srcIdx == nil || n < radixMinN || n > 8*k {
		return emitTopKBranchy(dstIdx, dstVal, srcIdx, srcVal, thr, tieQuota, k)
	}
	// The predicate is computed with materialized flag ints (each `if cond
	// { f = 1 }` on a fresh zero compiles to a setcc, not a jump) combined
	// with masks: short-circuit &&/|| would reintroduce the data-random
	// branches the unconditional stores exist to avoid.
	idx := srcIdx[:len(srcVal)]
	o, tq := 0, tieQuota
	for i, v := range srcVal {
		m := abs32(v)
		g, e, q, c := 0, 0, 0, 0
		if m > thr {
			g = 1
		}
		if m == thr {
			e = 1
		}
		if tq > 0 {
			q = 1
		}
		if o < k {
			c = 1
		}
		t := e & q
		s := (g | t) & c
		dstIdx[o] = idx[i]
		dstVal[o] = v
		o += s
		tq -= t & s
	}
	return o
}

// emitTopKBranchy is emitTopK's loop for dense sources and for short or
// winner-sparse scans: the same selection with a branch per entry,
// stopping once k entries are out.
func emitTopKBranchy(dstIdx []int32, dstVal []float32, srcIdx []int32, srcVal []float32, thr float32, tieQuota, k int) int {
	o := 0
	for i, v := range srcVal {
		m := abs32(v)
		switch {
		case m > thr:
		case m == thr && tieQuota > 0:
			tieQuota--
		default:
			continue
		}
		if srcIdx != nil {
			dstIdx[o] = srcIdx[i]
		} else {
			dstIdx[o] = int32(i)
		}
		dstVal[o] = v
		o++
		if o == k {
			break
		}
	}
	return o
}

// mergeAdd writes the index-merged sum of a and b into the dst slices
// (sized to hold the union) and returns the number of entries written —
// AddInto's inner loop.
func mergeAdd(dstIdx []int32, dstVal []float32, a, b *Vector) int {
	i, j, o := 0, 0, 0
	for i < len(a.Indices) && j < len(b.Indices) {
		ai, bi := a.Indices[i], b.Indices[j]
		switch {
		case ai < bi:
			dstIdx[o] = ai
			dstVal[o] = a.Values[i]
			i++
		case ai > bi:
			dstIdx[o] = bi
			dstVal[o] = b.Values[j]
			j++
		default:
			dstIdx[o] = ai
			dstVal[o] = a.Values[i] + b.Values[j]
			i++
			j++
		}
		o++
	}
	o += copy(dstIdx[o:], a.Indices[i:])
	copy(dstVal[o-(len(a.Indices)-i):], a.Values[i:])
	o += copy(dstIdx[o:], b.Indices[j:])
	copy(dstVal[o-(len(b.Indices)-j):], b.Values[j:])
	return o
}

// scatterAdd adds (indices, values) into the dense buffer, recording
// first-touched indices through mark, and returns the extended touched
// list — Accumulator.Add's inner loop.
func scatterAdd(dense []float32, mark []bool, touched []int32, indices []int32, values []float32) []int32 {
	for i, idx := range indices {
		if !mark[idx] {
			mark[idx] = true
			touched = append(touched, idx)
		}
		dense[idx] += values[i]
	}
	return touched
}

// putWords serialises the index and value sections of a wire frame into
// buf (len(buf) == 4*(len(indices)+len(values))), little-endian. On a
// little-endian host the slices' backing memory already is the wire
// layout, so the two sections are two memcpys.
func putWords(buf []byte, indices []int32, values []float32) {
	ni := 4 * len(indices)
	if hostLittleEndian {
		if len(indices) > 0 {
			copy(buf[:ni], unsafe.Slice((*byte)(unsafe.Pointer(&indices[0])), ni))
		}
		if len(values) > 0 {
			copy(buf[ni:], unsafe.Slice((*byte)(unsafe.Pointer(&values[0])), 4*len(values)))
		}
		return
	}
	for i, idx := range indices {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(idx))
	}
	for i, val := range values {
		binary.LittleEndian.PutUint32(buf[ni+4*i:], math.Float32bits(val))
	}
}

// checkIndices validates that indices are strictly ascending within
// [0, dim) — Vector.Validate's inner loop. Strict ascent plus in-range
// endpoints implies every element is in range, so a well-formed slice
// costs one compare per element; anything else goes to indexError for
// the diagnostic. The loop takes four compares per iteration: with one,
// its speed swung 0.65–1.1 µs per 1 000 indices with code placement.
func checkIndices(indices []int32, dim int) error {
	n := len(indices)
	if n == 0 {
		return nil
	}
	if indices[0] >= 0 && int(indices[n-1]) < dim {
		prev, rest := indices[0], indices[1:]
		for ; len(rest) >= 4; rest = rest[4:] {
			if rest[0] <= prev || rest[1] <= rest[0] || rest[2] <= rest[1] || rest[3] <= rest[2] {
				return indexError(indices, dim)
			}
			prev = rest[3]
		}
		for _, idx := range rest {
			if idx <= prev {
				return indexError(indices, dim)
			}
			prev = idx
		}
		return nil
	}
	return indexError(indices, dim)
}

// indexError is checkIndices' full scan: it names the first out-of-range
// or non-ascending position, or returns nil for a well-formed slice.
func indexError(indices []int32, dim int) error {
	for i, idx := range indices {
		if idx < 0 || int(idx) >= dim {
			return fmt.Errorf("sparse: index %d out of range [0,%d)", idx, dim)
		}
		if i > 0 && indices[i-1] >= idx {
			return fmt.Errorf("sparse: indices not strictly ascending at position %d", i)
		}
	}
	return nil
}
