//go:build !purego && (amd64 || arm64)

package sparse

import (
	"math"
	"sync"
	"unsafe"
)

// Fast kernel variants for little-endian 64-bit targets: sign-mask word
// ops instead of float compares-and-negates, 4-wide unrolling, subslice
// aliasing for bounds-check elimination, and bulk memcpy for wire word
// moves (both supported GOARCHes are little-endian, so the in-memory
// layout of []int32/[]float32 IS the wire layout). Every variant performs
// exactly the same comparison/store sequence as its pure counterpart in
// kernels_pure.go, which keeps results bit-identical — including the
// quickselect permutations that feed subsequent pivot draws, and
// behaviour on NaN inputs. Build with -tags purego to compile these out.

const fastKernelsAvailable = true

func absIntoFast(dst, src []float32) {
	n := len(src)
	if n == 0 {
		return
	}
	// Clearing the sign bit is abs32 exactly (mask-abs, NaN included),
	// and as uint32 traffic it vectorises into plain word ANDs.
	s := unsafe.Slice((*uint32)(unsafe.Pointer(&src[0])), n)
	d := unsafe.Slice((*uint32)(unsafe.Pointer(&dst[0])), n)[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d[i] = s[i] &^ signMask32
		d[i+1] = s[i+1] &^ signMask32
		d[i+2] = s[i+2] &^ signMask32
		d[i+3] = s[i+3] &^ signMask32
	}
	for ; i < n; i++ {
		d[i] = s[i] &^ signMask32
	}
}

func partitionGreaterFast(mags []float32, lo, hi int, pivot float32) int {
	// Subslice once so the range loop carries no per-iteration bounds
	// checks on the read side; the swap sequence (including the
	// i==store no-op case) matches partitionGreaterPure move for move.
	s := mags[lo:hi]
	store := 0
	for i, v := range s {
		if v > pivot {
			s[i] = s[store]
			s[store] = v
			store++
		}
	}
	return lo + store
}

func countGreaterFast(mags []float32, thr float32) int {
	n := 0
	i := 0
	for ; i+4 <= len(mags); i += 4 {
		// Four independent compares per iteration; each branch is its
		// own increment so the adds retire without a dependency chain.
		if mags[i] > thr {
			n++
		}
		if mags[i+1] > thr {
			n++
		}
		if mags[i+2] > thr {
			n++
		}
		if mags[i+3] > thr {
			n++
		}
	}
	for ; i < len(mags); i++ {
		if mags[i] > thr {
			n++
		}
	}
	return n
}

func mergeAddFast(dstIdx []int32, dstVal []float32, a, b *Vector) int {
	// Hoist the four stream headers into locals so the merge loop reads
	// them from registers instead of re-loading through the Vector
	// pointers every comparison. (A conditional-move formulation was
	// tried and measured ~2x slower both hot and in-round: the compiler
	// keeps branches for the multi-result select, and CMOV forces both
	// streams' loads every iteration.)
	ai, av := a.Indices, a.Values
	bi, bv := b.Indices, b.Values
	i, j, o := 0, 0, 0
	for i < len(ai) && j < len(bi) {
		x, y := ai[i], bi[j]
		switch {
		case x < y:
			dstIdx[o] = x
			dstVal[o] = av[i]
			i++
		case x > y:
			dstIdx[o] = y
			dstVal[o] = bv[j]
			j++
		default:
			dstIdx[o] = x
			dstVal[o] = av[i] + bv[j]
			i++
			j++
		}
		o++
	}
	o += copy(dstIdx[o:], ai[i:])
	copy(dstVal[o-(len(ai)-i):], av[i:])
	o += copy(dstIdx[o:], bi[j:])
	copy(dstVal[o-(len(bi)-j):], bv[j:])
	return o
}

// u32Scratch pools the survivor buffers of the radix threshold descent.
var u32Scratch = sync.Pool{New: func() any { return new([]uint32) }}

// radixMinN is the input size below which the radix descent loses to
// quickselect: each byte level zeroes and walks a 256-bin histogram, a
// fixed ~1KB cost that dominates when the scan itself is only a few
// hundred elements. Below the gate the selector reports ok=false and the
// dispatcher runs the quickselect reference instead.
const radixMinN = 1024

// radixSelectKthLargest finds the k-th largest magnitude — and the count
// of elements strictly above it — by byte-wise radix descent over the
// float32 bit patterns. The descent clears the sign bit as it converts
// each element to bits (mask-abs, exactly abs32), so it accepts the raw
// signed values directly — callers skip the magnitude-scratch fill a
// comparison-based selector would need. Sign-free IEEE-754 bit patterns
// order exactly like the floats themselves: a 256-bin histogram walks
// from the top byte down, narrowing to the bin holding the k-th largest
// at each of the four byte levels. Every pass is a sequential scan with
// no data-dependent branching, against quickselect's pivot-driven swap
// cascade — ~5x faster on the merge path's 2k-element selections and
// deterministic besides.
//
// ok=false when vals contains a NaN or is below radixMinN; the caller
// falls back to the quickselect reference, which pins NaN behaviour for
// both kernel modes (and is simply faster at small n).
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
		cur = make([]uint32, n)
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

// emitTopKFast is the branch-light winner scan: every entry is stored at
// the current output slot unconditionally and the slot advances only for
// selected entries, so the 50/50 select/reject pattern of a k-of-2k
// merge costs conditional moves instead of mispredicted branches. dst
// slices need len >= k+1 — rejected entries transiently overwrite the
// slot one past the last winner. Selection predicate, order, and the
// tie-quota bookkeeping match emitTopKPure entry for entry.
func emitTopKFast(dstIdx []int32, dstVal []float32, srcIdx []int32, srcVal []float32, thr float32, tieQuota, k int) int {
	// The unconditional-store trade only wins where branches actually
	// mispredict: scans long enough to defeat the predictor's history and
	// dense enough in winners (the k-of-2k merge shape) that the
	// select/reject pattern is data-random. Short scans and needle-in-a-
	// haystack selections (k << n, branches almost always not-taken)
	// predict nearly perfectly, so the doubled store traffic is pure loss
	// there — route them to the branchy reference scan.
	if n := len(srcVal); n < radixMinN || n > 8*k {
		return emitTopKPure(dstIdx, dstVal, srcIdx, srcVal, thr, tieQuota, k)
	}
	// The select/tie predicate is computed with materialized flag ints
	// (each `if cond { f = 1 }` on a fresh zero compiles to a setcc, not a
	// jump) and combined with masks: short-circuit &&/|| would reintroduce
	// exactly the data-random branches the unconditional stores exist to
	// avoid. NaN sources compare false on both > and ==, so they are never
	// selected — matching the pure scan.
	o, tq := 0, tieQuota
	if srcIdx != nil {
		idx := srcIdx[:len(srcVal)]
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
		dstIdx[o] = int32(i)
		dstVal[o] = v
		o += s
		tq -= t & s
	}
	return o
}

// collectAtLeastFast tests two elements per 64-bit load: with the sign
// bits masked off each 32-bit lane holds a magnitude below 2^31, so adding
// 2^31-tau to both lanes at once cannot carry across them and sets a
// lane's top bit exactly when that lane is >= tau. Eight words (sixteen
// elements) are OR-ed per branch; candidates are a fraction of a percent
// of x, so the branch is almost never taken and the rare group that holds
// one is re-scanned by the reference loop — same predicate, same order.
// The word view starts at the first 8-byte-aligned element (one element
// is peeled when x is not), so every load is an aligned one.
func collectAtLeastFast(dstIdx []int32, dstVal []float32, x []float32, tau uint32) int {
	const lanes, tops = 0x7fffffff7fffffff, 0x8000000080000000
	at := 0 // dense position of the next unscanned element
	if len(x) > 0 && uintptr(unsafe.Pointer(&x[0]))&7 != 0 {
		at = 1
	}
	o := collectAtLeastPure(dstIdx, dstVal, 0, x[:at], 0, tau)
	words := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(x[at:]))), (len(x)-at)/2)
	add := uint64(signMask32 - tau)
	add |= add << 32
	for ; len(words) >= 8; words, at = words[8:], at+16 {
		hit := (words[0]&lanes + add) | (words[1]&lanes + add) | (words[2]&lanes + add) | (words[3]&lanes + add) |
			(words[4]&lanes + add) | (words[5]&lanes + add) | (words[6]&lanes + add) | (words[7]&lanes + add)
		if hit&tops != 0 {
			if o = collectAtLeastPure(dstIdx, dstVal, o, x[at:at+16], at, tau); o < 0 {
				return -1
			}
		}
	}
	return collectAtLeastPure(dstIdx, dstVal, o, x[at:], at, tau)
}

func scatterAddFast(dense []float32, mark []bool, touched []int32, indices []int32, values []float32) []int32 {
	vals := values[:len(indices)]
	for i, idx := range indices {
		// uint cast folds the compiler's signed range check into the
		// single unsigned bounds check it must keep anyway.
		u := uint(uint32(idx))
		if !mark[u] {
			mark[u] = true
			touched = append(touched, idx)
		}
		dense[u] += vals[i]
	}
	return touched
}

func putWordsFast(buf []byte, indices []int32, values []float32) {
	// Little-endian targets only: []int32/[]float32 backing memory is
	// already the wire byte layout, so the two sections are two memcpys.
	ni := 4 * len(indices)
	if len(indices) > 0 {
		copy(buf[:ni], unsafe.Slice((*byte)(unsafe.Pointer(&indices[0])), ni))
	}
	if len(values) > 0 {
		copy(buf[ni:], unsafe.Slice((*byte)(unsafe.Pointer(&values[0])), 4*len(values)))
	}
}

func checkIndicesFast(indices []int32, dim int) error {
	n := len(indices)
	if n == 0 {
		return nil
	}
	// Strict ascent plus in-range endpoints implies every element is in
	// range, so the well-formed case needs one compare per element. Any
	// violation falls back to the pure scan, which pinpoints the first
	// offending position with the exact same diagnostic text.
	if indices[0] >= 0 && int(indices[n-1]) < dim {
		prev := indices[0]
		ok := true
		for _, idx := range indices[1:] {
			if idx <= prev {
				ok = false
				break
			}
			prev = idx
		}
		if ok {
			return nil
		}
	}
	return checkIndicesPure(indices, dim)
}
