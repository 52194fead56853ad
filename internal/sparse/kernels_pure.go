package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Portable reference implementations of the hot-loop kernels. These are
// always compiled — they are the active implementations in pure mode,
// the fallback bodies on targets without fast kernels, and the oracle
// the fuzz/equivalence suites pin the fast variants against.

func absIntoPure(dst, src []float32) {
	for i, v := range src {
		dst[i] = abs32(v)
	}
}

func partitionGreaterPure(mags []float32, lo, hi int, pivot float32) int {
	store := lo
	for i := lo; i < hi; i++ {
		if mags[i] > pivot {
			mags[i], mags[store] = mags[store], mags[i]
			store++
		}
	}
	return store
}

func countGreaterPure(mags []float32, thr float32) int {
	n := 0
	for _, m := range mags {
		if m > thr {
			n++
		}
	}
	return n
}

func mergeAddPure(dstIdx []int32, dstVal []float32, a, b *Vector) int {
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

// emitTopKPure is the reference winner scan: strict winners always
// selected, threshold ties selected lowest-index-first until the quota
// runs out, stopping as soon as k entries are out. srcIdx nil means the
// source is dense and positions are the indices (TopKInto).
func emitTopKPure(dstIdx []int32, dstVal []float32, srcIdx []int32, srcVal []float32, thr float32, tieQuota, k int) int {
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

// collectAtLeastPure is the reference candidate scan over x, whose first
// element sits at dense position base, continuing at output slot o (the
// fast variant hands it the few 16-element groups that hold a candidate).
// It returns the next free slot, or -1 when dst is full. Not inlined: the
// fast variant's word loop keeps its registers only if this stays a call.
//
//go:noinline
func collectAtLeastPure(dstIdx []int32, dstVal []float32, o int, x []float32, base int, tau uint32) int {
	for i, v := range x {
		if math.Float32bits(v)&^signMask32 >= tau {
			if o == len(dstIdx) {
				return -1
			}
			dstIdx[o] = int32(base + i)
			dstVal[o] = v
			o++
		}
	}
	return o
}

func scatterAddPure(dense []float32, mark []bool, touched []int32, indices []int32, values []float32) []int32 {
	for i, idx := range indices {
		if !mark[idx] {
			mark[idx] = true
			touched = append(touched, idx)
		}
		dense[idx] += values[i]
	}
	return touched
}

func putWordsPure(buf []byte, indices []int32, values []float32) {
	off := 0
	for _, idx := range indices {
		binary.LittleEndian.PutUint32(buf[off:off+4], uint32(idx))
		off += 4
	}
	for _, val := range values {
		binary.LittleEndian.PutUint32(buf[off:off+4], math.Float32bits(val))
		off += 4
	}
}

func checkIndicesPure(indices []int32, dim int) error {
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
