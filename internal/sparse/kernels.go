package sparse

import (
	"fmt"
	"sync/atomic"
)

// This file is the kernel dispatch layer: every per-element hot loop of
// the selection/merge/encode machinery (magnitude fill, quickselect
// partition, threshold counting, candidate scan, sorted merge, dense
// scatter-add, wire word moves, index validation) exists in two
// pinned-bit-identical variants — a portable pure-Go one (kernels_pure.go, always compiled)
// and a word-batched/bounds-check-eliminated one (kernels_fast.go,
// compiled on little-endian 64-bit targets unless the `purego` build tag
// is set). Most fast variants replay exactly the same comparison sequence
// as the pure ones, so results — including quickselect's pivot-driven
// permutations and behaviour on NaN/Inf inputs — are bit-identical by
// construction, not just in expectation; the radix threshold selector is
// the one algorithmic substitution, and it computes a value (the k-th
// largest of a multiset) that no algorithm can disagree on, falling back
// to the quickselect reference whenever NaNs make float ordering and bit
// ordering diverge. In front of both sits the sampled-threshold candidate
// path of candidates.go, which is exact for the same reason — it changes
// which entries are looked at, never which are selected — and declines to
// the radix/quickselect path whenever its argument does not hold. The
// active variant is a process-wide mode, selectable at startup via
// SetKernels (the CLI -kernels flag) and defaulting to fast where
// available.

// Kernel mode names accepted by SetKernels.
const (
	// KernelsFast selects the word-batched implementations.
	KernelsFast = "fast"
	// KernelsPure selects the portable pure-Go implementations.
	KernelsPure = "pure"
)

// fastEnabled gates every kernel dispatch. Atomic so tests and the fuzz
// harness can flip modes without racing in-flight benchmark goroutines;
// the Load is a plain memory read on the targets the fast path supports.
var fastEnabled atomic.Bool

func init() { fastEnabled.Store(fastKernelsAvailable) }

// FastKernelsAvailable reports whether this build carries the fast
// kernel variants (false under the purego build tag and on targets
// without little-endian word-move support).
func FastKernelsAvailable() bool { return fastKernelsAvailable }

// DefaultKernels returns the kernel mode a fresh process starts in:
// "fast" when the build supports it, "pure" otherwise.
func DefaultKernels() string {
	if fastKernelsAvailable {
		return KernelsFast
	}
	return KernelsPure
}

// Kernels returns the active kernel mode ("fast" or "pure").
func Kernels() string {
	if fastEnabled.Load() {
		return KernelsFast
	}
	return KernelsPure
}

// SetKernels selects the kernel implementations by name ("fast" or
// "pure"). Requesting "fast" in a build without it (purego tag,
// unsupported GOARCH) is an error, so a CLI invocation that asks for a
// speed-up it cannot have fails loudly instead of silently degrading.
// Both modes produce bit-identical results; switching is safe at any
// quiescent point but is intended for process startup.
func SetKernels(mode string) error {
	switch mode {
	case KernelsFast:
		if !fastKernelsAvailable {
			return fmt.Errorf("sparse: fast kernels are not available in this build (purego tag or unsupported architecture); use %q", KernelsPure)
		}
		fastEnabled.Store(true)
	case KernelsPure:
		fastEnabled.Store(false)
	default:
		return fmt.Errorf("sparse: unknown kernel mode %q (want %q or %q)", mode, KernelsFast, KernelsPure)
	}
	return nil
}

// absInto fills dst[i] with |src[i]| (sign-bit clear; NaN payloads and
// sign are masked identically in both modes). len(dst) >= len(src).
func absInto(dst, src []float32) {
	if fastEnabled.Load() {
		absIntoFast(dst, src)
		return
	}
	absIntoPure(dst, src)
}

// partitionGreater runs one Lomuto partition pass over mags[lo:hi],
// moving strictly-greater-than-pivot elements to the front, and returns
// the store index. Both variants perform the same conditional swap
// sequence, so the resulting permutation — which drives the next pivot
// choice in selectKthLargest — is identical.
func partitionGreater(mags []float32, lo, hi int, pivot float32) int {
	if fastEnabled.Load() {
		return partitionGreaterFast(mags, lo, hi, pivot)
	}
	return partitionGreaterPure(mags, lo, hi, pivot)
}

// countGreater counts elements of mags strictly greater than thr.
func countGreater(mags []float32, thr float32) int {
	if fastEnabled.Load() {
		return countGreaterFast(mags, thr)
	}
	return countGreaterPure(mags, thr)
}

// selectThreshold returns the k-th largest magnitude in mags plus the
// strict-winner count (elements > threshold) — the two quantities every
// top-k emit needs. The pure path is quickselect + a counting pass; the
// fast path is a byte-wise radix descent over the float bit patterns
// (sign-free magnitudes order identically as uint32s), which visits
// memory sequentially and yields the strict count as a by-product. The
// radix result is the value of the k-th largest element — a multiset
// property independent of algorithm — so both paths return identical
// bits; inputs containing NaN (whose float ordering disagrees with the
// bit ordering) fall back to the quickselect reference in both modes.
// mags may be permuted (quickselect partitions in place; radix does not).
func selectThreshold(mags []float32, k int) (thr float32, strict int) {
	if fastEnabled.Load() {
		if thr, strict, ok := radixSelectKthLargest(mags, k); ok {
			return thr, strict
		}
	}
	thr = selectKthLargest(mags, k)
	return thr, countGreater(mags, thr)
}

// selectThresholdVals is the scratch-free front door to selectThreshold:
// the radix descent clears the sign bit as it converts each element to
// bits, so it consumes the raw signed values directly and the caller
// skips the magnitude-scratch fill (one full pass plus a pool
// round-trip) entirely. ok=false — pure mode, purego builds, NaN inputs,
// or inputs under the radix size gate — sends the caller to the
// scratch-backed reference path; the returned threshold and strict count
// are the same multiset properties either way, so the two routes stay
// bit-identical.
func selectThresholdVals(vals []float32, k int) (thr float32, strict int, ok bool) {
	if fastEnabled.Load() {
		return radixSelectKthLargest(vals, k)
	}
	return 0, 0, false
}

// collectAtLeast appends every entry of x whose magnitude bit pattern
// (sign bit cleared) is >= tau to the dst slices — dense positions as
// indices, signed values as found, ascending — and returns how many it
// wrote, or -1 as soon as they would not fit in len(dstIdx). tau must be
// in [1, infBits]: for finite magnitudes bit order is float order, and
// every NaN pattern is above it, so NaNs are always collected (the caller
// rejects them). Both variants test the same predicate on every element
// in the same order; the fast one tests two elements per 64-bit word.
func collectAtLeast(dstIdx []int32, dstVal []float32, x []float32, tau uint32) int {
	if fastEnabled.Load() {
		return collectAtLeastFast(dstIdx, dstVal, x, tau)
	}
	return collectAtLeastPure(dstIdx, dstVal, 0, x, 0, tau)
}

// emitTopK scans srcVal (paired with srcIdx, or dense positions when
// srcIdx is nil) and writes the entries selected by thr/tieQuota into
// the dst slices, returning the count written. Both variants select the
// same entries in the same order; the fast variant trades the pure
// loop's data-dependent branches for unconditional stores with a
// conditional advance, which is why dst must have one slot of slack
// (len >= k+1) — the ghost slot absorbs stores of rejected entries.
func emitTopK(dstIdx []int32, dstVal []float32, srcIdx []int32, srcVal []float32, thr float32, tieQuota, k int) int {
	if fastEnabled.Load() {
		return emitTopKFast(dstIdx, dstVal, srcIdx, srcVal, thr, tieQuota, k)
	}
	return emitTopKPure(dstIdx, dstVal, srcIdx, srcVal, thr, tieQuota, k)
}

// mergeAdd writes the index-merged sum of a and b into the dst slices
// (sized to hold the union) and returns the number of entries written —
// AddInto's inner loop.
func mergeAdd(dstIdx []int32, dstVal []float32, a, b *Vector) int {
	if fastEnabled.Load() {
		return mergeAddFast(dstIdx, dstVal, a, b)
	}
	return mergeAddPure(dstIdx, dstVal, a, b)
}

// scatterAdd adds (indices, values) into the dense buffer, recording
// first-touched indices through mark, and returns the extended touched
// list — Accumulator.Add's inner loop.
func scatterAdd(dense []float32, mark []bool, touched []int32, indices []int32, values []float32) []int32 {
	if fastEnabled.Load() {
		return scatterAddFast(dense, mark, touched, indices, values)
	}
	return scatterAddPure(dense, mark, touched, indices, values)
}

// putWords serialises the index and value sections of a wire frame into
// buf (len(buf) == 4*(len(indices)+len(values))), little-endian.
func putWords(buf []byte, indices []int32, values []float32) {
	if fastEnabled.Load() {
		putWordsFast(buf, indices, values)
		return
	}
	putWordsPure(buf, indices, values)
}

// checkIndices validates that indices are strictly ascending within
// [0, dim) — Vector.Validate's inner loop. Diagnostics for malformed
// inputs are produced by the pure scan in both modes, so error text is
// mode-independent.
func checkIndices(indices []int32, dim int) error {
	if fastEnabled.Load() {
		return checkIndicesFast(indices, dim)
	}
	return checkIndicesPure(indices, dim)
}
