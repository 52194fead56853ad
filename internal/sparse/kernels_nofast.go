//go:build purego || !(amd64 || arm64)

package sparse

// Fallback shims for builds without the fast kernels (the purego build
// tag, or targets where the word-move tricks are unproven). The fast
// names must exist for kernels.go to compile, but they are unreachable:
// with fastKernelsAvailable false the dispatch flag can never be set to
// fast, so every call goes straight to the pure implementations.

const fastKernelsAvailable = false

func absIntoFast(dst, src []float32) { absIntoPure(dst, src) }

func partitionGreaterFast(mags []float32, lo, hi int, pivot float32) int {
	return partitionGreaterPure(mags, lo, hi, pivot)
}

func countGreaterFast(mags []float32, thr float32) int { return countGreaterPure(mags, thr) }

func mergeAddFast(dstIdx []int32, dstVal []float32, a, b *Vector) int {
	return mergeAddPure(dstIdx, dstVal, a, b)
}

func scatterAddFast(dense []float32, mark []bool, touched []int32, indices []int32, values []float32) []int32 {
	return scatterAddPure(dense, mark, touched, indices, values)
}

func putWordsFast(buf []byte, indices []int32, values []float32) {
	putWordsPure(buf, indices, values)
}

func checkIndicesFast(indices []int32, dim int) error { return checkIndicesPure(indices, dim) }

func radixSelectKthLargest(mags []float32, k int) (float32, int, bool) { return 0, 0, false }

func emitTopKFast(dstIdx []int32, dstVal []float32, srcIdx []int32, srcVal []float32, thr float32, tieQuota, k int) int {
	return emitTopKPure(dstIdx, dstVal, srcIdx, srcVal, thr, tieQuota, k)
}
