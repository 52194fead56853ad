package sparse

import (
	"fmt"
	"math"
	"testing"

	"gtopkssgd/internal/prng"
)

// shardInputs builds dense vectors that stress every selection edge:
// Gaussian spread, massive magnitude ties, zero-heavy vectors where
// k exceeds the non-zero count (zero tie-fillers), and skewed layouts
// where all winners live in one shard.
func shardInputs(t *testing.T, n int) map[string][]float32 {
	t.Helper()
	src := prng.New(uint64(n) * 7)
	gauss := make([]float32, n)
	for i := range gauss {
		gauss[i] = float32(src.NormFloat64())
	}
	ties := make([]float32, n)
	for i := range ties {
		ties[i] = float32(int(src.Uint64()%5)) - 2 // {-2,-1,0,1,2}
	}
	sparseZeros := make([]float32, n)
	for i := 0; i < n/100+1; i++ {
		sparseZeros[src.Uint64()%uint64(n)] = float32(src.NormFloat64())
	}
	skew := make([]float32, n)
	for i := range skew {
		skew[i] = float32(src.NormFloat64()) * 0.001
	}
	for i := 0; i < n/20; i++ { // winners concentrated in the last shard
		skew[n-1-i] = float32(src.NormFloat64()) + 5
	}
	return map[string][]float32{"gauss": gauss, "ties": ties, "zeros": sparseZeros, "skew": skew}
}

// TestShardSelectorBitIdentical is the engine's acceptance test: for
// every shard count, input shape and k — including k larger than the
// non-zero count and k near n — the sharded selection must be
// bit-identical to the serial TopK. The reference is the serial
// radix/quickselect path alone; on the sharded side every shard (32768
// elements, far above the candidate gate) takes the candidate path where
// k allows, so this also pins "candidates per shard, then re-select".
func TestShardSelectorBitIdentical(t *testing.T) {
	const n = 6 * minShardElems / 2 // big enough for up to 3 effective shards
	for name, x := range shardInputs(t, n) {
		for _, k := range []int{1, 7, 100, n / 100, n / 3, n - 1, n, n + 5} {
			want := fullPathTopK(x, k)
			for _, shards := range []int{1, 2, 3, 4, 7, 16} {
				sel := NewShardSelector(shards)
				got := sel.TopK(x, k)
				label := fmt.Sprintf("%s n=%d k=%d shards=%d", name, n, k, shards)
				if got.Dim != want.Dim || got.NNZ() != want.NNZ() {
					t.Fatalf("%s: shape dim %d/%d nnz %d/%d", label, want.Dim, got.Dim, want.NNZ(), got.NNZ())
				}
				for i := range want.Indices {
					if got.Indices[i] != want.Indices[i] ||
						math.Float32bits(got.Values[i]) != math.Float32bits(want.Values[i]) {
						t.Fatalf("%s: entry %d: (%d,%v) vs (%d,%v)", label, i,
							want.Indices[i], want.Values[i], got.Indices[i], got.Values[i])
					}
				}
			}
		}
	}
}

// TestShardSelectorReuse runs one selector across shrinking and growing
// workloads so dirty per-shard scratch from a previous call cannot leak.
func TestShardSelectorReuse(t *testing.T) {
	sel := NewShardSelector(4)
	dst := &Vector{}
	for _, n := range []int{4 * minShardElems, minShardElems / 2, 8 * minShardElems} {
		for name, x := range shardInputs(t, n) {
			k := n / 50
			want := TopK(x, k)
			sel.TopKInto(dst, x, k)
			if dst.NNZ() != want.NNZ() || dst.Dim != want.Dim {
				t.Fatalf("%s n=%d: shape nnz %d/%d", name, n, want.NNZ(), dst.NNZ())
			}
			for i := range want.Indices {
				if dst.Indices[i] != want.Indices[i] ||
					math.Float32bits(dst.Values[i]) != math.Float32bits(want.Values[i]) {
					t.Fatalf("%s n=%d: entry %d differs after reuse", name, n, i)
				}
			}
		}
	}
}

// TestShardSelectorSmallInputFallback: inputs too small to shard must
// take the serial path (and still be correct).
func TestShardSelectorSmallInputFallback(t *testing.T) {
	x := []float32{3, -1, 0, 5, -4, 2}
	sel := NewShardSelector(8)
	got := sel.TopK(x, 3)
	want := TopK(x, 3)
	if got.NNZ() != want.NNZ() {
		t.Fatalf("nnz %d, want %d", got.NNZ(), want.NNZ())
	}
	for i := range want.Indices {
		if got.Indices[i] != want.Indices[i] || got.Values[i] != want.Values[i] {
			t.Fatalf("entry %d: (%d,%v) vs (%d,%v)", i, want.Indices[i], want.Values[i], got.Indices[i], got.Values[i])
		}
	}
}
