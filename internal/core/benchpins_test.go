package core_test

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// TestGTopKRefusesChunks: both chunks-taking pins return an error, and
// send nothing, for any chunks argument but 1.
func TestGTopKRefusesChunks(t *testing.T) {
	f, err := transport.NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	comm := collective.New(f.Conn(0))
	gc, err := comm.ForkGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 never calls, so an accepted call fails on the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	local := &sparse.Vector{Dim: 8}
	for _, chunks := range []int{0, 3} {
		if err := core.GTopKAllReduceInto(ctx, comm, local, 1, chunks, &sparse.Vector{}); err == nil || ctx.Err() != nil {
			t.Errorf("flat: chunks=%d accepted", chunks)
		}
		if err := core.HierarchicalGTopKAllReduceInto(ctx, comm, gc, local, 1, chunks, &sparse.Vector{}); err == nil || ctx.Err() != nil {
			t.Errorf("hierarchical: chunks=%d accepted", chunks)
		}
	}
	if s := comm.Stats(); s.MsgsSent != 0 {
		t.Errorf("a refused call sent %d messages", s.MsgsSent)
	}
}

// refSettle is the fold and the put-back as the two passes they were
// before Settle fused them, kept as its reference.
func refSettle(residual []float32, local *sparse.Vector, orig []float32, global []int32) {
	for i, idx := range local.Indices {
		if orig != nil {
			residual[idx] += orig[i] - local.Values[i]
		}
	}
	j := 0
	for i, idx := range local.Indices {
		for j < len(global) && global[j] < idx {
			j++
		}
		if j < len(global) && global[j] == idx {
			continue
		}
		residual[idx] += local.Values[i]
	}
}

// TestSettleIsFoldThenPutBack holds Settle, and the pins' FoldError then
// PutBack, to the two-pass reference bit for bit: lossy and lossless,
// over residuals that start at +0, −0 and arbitrary values, sent values
// with ±0, ±Inf and NaN among them, and global supports that keep
// nothing, everything, every other index plus indices from elsewhere,
// or only indices from elsewhere.
func TestSettleIsFoldThenPutBack(t *testing.T) {
	const dim, k = 64, 24
	src := prng.New(9)
	negZero := float32(math.Copysign(0, -1))
	special := []float32{0, negZero, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for trial := range 40 {
		perm := src.Perm(dim)
		local := &sparse.Vector{Dim: dim}
		for _, p := range perm[:k] {
			local.Indices = append(local.Indices, int32(p))
		}
		slices.Sort(local.Indices)
		orig := make([]float32, k)
		for i := range orig {
			orig[i] = float32(src.NormFloat64())
			local.Values = append(local.Values, float32(math.Round(float64(orig[i])*4)/4))
			if src.Uint64()%6 == 0 {
				local.Values[i] = special[src.Uint64()%uint64(len(special))]
			}
		}
		elsewhere := make([]int32, 0, dim-k)
		for _, p := range perm[k:] {
			elsewhere = append(elsewhere, int32(p))
		}
		var some []int32
		for i := 0; i < k; i += 2 {
			some = append(some, local.Indices[i])
		}
		some = append(some, elsewhere[:5]...)
		slices.Sort(some)
		slices.Sort(elsewhere)
		for name, global := range map[string][]int32{"none": nil, "all": local.Indices, "some": some, "elsewhere": elsewhere} {
			for _, lossy := range []bool{false, true} {
				fold := orig
				if !lossy {
					fold = nil
				}
				start := make([]float32, dim)
				for i := range start {
					switch trial % 3 {
					case 1:
						start[i] = negZero
					case 2:
						start[i] = float32(src.NormFloat64())
					}
				}
				want := slices.Clone(start)
				refSettle(want, local, fold, global)
				settled, pinned := core.NewSparsifier(dim), core.NewSparsifier(dim)
				for _, sp := range []*core.Sparsifier{settled, pinned} {
					if err := sp.RestoreResidual(start); err != nil {
						t.Fatal(err)
					}
				}
				settled.Settle(local, fold, global)
				if lossy {
					pinned.FoldError(local.Indices, fold, local.Values)
				}
				pinned.PutBack(local, global)
				for i := range want {
					w := math.Float32bits(want[i])
					if g := math.Float32bits(settled.Residual()[i]); g != w {
						t.Fatalf("trial %d %s lossy=%v: Settle residual[%d] %#x, want %#x", trial, name, lossy, i, g, w)
					}
					if g := math.Float32bits(pinned.Residual()[i]); g != w {
						t.Fatalf("trial %d %s lossy=%v: pinned residual[%d] %#x, want %#x", trial, name, lossy, i, g, w)
					}
				}
			}
		}
	}
}
