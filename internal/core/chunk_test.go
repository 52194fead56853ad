package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// runFlat executes the flat GTopKInto on every rank of a fresh
// in-process fabric and returns the per-rank results.
func runFlat(t *testing.T, vecs []*sparse.Vector, k int) []*sparse.Vector {
	t.Helper()
	p := len(vecs)
	results := make([]*sparse.Vector, p)
	var mu sync.Mutex
	spmd(t, p, func(c *collective.Comm) error {
		out := &sparse.Vector{}
		if err := GTopKInto(context.Background(), c, nil, vecs[c.Rank()].Clone(), k, out); err != nil {
			return err
		}
		mu.Lock()
		results[c.Rank()] = out
		mu.Unlock()
		return nil
	})
	return results
}

func assertVecEqual(t *testing.T, label string, want, got *sparse.Vector) {
	t.Helper()
	if want.Dim != got.Dim || want.NNZ() != got.NNZ() {
		t.Fatalf("%s: shape dim %d/%d nnz %d/%d", label, want.Dim, got.Dim, want.NNZ(), got.NNZ())
	}
	for i := range want.Indices {
		if want.Indices[i] != got.Indices[i] ||
			math.Float32bits(want.Values[i]) != math.Float32bits(got.Values[i]) {
			t.Fatalf("%s: entry %d: (%d,%v) vs (%d,%v)", label, i,
				want.Indices[i], want.Values[i], got.Indices[i], got.Values[i])
		}
	}
}

// tieHeavyVectors builds per-rank sparse vectors whose values are drawn
// from a tiny quantized set, so merges constantly hit exact magnitude
// ties at the selection threshold.
func tieHeavyVectors(seed uint64, p, dim, k int) []*sparse.Vector {
	vecs := make([]*sparse.Vector, p)
	for r := 0; r < p; r++ {
		src := prng.New(seed + uint64(r)*31)
		g := make([]float32, dim)
		for i := range g {
			g[i] = float32(int(src.Uint64()%5)) - 2 // {-2,-1,0,1,2}: tie city
		}
		vecs[r] = sparse.TopK(g, k)
	}
	return vecs
}

// TestGTopKChunkedBitEquivalence pins the tree to the serial binomial
// schedule — at power-of-two and non-power-of-two world sizes, with
// Gaussian values, with massive magnitude ties at the threshold, and
// with empty-support inputs mixed in. (Its name outlived the chunked
// hops it once compared against.)
func TestGTopKChunkedBitEquivalence(t *testing.T) {
	const dim, k = 240, 12
	for _, p := range []int{2, 3, 4, 5, 6, 7, 8, 16} {
		for _, mode := range []string{"gauss", "ties", "empty"} {
			var vecs []*sparse.Vector
			switch mode {
			case "gauss":
				_, vecs = makeWorkerVectors(uint64(60+p), p, dim, k)
			case "ties":
				vecs = tieHeavyVectors(uint64(90+p), p, dim, k)
			case "empty":
				// Half the ranks (including an interior tree rank)
				// contribute nothing this iteration.
				_, vecs = makeWorkerVectors(uint64(120+p), p, dim, k)
				for r := 0; r < p; r += 2 {
					vecs[r] = &sparse.Vector{Dim: dim}
				}
			}
			want := serialTreeMerge(t, vecs, k)
			for r, got := range runFlat(t, vecs, k) {
				assertVecEqual(t, fmt.Sprintf("p=%d %s rank %d vs serial", p, mode, r), want, got)
			}
		}
	}
}

// TestGTopKChunkedOverTCP runs the collective twice through one reused
// result vector over real loopback sockets (pooled read frames,
// buffered writers, NODELAY) and checks it against the serial tree.
func TestGTopKChunkedOverTCP(t *testing.T) {
	const p, dim, k = 4, 300, 10
	_, vecs := makeWorkerVectors(7, p, dim, k)
	want := serialTreeMerge(t, vecs, k)

	fab, err := transport.NewTCP(p)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	var wg sync.WaitGroup
	errs := make([]error, p)
	results := make([]*sparse.Vector, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			out := &sparse.Vector{}
			// Two iterations through the same reused out vector: the
			// second exercises warmed pools and capacity reuse.
			for iter := 0; iter < 2; iter++ {
				if err := GTopKInto(context.Background(), collective.New(fab.Conn(rank)), nil, vecs[rank].Clone(), k, out); err != nil {
					errs[rank] = err
					return
				}
			}
			results[rank] = out
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for r := 0; r < p; r++ {
		assertVecEqual(t, fmt.Sprintf("tcp rank %d", r), want, results[r])
	}
}

// TestGTopKIntoReusesResult checks that a dirty, oversized out vector
// from a previous (larger) iteration cannot leak into the next result.
func TestGTopKIntoReusesResult(t *testing.T) {
	const p, dim = 4, 200
	_, big := makeWorkerVectors(5, p, dim, 40)
	_, small := makeWorkerVectors(6, p, dim, 5)
	wantSmall := serialTreeMerge(t, small, 5)

	outs := make([]*sparse.Vector, p)
	for r := range outs {
		outs[r] = &sparse.Vector{}
	}
	for _, round := range []struct {
		vecs []*sparse.Vector
		k    int
	}{{big, 40}, {small, 5}} {
		round := round
		spmd(t, p, func(c *collective.Comm) error {
			return GTopKInto(context.Background(), c, nil, round.vecs[c.Rank()].Clone(), round.k, outs[c.Rank()])
		})
	}
	for r := 0; r < p; r++ {
		assertVecEqual(t, fmt.Sprintf("rank %d after shrink", r), wantSmall, outs[r])
	}
}
