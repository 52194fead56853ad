package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// spmd runs body on every rank over a fresh in-process fabric.
func spmd(t *testing.T, p int, body func(c *collective.Comm) error) {
	t.Helper()
	f, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = body(collective.New(f.Conn(rank)))
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// gtopk runs the flat GTopKInto into a fresh result vector.
func gtopk(ctx context.Context, c *collective.Comm, local *sparse.Vector, k int) (*sparse.Vector, error) {
	out := &sparse.Vector{}
	if err := GTopKInto(ctx, c, nil, local, k, out); err != nil {
		return nil, err
	}
	return out, nil
}

// makeWorkerVectors builds deterministic per-rank sparse top-k vectors
// from per-rank dense gradients, returning both.
func makeWorkerVectors(seed uint64, p, dim, k int) ([][]float32, []*sparse.Vector) {
	dense := make([][]float32, p)
	vecs := make([]*sparse.Vector, p)
	for r := 0; r < p; r++ {
		src := prng.New(seed + uint64(r)*1000)
		g := make([]float32, dim)
		for i := range g {
			g[i] = float32(src.NormFloat64())
		}
		dense[r] = g
		vecs[r] = sparse.TopK(g, k)
	}
	return dense, vecs
}

func TestTopKAllReduceEqualsSequentialSum(t *testing.T) {
	const p, dim, k = 4, 200, 10
	_, vecs := makeWorkerVectors(11, p, dim, k)
	want := make([]float32, dim)
	for _, v := range vecs {
		v.ScatterAdd(want)
	}
	spmd(t, p, func(c *collective.Comm) error {
		got, err := TopKAllReduce(context.Background(), c, vecs[c.Rank()].Clone())
		if err != nil {
			return err
		}
		gd := got.Dense()
		for i := range want {
			if math.Abs(float64(gd[i]-want[i])) > 1e-5 {
				return fmt.Errorf("elem %d: got %v want %v", i, gd[i], want[i])
			}
		}
		return nil
	})
}

func TestGTopKAllReduceBasicInvariants(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			const dim, k = 300, 12
			_, vecs := makeWorkerVectors(uint64(p), p, dim, k)

			results := make([]*sparse.Vector, p)
			var mu sync.Mutex
			spmd(t, p, func(c *collective.Comm) error {
				got, err := gtopk(context.Background(), c, vecs[c.Rank()].Clone(), k)
				if err != nil {
					return err
				}
				if got.NNZ() > k {
					return fmt.Errorf("result has %d > k=%d entries", got.NNZ(), k)
				}
				if err := got.Validate(); err != nil {
					return err
				}
				mu.Lock()
				results[c.Rank()] = got
				mu.Unlock()
				return nil
			})
			// All ranks must hold the identical global selection.
			for r := 1; r < p; r++ {
				if results[r].NNZ() != results[0].NNZ() {
					t.Fatalf("rank %d nnz %d != rank 0 nnz %d", r, results[r].NNZ(), results[0].NNZ())
				}
				for i := range results[0].Indices {
					if results[r].Indices[i] != results[0].Indices[i] ||
						results[r].Values[i] != results[0].Values[i] {
						t.Fatalf("rank %d diverged at entry %d", r, i)
					}
				}
			}
		})
	}
}

func TestGTopKAllReduceTwoWorkersEqualsNaive(t *testing.T) {
	// With P=2 the tree is a single merge, which is exactly the naive
	// definition: top-k of the sum of both sparse vectors.
	const dim, k = 120, 9
	_, vecs := makeWorkerVectors(77, 2, dim, k)

	sum, err := sparse.Add(vecs[0], vecs[1])
	if err != nil {
		t.Fatal(err)
	}
	want := sparse.TopKSparse(sum, k)

	spmd(t, 2, func(c *collective.Comm) error {
		got, err := gtopk(context.Background(), c, vecs[c.Rank()].Clone(), k)
		if err != nil {
			return err
		}
		if got.NNZ() != want.NNZ() {
			return fmt.Errorf("nnz %d, want %d", got.NNZ(), want.NNZ())
		}
		for i := range want.Indices {
			if got.Indices[i] != want.Indices[i] || got.Values[i] != want.Values[i] {
				return fmt.Errorf("entry %d: (%d,%v) want (%d,%v)",
					i, got.Indices[i], got.Values[i], want.Indices[i], want.Values[i])
			}
		}
		return nil
	})
}

func TestGTopKAllReduceIdenticalSupports(t *testing.T) {
	// When every worker selects the SAME indices, the tree introduces no
	// approximation: result must equal the global top-k of the exact sum.
	const p, dim, k = 8, 100, 6
	base := prng.New(5)
	indices := []int32{3, 17, 42, 55, 80, 99}
	vecs := make([]*sparse.Vector, p)
	sumDense := make([]float32, dim)
	for r := 0; r < p; r++ {
		v := &sparse.Vector{Dim: dim, Indices: append([]int32(nil), indices...), Values: make([]float32, k)}
		for i := range v.Values {
			v.Values[i] = float32(base.NormFloat64())
			sumDense[v.Indices[i]] += v.Values[i]
		}
		vecs[r] = v
	}
	want := sparse.TopK(sumDense, k)
	spmd(t, p, func(c *collective.Comm) error {
		got, err := gtopk(context.Background(), c, vecs[c.Rank()].Clone(), k)
		if err != nil {
			return err
		}
		if got.NNZ() != want.NNZ() {
			return fmt.Errorf("nnz %d want %d", got.NNZ(), want.NNZ())
		}
		for i := range want.Indices {
			if got.Indices[i] != want.Indices[i] {
				return fmt.Errorf("index %d: %d want %d", i, got.Indices[i], want.Indices[i])
			}
			if math.Abs(float64(got.Values[i]-want.Values[i])) > 1e-5 {
				return fmt.Errorf("value %d: %v want %v", i, got.Values[i], want.Values[i])
			}
		}
		return nil
	})
}

// serialTreeMerge folds worker vectors with the exact binomial schedule
// the flat GTopKInto uses, serving as the single-threaded reference for
// non-power-of-two worlds.
func serialTreeMerge(t *testing.T, vecs []*sparse.Vector, k int) *sparse.Vector {
	t.Helper()
	cur := make([]*sparse.Vector, len(vecs))
	for i, v := range vecs {
		cur[i] = v.Clone()
	}
	p := len(vecs)
	for stride := 1; stride < p; stride *= 2 {
		for r := 0; r+stride < p; r += 2 * stride {
			merged, err := sparse.Merge(cur[r], cur[r+stride], k)
			if err != nil {
				t.Fatal(err)
			}
			cur[r] = merged
		}
	}
	return cur[0]
}

// TestGTopKAllReduceNonPow2Worlds: the generalised tree must work at any
// world size — the sizes an elastic job shrinks through (3, 5, 6, 7) —
// and agree bit-for-bit with a serial execution of the same schedule.
func TestGTopKAllReduceNonPow2Worlds(t *testing.T) {
	const dim, k = 120, 6
	for _, p := range []int{1, 3, 5, 6, 7} {
		_, vecs := makeWorkerVectors(uint64(40+p), p, dim, k)
		want := serialTreeMerge(t, vecs, k)
		spmd(t, p, func(c *collective.Comm) error {
			got, err := gtopk(context.Background(), c, vecs[c.Rank()].Clone(), k)
			if err != nil {
				return err
			}
			if got.NNZ() != want.NNZ() {
				return fmt.Errorf("p=%d: nnz %d want %d", p, got.NNZ(), want.NNZ())
			}
			for i := range want.Indices {
				if got.Indices[i] != want.Indices[i] || got.Values[i] != want.Values[i] {
					return fmt.Errorf("p=%d entry %d: (%d,%v) want (%d,%v)", p, i,
						got.Indices[i], got.Values[i], want.Indices[i], want.Values[i])
				}
			}
			return nil
		})
	}
}

func TestNaiveGTopKAllReduceMatchesGlobalTopK(t *testing.T) {
	const p, dim, k = 4, 150, 8
	_, vecs := makeWorkerVectors(99, p, dim, k)
	sumDense := make([]float32, dim)
	for _, v := range vecs {
		v.ScatterAdd(sumDense)
	}
	want := sparse.TopK(sumDense, k)
	spmd(t, p, func(c *collective.Comm) error {
		got, err := NaiveGTopKAllReduce(context.Background(), c, vecs[c.Rank()].Clone(), k)
		if err != nil {
			return err
		}
		if got.NNZ() != want.NNZ() {
			return fmt.Errorf("nnz %d want %d", got.NNZ(), want.NNZ())
		}
		for i := range want.Indices {
			if got.Indices[i] != want.Indices[i] {
				return fmt.Errorf("idx %d: %d want %d", i, got.Indices[i], want.Indices[i])
			}
			if math.Abs(float64(got.Values[i]-want.Values[i])) > 1e-5 {
				return fmt.Errorf("val %d: %v want %v", i, got.Values[i], want.Values[i])
			}
		}
		return nil
	})
}

func TestGTopKCommunicationCostMatchesEq7(t *testing.T) {
	// Attach a clock and confirm the charged time is the implemented
	// tree's price, netsim.GTopKTree = (2·logP − 1)·(α + 2kβ): the paper's
	// Eq. 7 less the one α + 2kβ the swapped top round saves. Ranks that
	// idle through broadcast rounds before their data arrives pay α alone
	// there, and the broadcast payload carries a small header, hence the
	// tolerance.
	const p, dim, k = 8, 100000, 100
	model := netsim.Paper1GbE()
	want := model.GTopKTree(p, k)
	if eq7 := model.GTopKAllReduce(p, k); want != eq7-model.PointToPoint(2*k) {
		t.Fatalf("GTopKTree %v is not Eq. 7 (%v) less one alpha + 2k beta", want, eq7)
	}
	_, vecs := makeWorkerVectors(123, p, dim, k)

	f, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	times := make([]time.Duration, p)
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var clock netsim.Clock
			c := collective.New(f.Conn(rank)).WithClock(&clock, model)
			_, err := gtopk(context.Background(), c, vecs[rank].Clone(), k)
			errs[rank] = err
			times[rank] = clock.Now()
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for rank, got := range times {
		ratio := float64(got) / float64(want)
		if ratio < 0.99 || ratio > 1.01 {
			t.Errorf("rank %d: charged %v, GTopKTree predicts %v (ratio %.3f)", rank, got, want, ratio)
		}
	}
}

// Property: for random worker vectors the tree result always has <= k
// entries, validates, and is identical across ranks.
func TestQuickGTopKAgreement(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		const p, dim = 4, 80
		k := int(kRaw%12) + 1
		_, vecs := makeWorkerVectors(seed, p, dim, k)

		fab, err := transport.NewInProc(p)
		if err != nil {
			return false
		}
		defer fab.Close()
		results := make([]*sparse.Vector, p)
		errsCh := make(chan error, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				got, err := gtopk(context.Background(), collective.New(fab.Conn(rank)), vecs[rank].Clone(), k)
				if err != nil {
					errsCh <- err
					return
				}
				results[rank] = got
			}(r)
		}
		wg.Wait()
		close(errsCh)
		if err := <-errsCh; err != nil {
			return false
		}
		for r := 0; r < p; r++ {
			if results[r].NNZ() > k || results[r].Validate() != nil {
				return false
			}
			if results[r].NNZ() != results[0].NNZ() {
				return false
			}
			for i := range results[0].Indices {
				if results[r].Indices[i] != results[0].Indices[i] ||
					results[r].Values[i] != results[0].Values[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
