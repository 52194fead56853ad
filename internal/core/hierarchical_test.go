package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// hierOracle replays the hierarchical merge order in-memory: each
// contiguous group of g vectors folds through the binomial-tree schedule
// (exactly what the intra-group flat collective computes), and the
// per-group results fold through the same schedule at the leader level.
func hierOracle(t *testing.T, vecs []*sparse.Vector, k, g int) *sparse.Vector {
	t.Helper()
	var groupRes []*sparse.Vector
	for lo := 0; lo < len(vecs); lo += g {
		hi := lo + g
		if hi > len(vecs) {
			hi = len(vecs)
		}
		groupRes = append(groupRes, serialTreeMerge(t, vecs[lo:hi], k))
	}
	return serialTreeMerge(t, groupRes, k)
}

// hierOnce runs one hierarchical collective over groups of g ranks forked
// for this call — the quorum form when qc is set, the plain one
// otherwise — into a fresh vector, and folds the groups' counters into
// comm as an aggregator's round does. g <= 1 or g >= P is the flat
// collective.
func hierOnce(ctx context.Context, comm *collective.Comm, local *sparse.Vector, k, g int, qc QuorumConfig) (out *sparse.Vector, participated bool, missed []int, err error) {
	gc, err := ForkHier(comm, g)
	if err != nil {
		return nil, false, nil, err
	}
	out, participated = &sparse.Vector{}, true
	if qc.Q > 0 {
		participated, missed, err = HierQuorumGTopKAllReduceInto(ctx, comm, gc, local, k, g, qc, out)
	} else {
		err = GTopKInto(ctx, comm, gc, local, k, out)
	}
	if err != nil {
		return nil, false, nil, err
	}
	foldHierStats(comm, gc)
	return out, participated, missed, nil
}

// runHierarchical executes the hierarchical collective on every rank of a
// fresh in-process fabric and returns the per-rank results.
func runHierarchical(t *testing.T, vecs []*sparse.Vector, k, g int) []*sparse.Vector {
	t.Helper()
	results := make([]*sparse.Vector, len(vecs))
	var mu sync.Mutex
	spmd(t, len(vecs), func(c *collective.Comm) error {
		out, _, _, err := hierOnce(context.Background(), c, vecs[c.Rank()].Clone(), k, g, QuorumConfig{})
		if err != nil {
			return err
		}
		mu.Lock()
		results[c.Rank()] = out
		mu.Unlock()
		return nil
	})
	return results
}

// TestHierarchicalMatchesOracle pins the two-level semantics: for every
// (P, G) — divisible, non-divisible, tail group of one — and for
// tie-heavy value distributions, every rank returns exactly the
// group-tree-then-leader-tree merge of the inputs.
func TestHierarchicalMatchesOracle(t *testing.T) {
	const dim, k = 240, 12
	for _, p := range []int{4, 6, 8, 9, 16} {
		for _, g := range []int{2, 3, 4, 8} {
			if g >= p {
				continue
			}
			for _, mode := range []string{"gauss", "ties"} {
				var vecs []*sparse.Vector
				if mode == "gauss" {
					_, vecs = makeWorkerVectors(uint64(200+p*10+g), p, dim, k)
				} else {
					vecs = tieHeavyVectors(uint64(300+p*10+g), p, dim, k)
				}
				want := hierOracle(t, vecs, k, g)
				results := runHierarchical(t, vecs, k, g)
				for r, got := range results {
					assertVecEqual(t, fmt.Sprintf("p=%d g=%d %s rank %d", p, g, mode, r), want, got)
				}
			}
		}
	}
}

// TestHierarchicalDegenerateGroupsMatchFlat: G >= P and G = 1 must be
// bit-identical to the flat GTopKInto.
func TestHierarchicalDegenerateGroupsMatchFlat(t *testing.T) {
	const p, dim, k = 8, 240, 12
	_, vecs := makeWorkerVectors(41, p, dim, k)
	flat := runFlat(t, vecs, k)
	for _, g := range []int{1, p, p + 3} {
		results := runHierarchical(t, vecs, k, g)
		for r, got := range results {
			assertVecEqual(t, fmt.Sprintf("g=%d rank %d vs flat", g, r), flat[r], got)
		}
	}
}

// TestHierarchicalOverTCPMatchesInproc runs the hierarchical collective
// over real loopback sockets and requires bit-identity with the
// in-process fabric — the per-fabric determinism pin.
func TestHierarchicalOverTCPMatchesInproc(t *testing.T) {
	const p, g, dim, k = 8, 4, 300, 10
	_, vecs := makeWorkerVectors(17, p, dim, k)
	want := hierOracle(t, vecs, k, g)

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
			res, _, _, err := hierOnce(context.Background(),
				collective.New(fab.Conn(rank)), vecs[rank].Clone(), k, g, QuorumConfig{})
			errs[rank], results[rank] = err, res
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

// TestHierarchicalLeaderArrivalOrderInvariance staggers rank start times
// (leaders last, then leaders first) and requires the result bits to be
// unaffected — the merge order is fixed by the tree schedules, not by
// who shows up when.
func TestHierarchicalLeaderArrivalOrderInvariance(t *testing.T) {
	const p, g, dim, k = 8, 4, 240, 12
	_, vecs := makeWorkerVectors(59, p, dim, k)
	want := hierOracle(t, vecs, k, g)

	for _, leadersFirst := range []bool{true, false} {
		fab, err := transport.NewInProc(p)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, p)
		results := make([]*sparse.Vector, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				isLeader := rank%g == 0
				if isLeader == leadersFirst {
					time.Sleep(time.Duration(1+rank) * time.Millisecond)
				} else {
					time.Sleep(time.Duration(20+rank) * time.Millisecond)
				}
				res, _, _, err := hierOnce(context.Background(),
					collective.New(fab.Conn(rank)), vecs[rank].Clone(), k, g, QuorumConfig{})
				errs[rank], results[rank] = err, res
			}(r)
		}
		wg.Wait()
		fab.Close()
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("leadersFirst=%v rank %d: %v", leadersFirst, rank, err)
			}
		}
		for r := 0; r < p; r++ {
			assertVecEqual(t, fmt.Sprintf("leadersFirst=%v rank %d", leadersFirst, r), want, results[r])
		}
	}
}

// TestHierarchicalSimulatedTime replays the implementation's α-β charges
// for world rank 0 (group leader and global root) and requires the
// simulated clock to match exactly, with the synchronization-skew term
// active — the accounting the hierarchy bench experiment depends on.
func TestHierarchicalSimulatedTime(t *testing.T) {
	const p, g, dim, k = 8, 4, 240, 12
	_, vecs := makeWorkerVectors(67, p, dim, k)
	model := netsim.Paper1GbE().WithSyncSkew(netsim.DefaultSyncGamma)

	globalWant := hierOracle(t, vecs, k, g)
	leaders := (p + g - 1) / g

	clocks := make([]*netsim.Clock, p)
	spmd(t, p, func(c *collective.Comm) error {
		clock := &netsim.Clock{}
		clocks[c.Rank()] = clock
		c.WithClock(clock, model)
		_, _, _, err := hierOnce(context.Background(), c, vecs[c.Rank()].Clone(), k, g, QuorumConfig{})
		return err
	})

	// Rank 0's charge sequence: one group gather round (the g−1 member
	// frames it receives), the leader tree (reduce rounds, the last one
	// the swap, then broadcast rounds of the global payload), one group
	// fan-out round (the g−1 copies of the global payload it sends).
	// Payload element counts follow the flat collective's v1 accounting:
	// 2k modelled elements per reduce frame, EncodedSize(nnz)/4 per
	// broadcast frame. 2 + 2·lgL − 1 rounds in all.
	lgL := netsim.CeilLog2(leaders)
	bcast := sparse.EncodedSize(globalWant.NNZ()) / 4
	want := model.Round(g, (g-1)*2*k) +
		time.Duration(lgL)*model.Round(leaders, 2*k) +
		time.Duration(lgL-1)*model.Round(leaders, bcast) +
		model.Round(g, (g-1)*bcast)
	if got := clocks[0].Now(); got != want {
		t.Fatalf("rank 0 simulated time %v, want %v", got, want)
	}
	// Every rank's clock is bounded by the root's total (idle rounds pay
	// only the latency term) and strictly positive.
	for r := 1; r < p; r++ {
		if clocks[r].Now() <= 0 || clocks[r].Now() > clocks[0].Now() {
			t.Fatalf("rank %d simulated time %v outside (0, %v]", r, clocks[r].Now(), clocks[0].Now())
		}
	}
}

// TestHierarchicalAggregatorDegenerateMatchesGTopK trains the same
// stream of gradients through GTopKAggregator and a degenerate-group
// HierarchicalAggregator (G = P) and requires bit-identical updates —
// including the residual trajectory across iterations.
func TestHierarchicalAggregatorDegenerateMatchesGTopK(t *testing.T) {
	const p, dim, k, iters = 4, 120, 6, 5
	updatesFlat := aggregatorTrajectory(t, p, dim, iters, func(c *collective.Comm) (Aggregator, error) {
		return NewGTopKAggregator(c, dim, k)
	})
	updatesHier := aggregatorTrajectory(t, p, dim, iters, func(c *collective.Comm) (Aggregator, error) {
		return NewHierarchicalAggregator(c, dim, k, p)
	})
	for it := range updatesFlat {
		for r := range updatesFlat[it] {
			assertDenseEqual(t, fmt.Sprintf("iter %d rank %d", it, r), updatesFlat[it][r], updatesHier[it][r])
		}
	}
}

// TestHierarchicalAggregatorReplicasAgree runs the real hierarchical
// regime (1 < G < P) for several iterations over one persistent
// aggregator per rank — exercising tag-space reuse in the forked group
// comms — and requires all ranks to produce identical updates every
// iteration.
func TestHierarchicalAggregatorReplicasAgree(t *testing.T) {
	const p, g, dim, k, iters = 8, 4, 120, 6, 5
	updates := aggregatorTrajectory(t, p, dim, iters, func(c *collective.Comm) (Aggregator, error) {
		return NewHierarchicalAggregator(c, dim, k, g)
	})
	for it := range updates {
		for r := 1; r < p; r++ {
			assertDenseEqual(t, fmt.Sprintf("iter %d rank %d vs 0", it, r), updates[it][0], updates[it][r])
		}
	}
}

// aggregatorTrajectory runs `iters` aggregation rounds of deterministic
// per-rank gradients through one aggregator per rank and returns the
// per-iteration per-rank dense updates.
func aggregatorTrajectory(t *testing.T, p, dim, iters int, build func(c *collective.Comm) (Aggregator, error)) [][][]float32 {
	t.Helper()
	updates := make([][][]float32, iters)
	for it := range updates {
		updates[it] = make([][]float32, p)
	}
	var mu sync.Mutex
	spmd(t, p, func(c *collective.Comm) error {
		agg, err := build(c)
		if err != nil {
			return err
		}
		for it := 0; it < iters; it++ {
			grads, _ := makeWorkerVectors(uint64(700+it), p, dim, dim)
			up, err := agg.Aggregate(context.Background(), grads[c.Rank()])
			if err != nil {
				return err
			}
			cp := DenseUpdate(up, dim)
			mu.Lock()
			updates[it][c.Rank()] = cp
			mu.Unlock()
		}
		return nil
	})
	return updates
}

func assertDenseEqual(t *testing.T, label string, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: len %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: elem %d: %v vs %v", label, i, want[i], got[i])
		}
	}
}
