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

// runHierarchical executes HierarchicalGTopKAllReduce on every rank of a
// fresh in-process fabric and returns the per-rank results.
func runHierarchical(t *testing.T, vecs []*sparse.Vector, k, g int) []*sparse.Vector {
	t.Helper()
	results := make([]*sparse.Vector, len(vecs))
	var mu sync.Mutex
	spmd(t, len(vecs), func(c *collective.Comm) error {
		out, err := HierarchicalGTopKAllReduce(context.Background(), c, vecs[c.Rank()].Clone(), k, g)
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
// bit-identical to the flat GTopKAllReduce.
func TestHierarchicalDegenerateGroupsMatchFlat(t *testing.T) {
	const p, dim, k = 8, 240, 12
	_, vecs := makeWorkerVectors(41, p, dim, k)
	flat := runChunked(t, vecs, k, ChunksFor(k))
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
			res, err := HierarchicalGTopKAllReduce(context.Background(),
				collective.New(fab.Conn(rank)), vecs[rank].Clone(), k, g)
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
				res, err := HierarchicalGTopKAllReduce(context.Background(),
					collective.New(fab.Conn(rank)), vecs[rank].Clone(), k, g)
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

// TestHierarchicalFP16ReplicasAgree: under the lossy v3-fp16 codec every
// rank must still hold bit-identical results — the broadcast roots round
// through binary16 before encoding at both levels.
func TestHierarchicalFP16ReplicasAgree(t *testing.T) {
	const p, g, dim, k = 8, 4, 300, 10
	_, vecs := makeWorkerVectors(23, p, dim, k)

	fab, err := transport.NewInProcWire(p, transport.WireV3)
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
			comm := collective.New(fab.Conn(rank))
			comm.SetCompressor(halfValues{})
			res, err := HierarchicalGTopKAllReduce(context.Background(), comm, vecs[rank].Clone(), k, g)
			errs[rank], results[rank] = err, res
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for r := 1; r < p; r++ {
		assertVecEqual(t, fmt.Sprintf("fp16 rank %d vs rank 0", r), results[0], results[r])
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
		_, err := HierarchicalGTopKAllReduce(context.Background(), c, vecs[c.Rank()].Clone(), k, g)
		return err
	})

	// Rank 0's charge sequence: intra reduce (no group broadcast), the
	// leader tree (reduce rounds, the last one the swap, then broadcast
	// rounds of the global payload), final intra bcast (global payload).
	// Payload element counts follow the flat collective's v1 accounting:
	// 2k modelled elements per reduce round, EncodedSize(nnz)/4 per
	// broadcast round. 2·lgG + 2·lgL − 1 rounds in all.
	lgG, lgL := netsim.CeilLog2(g), netsim.CeilLog2(leaders)
	bcast := sparse.EncodedSize(globalWant.NNZ()) / 4
	want := time.Duration(lgG)*model.Round(g, 2*k) +
		time.Duration(lgL)*model.Round(leaders, 2*k) +
		time.Duration(lgL-1)*model.Round(leaders, bcast) +
		time.Duration(lgG)*model.Round(g, bcast)
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
			cp := append([]float32(nil), up...)
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

// TestHierarchicalBucketedMatchesHierComposition: the hierarchical
// bucketed pipeline must equal, bucket by bucket, the hierarchical
// collective applied to each bucket's slice independently — and its
// degenerate group must equal the flat bucketed pipeline bitwise.
func TestHierarchicalBucketedMatchesHierComposition(t *testing.T) {
	const p, g, dim = 8, 4, 200
	bounds := []int{0, 80, 200}
	const density = 0.05

	grads, _ := makeWorkerVectors(91, p, dim, dim)

	// Reference: per-bucket hierarchical aggregators over each slice.
	type sliceRef struct{ lo, hi, k int }
	var slices []sliceRef
	for i := 0; i+1 < len(bounds); i++ {
		slices = append(slices, sliceRef{bounds[i], bounds[i+1], DensityToK(bounds[i+1]-bounds[i], density)})
	}
	want := make([][]float32, p)
	for r := range want {
		want[r] = make([]float32, dim)
	}
	var mu sync.Mutex
	spmd(t, p, func(c *collective.Comm) error {
		for _, s := range slices {
			agg, err := NewHierarchicalAggregator(c, s.hi-s.lo, s.k, g)
			if err != nil {
				return err
			}
			up, err := agg.Aggregate(context.Background(), grads[c.Rank()][s.lo:s.hi])
			if err != nil {
				return err
			}
			mu.Lock()
			copy(want[c.Rank()][s.lo:s.hi], up)
			mu.Unlock()
		}
		return nil
	})

	// Quorum off, then a full quorum at both levels: a round every rank
	// makes must reproduce the full-sync bits.
	for _, row := range []struct {
		name   string
		quorum QuorumConfig
	}{
		{"gtopk-bucketed-hier", QuorumConfig{}},
		{"gtopk-bucketed-hier-quorum", QuorumConfig{Q: g, LeaderQ: p / g, Timeout: 30 * time.Second}},
	} {
		got := make([][]float32, p)
		spmd(t, p, func(c *collective.Comm) error {
			agg, err := NewHierarchicalBucketedAggregator(c, bounds, density, g)
			if err != nil {
				return err
			}
			if err := agg.SetQuorum(row.quorum); err != nil {
				return err
			}
			if agg.Name() != row.name {
				return fmt.Errorf("name %q, want %s", agg.Name(), row.name)
			}
			up, err := agg.Aggregate(context.Background(), append([]float32(nil), grads[c.Rank()]...))
			if err != nil {
				return err
			}
			if streak := agg.QuorumMissStreak(); streak != 0 {
				return fmt.Errorf("miss streak %d in a round every rank made", streak)
			}
			mu.Lock()
			got[c.Rank()] = append([]float32(nil), up...)
			mu.Unlock()
			return nil
		})
		for r := 0; r < p; r++ {
			assertDenseEqual(t, fmt.Sprintf("%s rank %d", row.name, r), want[r], got[r])
		}
	}
}
