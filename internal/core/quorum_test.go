package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

func TestQuorumConfigValidation(t *testing.T) {
	for _, tc := range []struct{ p, want int }{
		{2, 2}, {3, 3}, {4, 3}, {5, 4}, {8, 5}, {16, 9},
	} {
		if got := QuorumMin(tc.p); got != tc.want {
			t.Errorf("QuorumMin(%d) = %d, want %d", tc.p, got, tc.want)
		}
	}
	const p = 8
	if err := (QuorumConfig{Q: 5, Timeout: time.Second}).Validate(p); err != nil {
		t.Errorf("legal config rejected: %v", err)
	}
	for _, bad := range []QuorumConfig{
		{Q: 4, Timeout: time.Second},  // below majority+1
		{Q: 9, Timeout: time.Second},  // above P
		{Q: 0, Timeout: time.Second},  // zero quorum
		{Q: 6, Timeout: 0},            // no deadline
		{Q: 6, Timeout: -time.Second}, // negative deadline
	} {
		if err := bad.Validate(p); err == nil {
			t.Errorf("config %+v accepted for p=%d", bad, p)
		}
	}
}

func TestSetQuorum(t *testing.T) {
	fab, err := transport.NewInProc(4)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close() //nolint:errcheck // in-process close never fails
	agg, err := NewGTopKAggregator(collective.New(fab.Conn(0)), 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.SetQuorum(QuorumConfig{Q: 3, Timeout: time.Second}); err != nil {
		t.Fatalf("legal quorum rejected: %v", err)
	}
	if agg.Name() != "gtopk-quorum" {
		t.Fatalf("name %q, want gtopk-quorum", agg.Name())
	}
	if err := agg.SetQuorum(QuorumConfig{Q: 2, Timeout: time.Second}); err == nil {
		t.Fatal("sub-majority quorum accepted")
	}
	if err := agg.SetQuorum(QuorumConfig{}); err != nil {
		t.Fatalf("disable rejected: %v", err)
	}
	if agg.Name() != "gtopk" {
		t.Fatalf("name %q after disable, want gtopk", agg.Name())
	}
	naive, err := NewNaiveGTopKAggregator(collective.New(fab.Conn(1)), 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := naive.SetQuorum(QuorumConfig{Q: 3, Timeout: time.Second}); err == nil {
		t.Fatal("quorum accepted on the naive AllGather path")
	}

	// The bucketed pipeline takes the flat configuration its buckets'
	// collective takes, and names it.
	bucketed, err := NewBucketedAggregator(collective.New(fab.Conn(2)), []int{0, 40, 100}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bucketed.SetQuorum(QuorumConfig{Q: 3, Timeout: time.Second}); err != nil {
		t.Fatalf("legal quorum rejected: %v", err)
	}
	if bucketed.Name() != "gtopk-bucketed-quorum" {
		t.Fatalf("name %q, want gtopk-bucketed-quorum", bucketed.Name())
	}
	if bad := (QuorumConfig{Q: 3, LeaderQ: 2, Timeout: time.Second}); bucketed.SetQuorum(bad) == nil {
		t.Fatalf("config %+v accepted", bad)
	}
}

// runQuorumWorld drives one SPMD quorum round over fab, returning each
// rank's verdict vector, participation flag, and missed set.
func runQuorumWorld(t *testing.T, fab transport.Fabric, vecs []*sparse.Vector, k int, qc QuorumConfig) ([]*sparse.Vector, []bool, [][]int) {
	t.Helper()
	p := fab.Size()
	outs := make([]*sparse.Vector, p)
	parts := make([]bool, p)
	missed := make([][]int, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := collective.New(fab.Conn(r))
			outs[r], parts[r], missed[r], errs[r] =
				QuorumGTopKAllReduce(context.Background(), c, vecs[r].Clone(), k, qc)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return outs, parts, missed
}

// requireBitIdentical fails unless a and b agree entry-for-entry with
// bitwise-equal values (== would conflate -0 and +0).
func requireBitIdentical(t *testing.T, label string, a, b *sparse.Vector) {
	t.Helper()
	if a.NNZ() != b.NNZ() {
		t.Fatalf("%s: nnz %d vs %d", label, a.NNZ(), b.NNZ())
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] ||
			math.Float32bits(a.Values[i]) != math.Float32bits(b.Values[i]) {
			t.Fatalf("%s: entry %d: (%d, %x) vs (%d, %x)", label, i,
				a.Indices[i], math.Float32bits(a.Values[i]),
				b.Indices[i], math.Float32bits(b.Values[i]))
		}
	}
}

// TestQuorumFullSyncBitIdenticalToFlat: a q=P round is a deadline-guarded
// full synchronization and must reproduce the flat tree's bits exactly —
// on the in-process mailboxes AND the TCP mesh (the wire codecs differ,
// but both are lossless, so the merged floats are the same).
func TestQuorumFullSyncBitIdenticalToFlat(t *testing.T) {
	const p, dim, k = 4, 300, 12
	_, vecs := makeWorkerVectors(2024, p, dim, k)

	// Flat-tree reference over a fresh in-process world.
	flat := make([]*sparse.Vector, p)
	var mu sync.Mutex
	spmd(t, p, func(c *collective.Comm) error {
		got, err := gtopk(context.Background(), c, vecs[c.Rank()].Clone(), k)
		if err != nil {
			return err
		}
		mu.Lock()
		flat[c.Rank()] = got
		mu.Unlock()
		return nil
	})

	newTCP := func() (transport.Fabric, error) { return transport.NewTCP(p) }
	newInproc := func() (transport.Fabric, error) { return transport.NewInProc(p) }
	for name, mk := range map[string]func() (transport.Fabric, error){
		"inproc": newInproc, "tcp": newTCP,
	} {
		t.Run(name, func(t *testing.T) {
			fab, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Close() //nolint:errcheck // test fabric
			outs, parts, missed := runQuorumWorld(t, fab, vecs, k,
				QuorumConfig{Q: p, Timeout: 5 * time.Second})
			for r := 0; r < p; r++ {
				if !parts[r] || len(missed[r]) != 0 {
					t.Fatalf("rank %d: participated=%v missed=%v under q=P", r, parts[r], missed[r])
				}
				requireBitIdentical(t, fmt.Sprintf("rank %d vs flat", r), outs[r], flat[0])
			}
		})
	}
}

// TestQuorumSlowRankAgreement: with one rank's outgoing links delayed far
// past the deadline, the round closes without it; every rank — the
// straggler included — decodes the identical verdict, the merge equals a
// serial fold of the participants' vectors, and the whole outcome is a
// pure function of (seed, straggler schedule): re-running the same
// schedule reproduces the same bits, on inproc and on TCP.
func TestQuorumSlowRankAgreement(t *testing.T) {
	const p, dim, k, slow = 4, 300, 12, 3
	_, vecs := makeWorkerVectors(777, p, dim, k)
	want := serialTreeMerge(t, vecs[:slow], k) // participants 0..2, rank order
	qc := QuorumConfig{Q: p - 1, Timeout: 200 * time.Millisecond}
	plan := transport.FaultPlan{Seed: 42, Delay: 3 * time.Second, SlowRanks: []int{slow}}

	run := func(t *testing.T, mk func() (transport.Fabric, error)) []*sparse.Vector {
		inner, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		fab := transport.NewFaultInjector(inner, plan)
		defer fab.Close() //nolint:errcheck // test fabric
		outs, parts, missed := runQuorumWorld(t, fab, vecs, k, qc)
		for r := 0; r < p; r++ {
			if wantPart := r != slow; parts[r] != wantPart {
				t.Fatalf("rank %d participated=%v, want %v", r, parts[r], wantPart)
			}
			if len(missed[r]) != 1 || missed[r][0] != slow {
				t.Fatalf("rank %d missed=%v, want [%d]", r, missed[r], slow)
			}
			requireBitIdentical(t, fmt.Sprintf("rank %d vs serial fold", r), outs[r], want)
		}
		return outs
	}

	t.Run("inproc", func(t *testing.T) {
		first := run(t, func() (transport.Fabric, error) { return transport.NewInProc(p) })
		again := run(t, func() (transport.Fabric, error) { return transport.NewInProc(p) })
		requireBitIdentical(t, "replayed schedule", again[0], first[0])
	})
	t.Run("tcp", func(t *testing.T) {
		run(t, func() (transport.Fabric, error) { return transport.NewTCP(p) })
	})
}

// runBucketedQuorumIters drives iters Aggregate calls of a bucketed
// pipeline on every rank of fab, returning per-rank per-iteration dense
// updates and quorum miss streaks.
func runBucketedQuorumIters(t *testing.T, fab transport.Fabric, bounds []int, density float64, qc QuorumConfig, iters int, gradFn func(iter, rank int) []float32) ([][][]float32, [][]int) {
	t.Helper()
	p := fab.Size()
	updates := make([][][]float32, p)
	streaks := make([][]int, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		updates[r] = make([][]float32, iters)
		streaks[r] = make([]int, iters)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			agg, err := NewBucketedAggregator(collective.New(fab.Conn(r)), bounds, density)
			if err != nil {
				errs[r] = err
				return
			}
			if qc.Q > 0 {
				if err := agg.SetQuorum(qc); err != nil {
					errs[r] = err
					return
				}
			}
			for it := 0; it < iters; it++ {
				up, err := agg.Aggregate(context.Background(), gradFn(it, r))
				if err != nil {
					errs[r] = fmt.Errorf("iter %d: %w", it, err)
					return
				}
				updates[r][it] = DenseUpdate(up, bounds[len(bounds)-1])
				streaks[r][it] = agg.QuorumMissStreak()
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return updates, streaks
}

// TestBucketedQuorum: per-bucket quorum rounds behave like the flat
// aggregator's — q=P reproduces the non-quorum bucketed pipeline
// bit-for-bit, and a persistently slow rank misses every bucket round,
// growing its streak while all replicas (itself included) keep applying
// identical updates.
func TestBucketedQuorum(t *testing.T) {
	const p, dim, density, iters = 4, 400, 0.03, 3
	bounds := []int{0, 150, dim}
	gradFn := func(iter, rank int) []float32 {
		src := prng.New(uint64(1000*iter + rank))
		g := make([]float32, dim)
		for i := range g {
			g[i] = float32(src.NormFloat64())
		}
		return g
	}
	newWorld := func() transport.Fabric {
		fab, err := transport.NewInProc(p)
		if err != nil {
			t.Fatal(err)
		}
		return fab
	}

	flatFab := newWorld()
	defer flatFab.Close() //nolint:errcheck // test fabric
	flat, _ := runBucketedQuorumIters(t, flatFab, bounds, density, QuorumConfig{}, iters, gradFn)

	fullFab := newWorld()
	defer fullFab.Close() //nolint:errcheck // test fabric
	full, fullStreaks := runBucketedQuorumIters(t, fullFab, bounds, density,
		QuorumConfig{Q: p, Timeout: 5 * time.Second}, iters, gradFn)
	for r := 0; r < p; r++ {
		for it := 0; it < iters; it++ {
			if fullStreaks[r][it] != 0 {
				t.Fatalf("rank %d iter %d streak %d under q=P", r, it, fullStreaks[r][it])
			}
			for i := range flat[r][it] {
				if math.Float32bits(full[r][it][i]) != math.Float32bits(flat[r][it][i]) {
					t.Fatalf("rank %d iter %d: q=P diverged from flat pipeline at %d", r, it, i)
				}
			}
		}
	}

	const slow = 3
	slowFab := transport.NewFaultInjector(newWorld(), transport.FaultPlan{
		Seed: 5, Delay: 1500 * time.Millisecond, SlowRanks: []int{slow},
	})
	defer slowFab.Close() //nolint:errcheck // test fabric
	ups, streaks := runBucketedQuorumIters(t, slowFab, bounds, density,
		QuorumConfig{Q: p - 1, Timeout: 150 * time.Millisecond}, iters, gradFn)
	for it := 0; it < iters; it++ {
		for r := 0; r < p; r++ {
			want := 0
			if r == slow {
				want = it + 1
			}
			if streaks[r][it] != want {
				t.Fatalf("rank %d iter %d streak %d, want %d", r, it, streaks[r][it], want)
			}
			for i := range ups[0][it] {
				if math.Float32bits(ups[r][it][i]) != math.Float32bits(ups[0][it][i]) {
					t.Fatalf("rank %d iter %d update diverged at %d", r, it, i)
				}
			}
		}
	}
}

// TestQuorumAggregatorResidualConservation pins the conservation law end
// to end through GTopKAggregator: a straggler's selected mass is refunded
// to its residual bit-for-bit (round 2), kept out of that round's global
// update, and rides into the next round's aggregate once the rank
// participates again (round 3).
func TestQuorumAggregatorResidualConservation(t *testing.T) {
	const p, dim, k, slow = 4, 400, 12, 3
	spike := []int32{7, 123, 300}
	// Link 3→0 carries exactly one gather frame per round; StallEvery=2
	// stalls ordinals 1, 3, ... — so the slow rank makes round 1, misses
	// round 2, and makes round 3.
	plan := transport.FaultPlan{
		Seed: 9, StallEvery: 2, StallFor: 1500 * time.Millisecond, SlowRanks: []int{slow},
	}
	inner, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewFaultInjector(inner, plan)
	defer fab.Close() //nolint:errcheck // test fabric
	qc := QuorumConfig{Q: p - 1, Timeout: 200 * time.Millisecond}

	grads := func(round, rank int) []float32 {
		g := make([]float32, dim)
		switch round {
		case 0:
			src := prng.New(uint64(100 + rank))
			for i := range g {
				g[i] = float32(src.NormFloat64())
			}
		case 1:
			if rank == slow {
				for i, idx := range spike {
					g[idx] = 500 + 100*float32(i)
				}
			} else {
				src := prng.New(uint64(200 + rank))
				for i := range g {
					g[i] = float32(src.NormFloat64())
				}
			}
		}
		return g // round 2: all zeros — only residual mass competes
	}

	updates := make([][3][]float32, p) // per rank, per round dense update
	streaks := make([][3]int, p)       // per rank, per round miss streak
	var slowResidualBefore []float32   // slow rank residual entering round 2
	var slowResidualAfter []float32    // ... and leaving it
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			agg, err := NewGTopKAggregator(collective.New(fab.Conn(r)), dim, k)
			if err != nil {
				errs[r] = err
				return
			}
			if err := agg.SetQuorum(qc); err != nil {
				errs[r] = err
				return
			}
			for round := 0; round < 3; round++ {
				if round == 2 {
					// Let the stalled round-2 frame drain off the 3→0 link
					// before round 3 opens: the link is FIFO, so the round-3
					// frame queues behind it and would otherwise inherit the
					// stall (head-of-line blocking — realistic, but not what
					// this round is pinning).
					time.Sleep(plan.StallFor + 500*time.Millisecond)
				}
				if r == slow && round == 1 {
					slowResidualBefore = append([]float32(nil), agg.Sparsifier().Residual()...)
				}
				up, err := agg.Aggregate(context.Background(), grads(round, r))
				if err != nil {
					errs[r] = fmt.Errorf("round %d: %w", round, err)
					return
				}
				updates[r][round] = DenseUpdate(up, dim)
				streaks[r][round] = agg.QuorumMissStreak()
				if r == slow && round == 1 {
					slowResidualAfter = append([]float32(nil), agg.Sparsifier().Residual()...)
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	// Round 1: everyone made it.
	for r := 0; r < p; r++ {
		if streaks[r][0] != 0 {
			t.Fatalf("rank %d round 1 streak %d, want 0", r, streaks[r][0])
		}
	}
	// Round 2: the straggler missed; everyone else participated; all
	// ranks (the straggler included) applied the identical update, which
	// excludes the straggler's spike.
	if streaks[slow][1] != 1 {
		t.Fatalf("slow rank round 2 streak %d, want 1", streaks[slow][1])
	}
	for r := 0; r < p; r++ {
		if r != slow && streaks[r][1] != 0 {
			t.Fatalf("rank %d round 2 streak %d, want 0", r, streaks[r][1])
		}
		for i := range updates[0][1] {
			if math.Float32bits(updates[r][1][i]) != math.Float32bits(updates[0][1][i]) {
				t.Fatalf("rank %d round 2 update diverged at %d", r, i)
			}
		}
		for _, idx := range spike {
			if updates[r][1][idx] != 0 {
				t.Fatalf("rank %d round 2 update carries the straggler's spike at %d", r, idx)
			}
		}
	}
	// Conservation, bit-for-bit: the straggler's residual after the
	// missed round is exactly residual-before + gradient — selection
	// extracted the top-k and Refund put the identical floats back.
	slowGrad := grads(1, slow)
	for i := range slowResidualAfter {
		want := slowResidualBefore[i] + slowGrad[i]
		if math.Float32bits(slowResidualAfter[i]) != math.Float32bits(want) {
			t.Fatalf("slow residual[%d] = %x, want %x (no mass may be lost)",
				i, math.Float32bits(slowResidualAfter[i]), math.Float32bits(want))
		}
	}
	// Round 3: the refunded spike dominates the straggler's selection and
	// enters the global aggregate — deferred, not lost.
	if streaks[slow][2] != 0 {
		t.Fatalf("slow rank round 3 streak %d, want 0", streaks[slow][2])
	}
	for _, idx := range spike {
		if updates[0][2][idx] == 0 {
			t.Fatalf("round 3 update missing the refunded spike at %d", idx)
		}
	}
	for r := 1; r < p; r++ {
		for i := range updates[0][2] {
			if math.Float32bits(updates[r][2][i]) != math.Float32bits(updates[0][2][i]) {
				t.Fatalf("rank %d round 3 update diverged at %d", r, i)
			}
		}
	}
}
