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

func TestHierQuorumConfigValidation(t *testing.T) {
	const p, g = 8, 4 // two groups of four
	legal := []QuorumConfig{
		{Q: 3, Timeout: time.Second},
		{Q: 4, Timeout: time.Second, LeaderQ: 2},
	}
	for _, qc := range legal {
		if err := qc.ValidateHier(p, g); err != nil {
			t.Errorf("legal hier config %+v rejected: %v", qc, err)
		}
	}
	bad := []QuorumConfig{
		{Q: 2, Timeout: time.Second},             // below the group's strict majority
		{Q: 5, Timeout: time.Second},             // above the group size
		{Q: 3, Timeout: 0},                       // no deadline
		{Q: 3, Timeout: time.Second, LeaderQ: 1}, // below the leader-level majority
		{Q: 3, Timeout: time.Second, LeaderQ: 3}, // above the group count
	}
	for _, qc := range bad {
		if err := qc.ValidateHier(p, g); err == nil {
			t.Errorf("hier config %+v accepted for p=%d g=%d", qc, p, g)
		}
	}
	for _, tc := range []struct{ g int }{{1}, {8}, {9}} {
		if err := (QuorumConfig{Q: 3, Timeout: time.Second}).ValidateHier(p, tc.g); err == nil {
			t.Errorf("group size %d accepted for p=%d", tc.g, p)
		}
	}
	// The flat validator must reject the hierarchical field.
	if err := (QuorumConfig{Q: 5, Timeout: time.Second, LeaderQ: 2}).Validate(p); err == nil {
		t.Error("flat Validate accepted a leader quorum")
	}
}

func TestSplitLevels(t *testing.T) {
	qc := QuorumConfig{Q: 3, Timeout: time.Second}
	lt := qc.SplitLevels()
	if lt.Group != 250*time.Millisecond || lt.Leader != 500*time.Millisecond || lt.Broadcast != 250*time.Millisecond {
		t.Fatalf("default split %+v, want 1/4 : 1/2 : 1/4 of %v", lt, qc.Timeout)
	}
	if sum := lt.Group + lt.Leader + lt.Broadcast; sum != qc.Timeout {
		t.Fatalf("default split sums to %v, want the full %v round deadline", sum, qc.Timeout)
	}
	// An odd deadline still splits exactly: the remainder lands on the
	// broadcast budget.
	qc.Timeout = time.Second + 3*time.Nanosecond
	lt = qc.SplitLevels()
	if sum := lt.Group + lt.Leader + lt.Broadcast; sum != qc.Timeout {
		t.Fatalf("odd split sums to %v, want %v", sum, qc.Timeout)
	}
}

func TestGroupQuorumClamp(t *testing.T) {
	for _, tc := range []struct{ q, size, want int }{
		{3, 4, 3}, // full group, configured quorum
		{4, 4, 4}, // full sync
		{3, 2, 2}, // tail group of 2: clamped to its size (= its majority)
		{3, 3, 3}, // tail group of 3: QuorumMin(3)=3
		{4, 1, 1}, // tail group of 1: the leader alone is the whole group
	} {
		if got := groupQuorum(tc.q, tc.size); got != tc.want {
			t.Errorf("groupQuorum(%d, %d) = %d, want %d", tc.q, tc.size, got, tc.want)
		}
	}
}

// runHierQuorumWorld drives one SPMD hierarchical quorum round over fab,
// returning each rank's verdict vector, participation flag, and missed
// set.
func runHierQuorumWorld(t *testing.T, fab transport.Fabric, vecs []*sparse.Vector, k, g int, qc QuorumConfig) ([]*sparse.Vector, []bool, [][]int) {
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
				hierOnce(context.Background(), c, vecs[r].Clone(), k, g, qc)
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

// serialHierMerge is the hierarchical reference fold: the participating
// members of each group merge with the position-binomial schedule, then
// the participating groups' aggregates merge over leader positions.
func serialHierMerge(t *testing.T, vecs []*sparse.Vector, k, g int, participants []int) *sparse.Vector {
	t.Helper()
	p := len(vecs)
	isPart := make(map[int]bool, len(participants))
	for _, r := range participants {
		isPart[r] = true
	}
	var groups []*sparse.Vector
	for lo := 0; lo < p; lo += g {
		hi := lo + g
		if hi > p {
			hi = p
		}
		var members []*sparse.Vector
		for r := lo; r < hi; r++ {
			if isPart[r] {
				members = append(members, vecs[r])
			}
		}
		if len(members) > 0 {
			groups = append(groups, serialTreeMerge(t, members, k))
		}
	}
	return serialTreeMerge(t, groups, k)
}

// TestHierQuorumFullSyncBitIdenticalToHier: at q_g = G and q_l = all
// leaders every level is a deadline-guarded full synchronization, so the
// result must reproduce the hierarchical collective's bits exactly — on
// the in-process mailboxes AND the TCP mesh — which is how the
// hierarchical quorum inherits the hierarchy's determinism.
func TestHierQuorumFullSyncBitIdenticalToHier(t *testing.T) {
	const p, dim, k = 8, 300, 12
	_, vecs := makeWorkerVectors(3131, p, dim, k)

	for _, g := range []int{2, 4} {
		// Plain hierarchical reference over a fresh in-process world.
		hier := make([]*sparse.Vector, p)
		var mu sync.Mutex
		spmd(t, p, func(c *collective.Comm) error {
			got, _, _, err := hierOnce(context.Background(), c, vecs[c.Rank()].Clone(), k, g, QuorumConfig{})
			if err != nil {
				return err
			}
			mu.Lock()
			hier[c.Rank()] = got
			mu.Unlock()
			return nil
		})

		qc := QuorumConfig{Q: g, LeaderQ: p / g, Timeout: 5 * time.Second}
		for name, mk := range map[string]func() (transport.Fabric, error){
			"inproc": func() (transport.Fabric, error) { return transport.NewInProc(p) },
			"tcp":    func() (transport.Fabric, error) { return transport.NewTCP(p) },
		} {
			t.Run(fmt.Sprintf("g=%d/%s", g, name), func(t *testing.T) {
				fab, err := mk()
				if err != nil {
					t.Fatal(err)
				}
				defer fab.Close() //nolint:errcheck // test fabric
				outs, parts, missed := runHierQuorumWorld(t, fab, vecs, k, g, qc)
				for r := 0; r < p; r++ {
					if !parts[r] || len(missed[r]) != 0 {
						t.Fatalf("rank %d: participated=%v missed=%v under full quorums", r, parts[r], missed[r])
					}
					requireBitIdentical(t, fmt.Sprintf("rank %d vs hierarchical", r), outs[r], hier[0])
				}
			})
		}
	}
}

// TestHierQuorumSlowMemberAgreement: one slow member inside a group
// misses its intra-group deadline; the round closes without it, every
// rank — the straggler included — decodes the identical verdict, and
// the merge equals the serial two-level fold of the participants.
func TestHierQuorumSlowMemberAgreement(t *testing.T) {
	const p, dim, k, g, slow = 8, 300, 12, 4, 5
	_, vecs := makeWorkerVectors(414, p, dim, k)
	participants := []int{0, 1, 2, 3, 4, 6, 7}
	want := serialHierMerge(t, vecs, k, g, participants)
	qc := QuorumConfig{Q: 3, Timeout: 800 * time.Millisecond}
	plan := transport.FaultPlan{Seed: 17, Delay: 3 * time.Second, SlowRanks: []int{slow}}

	run := func(t *testing.T, mk func() (transport.Fabric, error)) []*sparse.Vector {
		inner, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		fab := transport.NewFaultInjector(inner, plan)
		defer fab.Close() //nolint:errcheck // test fabric
		outs, parts, missed := runHierQuorumWorld(t, fab, vecs, k, g, qc)
		for r := 0; r < p; r++ {
			if wantPart := r != slow; parts[r] != wantPart {
				t.Fatalf("rank %d participated=%v, want %v", r, parts[r], wantPart)
			}
			if len(missed[r]) != 1 || missed[r][0] != slow {
				t.Fatalf("rank %d missed=%v, want [%d]", r, missed[r], slow)
			}
			requireBitIdentical(t, fmt.Sprintf("rank %d vs serial hier fold", r), outs[r], want)
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

// TestHierQuorumPartitionedGroupAgreement: a whole group behind delayed
// links misses the leader-level deadline. Its aggregate never enters the
// world fold, every one of its members — leader included, whose frame
// DID close its own intra gather — is reported missed, and the verdict
// still reaches the partitioned members inside their verdict wait, so
// replicas never diverge.
func TestHierQuorumPartitionedGroupAgreement(t *testing.T) {
	const p, dim, k, g = 8, 300, 12, 2
	_, vecs := makeWorkerVectors(909, p, dim, k)
	participants := []int{0, 1, 2, 3, 4, 5} // group {6,7} partitioned away
	want := serialHierMerge(t, vecs, k, g, participants)
	// Budgets of 200/400/200ms: the 1.5s delay misses both gathers, and
	// the verdict wait the broadcast budget sizes (≈ 3.55s) survives the
	// delayed relay to the partitioned member.
	qc := QuorumConfig{Q: 2, LeaderQ: 3, Timeout: 800 * time.Millisecond}
	plan := transport.FaultPlan{Seed: 23, Delay: 1500 * time.Millisecond, SlowRanks: []int{6, 7}}

	inner, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewFaultInjector(inner, plan)
	defer fab.Close() //nolint:errcheck // test fabric
	outs, parts, missed := runHierQuorumWorld(t, fab, vecs, k, g, qc)
	for r := 0; r < p; r++ {
		if wantPart := r < 6; parts[r] != wantPart {
			t.Fatalf("rank %d participated=%v, want %v", r, parts[r], wantPart)
		}
		if len(missed[r]) != 2 || missed[r][0] != 6 || missed[r][1] != 7 {
			t.Fatalf("rank %d missed=%v, want [6 7]", r, missed[r])
		}
		requireBitIdentical(t, fmt.Sprintf("rank %d vs serial hier fold", r), outs[r], want)
	}
}

// TestHierarchicalSetQuorum covers the aggregator-level configuration
// surface: the grouped regime validates against (P, G), the degenerate
// flat regime against the world, and a zero config disables.
func TestHierarchicalSetQuorum(t *testing.T) {
	fab, err := transport.NewInProc(8)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close() //nolint:errcheck // in-process close never fails
	agg, err := NewHierarchicalAggregator(collective.New(fab.Conn(0)), 100, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.SetQuorum(QuorumConfig{Q: 3, LeaderQ: 2, Timeout: time.Second}); err != nil {
		t.Fatalf("legal hier quorum rejected: %v", err)
	}
	if got := agg.QuorumMissStreak(); got != 0 {
		t.Fatalf("initial miss streak %d, want 0", got)
	}
	if agg.Name() != "gtopk-hier-quorum" {
		t.Fatalf("name %q, want gtopk-hier-quorum", agg.Name())
	}
	if err := agg.SetQuorum(QuorumConfig{Q: 2, Timeout: time.Second}); err == nil {
		t.Fatal("sub-majority group quorum accepted")
	}
	if err := agg.SetQuorum(QuorumConfig{}); err != nil {
		t.Fatalf("disable rejected: %v", err)
	}
	if agg.Name() != "gtopk-hier" {
		t.Fatalf("name %q after disable, want gtopk-hier", agg.Name())
	}
	if agg.QuorumGroup() != 0 {
		t.Fatalf("quorum group %d, want 0", agg.QuorumGroup())
	}

	// Degenerate flat regime (group >= world): the flat validator applies.
	flat, err := NewHierarchicalAggregator(collective.New(fab.Conn(1)), 100, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.SetQuorum(QuorumConfig{Q: 6, Timeout: time.Second}); err != nil {
		t.Fatalf("legal flat quorum rejected in degenerate regime: %v", err)
	}
	// The name says what runs: one group spanning the world is the flat tree.
	if flat.Name() != "gtopk-quorum" || flat.QuorumGroup() != -1 {
		t.Fatalf("degenerate regime: name %q, quorum group %d; want gtopk-quorum, -1", flat.Name(), flat.QuorumGroup())
	}
	if err := flat.SetQuorum(QuorumConfig{Q: 6, LeaderQ: 2, Timeout: time.Second}); err == nil {
		t.Fatal("leader quorum accepted in the degenerate flat regime")
	}
}

// TestChaosHierQuorumRefundConservation is the fault-injected
// hierarchical quorum soak: one slow member inside a group AND one
// wholly partitioned group, over three aggregator rounds. The member
// stalls only in round 2 (it misses its intra deadline once, then
// recovers and its refunded mass enters round 3 — deferred, not lost);
// the partitioned group is behind a constant link delay and misses the
// leader deadline EVERY round, so its members streak together while
// their residuals keep the whole refunded mass. The conservation law
// after == before + grad must hold bit-for-bit for every missed rank at
// BOTH levels, and replicas must keep applying identical updates.
func TestChaosHierQuorumRefundConservation(t *testing.T) {
	const (
		p, dim, k, g = 16, 400, 12, 4
		slowMember   = 5 // inside group 1 (leader 4)
	)
	partitioned := []int{12, 13, 14, 15} // group 3, leader 12
	slowRanks := append([]int{slowMember}, partitioned...)
	spikes := map[int]int32{slowMember: 31, 12: 101, 13: 157, 14: 223, 15: 307}
	// The partitioned group's outgoing links pay a constant delay far
	// beyond every level budget; the slow member's single upward link
	// carries one frame per round, so StallEvery=2 stalls exactly its
	// round-2 frame. Injectors nest — each plan afflicts only its own
	// SlowRanks' links.
	planGroup := transport.FaultPlan{Seed: 77, Delay: 800 * time.Millisecond, SlowRanks: partitioned}
	planMember := transport.FaultPlan{Seed: 78, StallEvery: 2, StallFor: 800 * time.Millisecond, SlowRanks: []int{slowMember}}
	qc := QuorumConfig{
		Q: 3, LeaderQ: 3,
		// Budgets of 200/400/200ms. The broadcast budget sizes the verdict
		// wait: a partitioned member's verdict arrives only after its
		// leader has drained the delayed intra gather AND the delayed
		// relay link — about two link delays — well inside
		// verdictWait(200ms) ≈ 3.55s.
		Timeout: 800 * time.Millisecond,
	}

	inner, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewFaultInjector(transport.NewFaultInjector(inner, planGroup), planMember)
	defer fab.Close() //nolint:errcheck // test fabric

	grads := func(round, rank int) []float32 {
		g := make([]float32, dim)
		switch round {
		case 0:
			src := prng.New(uint64(300 + rank))
			for i := range g {
				g[i] = float32(src.NormFloat64())
			}
		case 1:
			if idx, slow := spikes[rank]; slow {
				g[idx] = 500 + float32(rank)
			} else {
				src := prng.New(uint64(600 + rank))
				for i := range g {
					g[i] = float32(src.NormFloat64())
				}
			}
		}
		return g // round 2: all zeros — only residual mass competes
	}
	isSlow := func(r int) bool {
		for _, s := range slowRanks {
			if s == r {
				return true
			}
		}
		return false
	}

	updates := make([][3][]float32, p)
	streaks := make([][3]int, p)
	resBefore := make([][]float32, p) // slow ranks: residual entering round 2
	resAfter := make([][]float32, p)  // ... leaving round 2
	resFinal := make([][]float32, p)  // ... and leaving round 3
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			agg, err := NewHierarchicalAggregator(collective.New(fab.Conn(r)), dim, k, g)
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
					// Let the slow member's stalled round-2 frame drain
					// off the FIFO link before round 3 opens (head-of-line
					// blocking is real, but not what this round pins).
					time.Sleep(planMember.StallFor + 500*time.Millisecond)
				}
				if isSlow(r) && round == 1 {
					resBefore[r] = append([]float32(nil), agg.Sparsifier().Residual()...)
				}
				up, err := agg.Aggregate(context.Background(), grads(round, r))
				if err != nil {
					errs[r] = fmt.Errorf("round %d: %w", round, err)
					return
				}
				updates[r][round] = DenseUpdate(up, dim)
				streaks[r][round] = agg.QuorumMissStreak()
				if isSlow(r) && round == 1 {
					resAfter[r] = append([]float32(nil), agg.Sparsifier().Residual()...)
				}
				if isSlow(r) && round == 2 {
					resFinal[r] = append([]float32(nil), agg.Sparsifier().Residual()...)
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

	// Streaks: the partitioned group misses every round and streaks
	// together — the group-granular degraded signal; the slow member
	// misses only round 2; everyone else never streaks.
	for r := 0; r < p; r++ {
		want := [3]int{0, 0, 0}
		switch {
		case r == slowMember:
			want = [3]int{0, 1, 0}
		case r >= 12:
			want = [3]int{1, 2, 3}
		}
		if streaks[r] != want {
			t.Fatalf("rank %d streaks %v, want %v", r, streaks[r], want)
		}
	}
	// Replica agreement every round: missed ranks still decode the
	// verdict inside their verdict wait, so updates never diverge.
	for round := 0; round < 3; round++ {
		for r := 1; r < p; r++ {
			for i := range updates[0][round] {
				if math.Float32bits(updates[r][round][i]) != math.Float32bits(updates[0][round][i]) {
					t.Fatalf("rank %d round %d update diverged at %d", r, round+1, i)
				}
			}
		}
	}
	// No missed rank's spike may leak into round 2's update (a spike
	// would contribute ~500/P; participants' honest mass at those indices
	// stays well under 1).
	for _, idx := range spikes {
		if u := updates[0][1][idx]; u > 1 || u < -1 {
			t.Fatalf("round 2 update carries a missed rank's spike at %d: %v", idx, u)
		}
	}
	// Conservation, bit-for-bit, at both levels: a missed rank's residual
	// after the round is exactly residual-before + gradient — whether it
	// missed its own intra deadline (rank 5) or its whole group missed
	// the leader round (ranks 12-15, the leader included, whose frame DID
	// close its own intra gather).
	for _, r := range slowRanks {
		grad := grads(1, r)
		for i := range resAfter[r] {
			want := resBefore[r][i] + grad[i]
			if math.Float32bits(resAfter[r][i]) != math.Float32bits(want) {
				t.Fatalf("rank %d residual[%d] = %x, want %x (no mass may be lost)",
					r, i, math.Float32bits(resAfter[r][i]), math.Float32bits(want))
			}
		}
	}
	// Round 3: the recovered member's refunded spike dominates its
	// selection and enters the global aggregate — deferred, not lost.
	if u := updates[0][2][spikes[slowMember]]; u < 1 {
		t.Fatalf("round 3 update missing the recovered member's spike: %v", u)
	}
	// A still-partitioned rank's round-3 selection is refunded whole, so
	// its residual is bitwise UNCHANGED across the round: repeated misses
	// conserve mass indefinitely, they never bleed it.
	for _, r := range partitioned {
		for i := range resFinal[r] {
			if math.Float32bits(resFinal[r][i]) != math.Float32bits(resAfter[r][i]) {
				t.Fatalf("rank %d residual[%d] changed across a fully-missed round", r, i)
			}
		}
	}
}
