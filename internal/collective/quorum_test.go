package collective

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/transport"
)

// runQuorumRanks drives one SPMD QuorumGather round across all ranks of
// a fresh in-process fabric, with sleeps[r] delaying rank r's call.
func runQuorumRanks(t *testing.T, p, root, q int, timeout time.Duration, sleeps []time.Duration) ([]*QuorumRound, []time.Duration) {
	t.Helper()
	fab, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close() //nolint:errcheck // in-process close never fails
	results := make([]*QuorumRound, p)
	errs := make([]error, p)
	elapsed := make([]time.Duration, p)
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if sleeps != nil && sleeps[r] > 0 {
				time.Sleep(sleeps[r])
			}
			comm := New(fab.Conn(r))
			results[r], errs[r] = comm.QuorumGather(context.Background(), root, q, timeout,
				[]byte(fmt.Sprintf("frame-%d", r)))
			elapsed[r] = time.Since(start)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results, elapsed
}

func TestQuorumGatherFullParticipation(t *testing.T) {
	const p, root = 4, 0
	res, _ := runQuorumRanks(t, p, root, p-1, 5*time.Second, nil)
	got := res[root]
	if len(got.Participants) != p || len(got.Missed) != 0 {
		t.Fatalf("participants %v missed %v, want all %d ranks", got.Participants, got.Missed, p)
	}
	for r := 0; r < p; r++ {
		want := fmt.Sprintf("frame-%d", r)
		if string(got.Blobs[r]) != want {
			t.Fatalf("rank %d blob %q want %q", r, got.Blobs[r], want)
		}
	}
	for r := 1; r < p; r++ {
		if res[r].Blobs != nil || res[r].Participants != nil {
			t.Fatalf("non-root rank %d returned root-side state %+v", r, res[r])
		}
	}
}

func TestQuorumGatherClosesWithoutStraggler(t *testing.T) {
	const p, root = 4, 0
	sleeps := make([]time.Duration, p)
	sleeps[3] = 2 * time.Second // well past the deadline
	res, elapsed := runQuorumRanks(t, p, root, p-1, 100*time.Millisecond, sleeps)
	if elapsed[root] >= 2*time.Second {
		t.Fatalf("root waited %v for the straggler — quorum did not close early", elapsed[root])
	}
	got := res[root]
	if len(got.Participants) != p-1 {
		t.Fatalf("participants %v, want %d ranks", got.Participants, p-1)
	}
	if len(got.Missed) != 1 || got.Missed[0] != 3 {
		t.Fatalf("missed %v, want [3]", got.Missed)
	}
	if got.Blobs[3] != nil {
		t.Fatal("straggler's blob present despite missing the deadline")
	}
}

func TestQuorumGatherWaitsForQuorumFloor(t *testing.T) {
	// Two of four ranks are slower than the deadline, but q=3 means the
	// round must NOT close at the deadline with only 2 contributions —
	// it waits for the third.
	const p, root = 4, 0
	sleeps := make([]time.Duration, p)
	sleeps[2] = 300 * time.Millisecond
	sleeps[3] = 300 * time.Millisecond
	res, _ := runQuorumRanks(t, p, root, 3, 50*time.Millisecond, sleeps)
	got := res[root]
	if len(got.Participants) < 3 {
		t.Fatalf("round closed under quorum: participants %v", got.Participants)
	}
}

func TestQuorumGatherValidation(t *testing.T) {
	fab, err := transport.NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close() //nolint:errcheck // in-process close never fails
	comm := New(fab.Conn(0))
	ctx := context.Background()
	if _, err := comm.QuorumGather(ctx, -1, 1, time.Second, nil); err == nil {
		t.Fatal("bad root accepted")
	}
	if _, err := comm.QuorumGather(ctx, 0, 0, time.Second, nil); err == nil {
		t.Fatal("q=0 accepted")
	}
	if _, err := comm.QuorumGather(ctx, 0, 3, time.Second, nil); err == nil {
		t.Fatal("q>P accepted")
	}
	if _, err := comm.QuorumGather(ctx, 0, 1, 0, nil); err == nil {
		t.Fatal("zero timeout accepted")
	}
}

func TestChargeQuorumRoundUniformAndLinks(t *testing.T) {
	fab, err := transport.NewInProc(4)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close() //nolint:errcheck // in-process close never fails

	model := netsim.Model{Alpha: time.Millisecond, Beta: time.Nanosecond}
	clock := &netsim.Clock{}
	comm := New(fab.Conn(1)).WithClock(clock, model)
	parts := []int{0, 1, 2}
	comm.ChargeQuorumRound(0, parts, 100, 200)
	want := model.Round(3, 100) + model.Round(4, 200)
	if clock.Now() != want {
		t.Fatalf("uniform charge %v want %v", clock.Now(), want)
	}
	if comm.Stats().Rounds != 2 {
		t.Fatalf("rounds %d want 2", comm.Stats().Rounds)
	}

	intra := netsim.Model{Alpha: time.Millisecond, Beta: time.Nanosecond}
	inter := netsim.Model{Alpha: 40 * time.Millisecond, Beta: 10 * time.Nanosecond}
	lm, err := netsim.NewLinkModel(intra, inter, 2)
	if err != nil {
		t.Fatal(err)
	}
	clock.Reset()
	comm.WithLinks(lm)
	if comm.links != lm {
		t.Fatal("WithLinks lost the model")
	}
	comm.ChargeQuorumRound(0, parts, 100, 200)
	want = lm.QuorumRound(4, 0, 1, parts, 100, 200)
	if clock.Now() != want {
		t.Fatalf("link charge %v want %v", clock.Now(), want)
	}

	// A forked child inherits the link model.
	kids, err := comm.Fork(1)
	if err != nil {
		t.Fatal(err)
	}
	if kids[0].links != lm {
		t.Fatal("fork dropped the link model")
	}

	// Untimed communicators only count rounds.
	untimed := New(fab.Conn(2)).WithLinks(lm)
	untimed.ChargeQuorumRound(0, parts, 100, 200)
	if untimed.Stats().Rounds != 2 {
		t.Fatalf("untimed rounds %d want 2", untimed.Stats().Rounds)
	}
}

func TestChargeHierQuorumRoundUniformAndLinks(t *testing.T) {
	fab, err := transport.NewInProc(8)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close() //nolint:errcheck // in-process close never fails

	model := netsim.Model{Alpha: time.Millisecond, Beta: time.Nanosecond}
	clock := &netsim.Clock{}
	comm := New(fab.Conn(1)).WithClock(clock, model)
	// g=4 over world=8: group 0 contributes 3 members, group 1 contributes
	// 2, so the uniform fallback synchronizes maxIntra=3 at the intra
	// level, partGroups=2 at the leader level, then fans the verdict over
	// numGroups=2 leaders and relay=g=4 members.
	parts := []int{0, 1, 2, 4, 5}
	comm.ChargeHierQuorumRound(0, 4, parts, 100, 200)
	want := model.Round(3, 100) + model.Round(2, 100) + model.Round(2, 200) + model.Round(4, 200)
	if clock.Now() != want {
		t.Fatalf("uniform hier charge %v want %v", clock.Now(), want)
	}
	if comm.Stats().Rounds != 4 {
		t.Fatalf("rounds %d want 4", comm.Stats().Rounds)
	}

	intra := netsim.Model{Alpha: time.Millisecond, Beta: time.Nanosecond}
	inter := netsim.Model{Alpha: 40 * time.Millisecond, Beta: 10 * time.Nanosecond}
	lm, err := netsim.NewLinkModel(intra, inter, 4)
	if err != nil {
		t.Fatal(err)
	}
	clock.Reset()
	comm.WithLinks(lm)
	comm.ChargeHierQuorumRound(0, 4, parts, 100, 200)
	want = lm.HierQuorumRound(8, 4, 0, 1, parts, 100, 200)
	if clock.Now() != want {
		t.Fatalf("link hier charge %v want %v", clock.Now(), want)
	}

	// Untimed communicators only count rounds.
	untimed := New(fab.Conn(2))
	untimed.ChargeHierQuorumRound(0, 4, parts, 100, 200)
	if untimed.Stats().Rounds != 4 {
		t.Fatalf("untimed rounds %d want 4", untimed.Stats().Rounds)
	}
}
