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

// TestChargeLeg prices one leg: the uniform model's round among the
// given ranks without a link model, the slowest of the given links with
// one (an empty set costs nothing), a forked child keeps the link model,
// and an untimed communicator only counts rounds.
func TestChargeLeg(t *testing.T) {
	fab, err := transport.NewInProc(4)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close() //nolint:errcheck // in-process close never fails
	model := netsim.Model{Alpha: time.Millisecond, Beta: time.Nanosecond, SyncGamma: 0.5}
	clock := &netsim.Clock{}
	comm := New(fab.Conn(1)).WithClock(clock, model)
	comm.ChargeLeg(3, 100, [][2]int{{0, 1}})
	if want := model.Round(3, 100); clock.Now() != want {
		t.Fatalf("uniform leg %v, want %v", clock.Now(), want)
	}

	intra := netsim.Model{Alpha: time.Millisecond, Beta: time.Nanosecond}
	inter := netsim.Model{Alpha: 40 * time.Millisecond, Beta: 10 * time.Nanosecond}
	lm, err := netsim.NewLinkModel(intra, inter, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pairs [][2]int
		want  time.Duration
	}{
		{[][2]int{{1, 0}, {2, 0}, {3, 0}}, inter.PointToPoint(100)},
		{[][2]int{{1, 0}, {0, 0}}, intra.PointToPoint(100)},
		{nil, 0},
	} {
		clock.Reset()
		comm.WithLinks(lm).ChargeLeg(3, 100, tc.pairs)
		if clock.Now() != tc.want {
			t.Fatalf("links %v: leg %v, want %v", tc.pairs, clock.Now(), tc.want)
		}
	}
	if comm.Stats().Rounds != 4 {
		t.Fatalf("rounds %d, want 4", comm.Stats().Rounds)
	}
	kids, err := comm.Fork(1)
	if err != nil {
		t.Fatal(err)
	}
	if kids[0].links != lm {
		t.Fatal("fork dropped the link model")
	}
	untimed := New(fab.Conn(2)).WithLinks(lm)
	untimed.ChargeLeg(3, 100, [][2]int{{2, 0}})
	if untimed.Stats().Rounds != 1 {
		t.Fatalf("untimed rounds %d, want 1", untimed.Stats().Rounds)
	}
}

// takenConn counts, per source, the frames its Recv handed out.
type takenConn struct {
	transport.Conn
	mu    sync.Mutex
	taken map[int]int
}

func (c *takenConn) Recv(ctx context.Context, src, tag int) ([]byte, error) {
	blob, err := c.Conn.Recv(ctx, src, tag)
	if err == nil {
		c.mu.Lock()
		c.taken[src]++
		c.mu.Unlock()
	}
	return blob, err
}

func (c *takenConn) count(src int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.taken[src]
}

// TestQuorumGatherTakesMissedFrames: at q = P−1 with one rank's frames
// delayed far past the deadline, every round closes without it, and the
// root still takes each of its frames once it lands, so none stays
// queued — on the in-process and the TCP fabric.
func TestQuorumGatherTakesMissedFrames(t *testing.T) {
	const p, slow, rounds = 4, 3, 3
	const delay, timeout = 200 * time.Millisecond, 20 * time.Millisecond
	for _, tc := range []struct {
		name string
		mk   func() (transport.Fabric, error)
	}{
		{"inproc", func() (transport.Fabric, error) { return transport.NewInProc(p) }},
		{"tcp", func() (transport.Fabric, error) { return transport.NewTCP(p) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			fab := transport.NewFaultInjector(inner, transport.FaultPlan{Seed: 5, Delay: delay, SlowRanks: []int{slow}})
			defer fab.Close() //nolint:errcheck // test fabric
			root := &takenConn{Conn: fab.Conn(0), taken: make(map[int]int)}
			missed := make([][]int, rounds)
			errs := make([]error, p)
			var wg sync.WaitGroup
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					conn := fab.Conn(r)
					if r == 0 {
						conn = root
					}
					comm := New(conn)
					for rd := 0; rd < rounds && errs[r] == nil; rd++ {
						var res *QuorumRound
						res, errs[r] = comm.QuorumGather(context.Background(), 0, p-1, timeout, []byte{byte(rd)})
						if r == 0 && errs[r] == nil {
							missed[rd] = res.Missed
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
			for rd, m := range missed {
				if len(m) != 1 || m[0] != slow {
					t.Fatalf("round %d missed %v, want [%d]", rd, m, slow)
				}
			}
			for end := time.Now().Add(rounds*delay + 5*time.Second); root.count(slow) < rounds && time.Now().Before(end); {
				time.Sleep(5 * time.Millisecond)
			}
			if got := root.count(slow); got != rounds {
				t.Fatalf("the root took %d of rank %d's %d missed frames", got, slow, rounds)
			}
		})
	}
}
