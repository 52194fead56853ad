package collective

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// forkGroupAll forks groups of g on every rank of a fresh in-process
// fabric and returns the per-rank GroupComms.
func forkGroupAll(t *testing.T, p, g int) ([]*GroupComms, func()) {
	t.Helper()
	fab, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	gcs := make([]*GroupComms, p)
	for r := 0; r < p; r++ {
		gc, err := New(fab.Conn(r)).ForkGroup(g)
		if err != nil {
			fab.Close()
			t.Fatalf("rank %d: %v", r, err)
		}
		gcs[r] = gc
	}
	return gcs, func() { fab.Close() }
}

// TestForkGroupTopology checks group indices, member/leader world sizes
// and leader placement across divisible and non-divisible worlds.
func TestForkGroupTopology(t *testing.T) {
	cases := []struct {
		p, g      int
		numGroups int
		sizes     []int // member-comm size per group
	}{
		{8, 4, 2, []int{4, 4}},
		{9, 4, 3, []int{4, 4, 1}},
		{6, 2, 3, []int{2, 2, 2}},
		{5, 5, 1, []int{5}},
		{4, 1, 4, []int{1, 1, 1, 1}},
	}
	for _, tc := range cases {
		gcs, done := forkGroupAll(t, tc.p, tc.g)
		for r, gc := range gcs {
			group := r / tc.g
			if gc.Group != group || gc.NumGroups != tc.numGroups {
				t.Fatalf("p=%d g=%d rank %d: group %d/%d, want %d/%d",
					tc.p, tc.g, r, gc.Group, gc.NumGroups, group, tc.numGroups)
			}
			if got := gc.Members.Size(); got != tc.sizes[group] {
				t.Fatalf("p=%d g=%d rank %d: member size %d, want %d", tc.p, tc.g, r, got, tc.sizes[group])
			}
			if got, want := gc.Members.Rank(), r-group*tc.g; got != want {
				t.Fatalf("p=%d g=%d rank %d: member rank %d, want %d", tc.p, tc.g, r, got, want)
			}
			isLeader := r%tc.g == 0
			if (gc.Leaders != nil) != isLeader {
				t.Fatalf("p=%d g=%d rank %d: leader communicator %v", tc.p, tc.g, r, gc.Leaders != nil)
			}
			if isLeader {
				if gc.Leaders.Size() != tc.numGroups || gc.Leaders.Rank() != group {
					t.Fatalf("p=%d g=%d rank %d: leader rank/size %d/%d, want %d/%d",
						tc.p, tc.g, r, gc.Leaders.Rank(), gc.Leaders.Size(), group, tc.numGroups)
				}
			}
		}
		done()
	}
}

// TestForkGroupRejectsBadSizes: group sizes outside [1, world] fail.
func TestForkGroupRejectsBadSizes(t *testing.T) {
	fab, err := transport.NewInProc(4)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	c := New(fab.Conn(0))
	for _, g := range []int{0, -1, 5} {
		if _, err := c.ForkGroup(g); err == nil {
			t.Fatalf("ForkGroup(%d) succeeded", g)
		}
	}
}

// TestForkGroupCollectivesIsolated runs a member-level collective in
// every group concurrently with a leader-level collective, over the
// same forked structure, and checks the traffic never crosses: each
// group's broadcast delivers its own leader's payload, and the leader
// barrier-style exchange sees only leaders.
func TestForkGroupCollectivesIsolated(t *testing.T) {
	const p, g = 8, 4
	fab, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()

	var wg sync.WaitGroup
	errs := make([]error, p)
	got := make([][]float32, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			gc, err := New(fab.Conn(rank)).ForkGroup(g)
			if err != nil {
				errs[rank] = err
				return
			}
			// Leaders agree on a value via their own comm first.
			val := []float32{0}
			if gc.Leaders != nil {
				val[0] = float32(100 + gc.Group)
				if err := gc.Leaders.RingAllReduceSum(context.Background(), val); err != nil {
					errs[rank] = err
					return
				}
				// Sum over leaders: 100+0 + 100+1 = 201 for p=8,g=4.
			}
			// Each leader broadcasts (its group index, the leader sum)
			// within its group.
			payload, err := gc.Members.Bcast(context.Background(), 0, []byte{byte(gc.Group), byte(val[0])})
			if err != nil {
				errs[rank] = err
				return
			}
			got[rank] = []float32{float32(payload[0]), float32(payload[1])}
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for r := 0; r < p; r++ {
		// Sum over leaders: (100+0) + (100+1) = 201 for p=8, g=4.
		if got[r][0] != float32(r/g) || got[r][1] != 201 {
			t.Fatalf("rank %d: got %v, want [%d 201]", r, got[r], r/g)
		}
	}
}

// qsgd8Pref is a value preference for v3-qsgd8 — quant.NewStack(ValueQ8,
// …) without the import cycle (quant imports collective). Only its
// ValueCodec and Fork are exercised here.
type qsgd8Pref struct{}

func (qsgd8Pref) ValueCodec() sparse.ValueCodec { return sparse.ValueQ8 }

func (qsgd8Pref) Transform([]float32) (float32, []int16) { return 0, nil }

func (q qsgd8Pref) Fork(uint64) sparse.Compressor { return q }

func (q qsgd8Pref) Shared(uint64) sparse.Compressor { return q }

// TestForkGroupInheritsPreferences: the value preference (through
// Compressor.Fork) and the parent's negotiated wire version must carry
// into both sub-communicators — v3-qsgd8 on an all-v3 mesh, v1 frames on
// a mesh whose configured version is the retired 2, whatever the
// preference says.
func TestForkGroupInheritsPreferences(t *testing.T) {
	for _, tc := range []struct {
		wire byte
		want sparse.Codec
	}{
		{transport.WireV3, sparse.CodecV3Q8},
		{2, sparse.CodecV1},
	} {
		fab, err := transport.NewInProcWire(4, tc.wire)
		if err != nil {
			t.Fatal(err)
		}
		defer fab.Close()
		parent := New(fab.Conn(0))
		parent.SetCompressor(qsgd8Pref{})
		if got := parent.WireCodec(); got != tc.want {
			t.Fatalf("wire %d: parent codec %v, want %v", tc.wire, got, tc.want)
		}
		gc, err := parent.ForkGroup(2)
		if err != nil {
			t.Fatal(err)
		}
		if gc.Members.WireCodec() != tc.want {
			t.Fatalf("wire %d: member codec %v, want %v", tc.wire, gc.Members.WireCodec(), tc.want)
		}
		if gc.Leaders == nil || gc.Leaders.WireCodec() != tc.want {
			t.Fatalf("wire %d: leader codec does not match parent", tc.wire)
		}
	}
}

// TestChargeRoundAmong pins the skew-aware round accounting: the charged
// domain, not the communicator world, sets the latency inflation.
func TestChargeRoundAmong(t *testing.T) {
	fab, err := transport.NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	model := netsim.Model{Alpha: time.Millisecond, Beta: time.Microsecond, SyncGamma: 0.5}
	var clock netsim.Clock
	c := New(fab.Conn(0)).WithClock(&clock, model)

	c.ChargeRoundAmong(16, 10)
	want := model.Round(16, 10)
	if clock.Now() != want {
		t.Fatalf("clock %v, want %v", clock.Now(), want)
	}
	// log2(16) = 4 with gamma 0.5 => alpha multiplier 3.
	if wantAlpha := 3 * time.Millisecond; want != wantAlpha+10*time.Microsecond {
		t.Fatalf("Round(16,10) = %v, want %v", want, wantAlpha+10*time.Microsecond)
	}
	if got := c.Stats().Rounds; got != 1 {
		t.Fatalf("rounds %d, want 1", got)
	}
	// ChargeRound uses the communicator's own (2-rank) world.
	clock.Reset()
	c.ChargeRound(10)
	if clock.Now() != model.Round(2, 10) {
		t.Fatalf("ChargeRound clock %v, want %v", clock.Now(), model.Round(2, 10))
	}
}

// TestForkGroupTagSpansFitInForkedChild: a bucketed-pipeline child (one
// Fork span) must be able to host a group hierarchy — the claim below
// panics if the spans do not fit.
func TestForkGroupTagSpansFitInForkedChild(t *testing.T) {
	const p = 4
	fab, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			kids, err := New(fab.Conn(rank)).Fork(2)
			if err != nil {
				errs[rank] = err
				return
			}
			for i, kid := range kids {
				gc, err := kid.ForkGroup(2)
				if err != nil {
					errs[rank] = fmt.Errorf("kid %d: %w", i, err)
					return
				}
				// The child must still have tag room of its own.
				if _, err := kid.Bcast(context.Background(), 0, []byte{1}); err != nil {
					errs[rank] = fmt.Errorf("kid %d bcast: %w", i, err)
					return
				}
				if _, err := gc.Members.Bcast(context.Background(), 0, []byte{1}); err != nil {
					errs[rank] = fmt.Errorf("kid %d member bcast: %w", i, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}
