package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestFaultPlanDeterministicSchedule pins that a plan's per-link fault
// schedule is a pure function of (seed, ordinal): two links with the
// same identity replay identical delay sequences, and the stall
// ordinals fire exactly where the plan says.
func TestFaultPlanDeterministicSchedule(t *testing.T) {
	plan := FaultPlan{
		Seed:       0xD15EA5E,
		Delay:      10 * time.Millisecond,
		Jitter:     0.5,
		StallEvery: 3,
		StallFor:   time.Second,
	}
	a := newFaultLink(plan.Seed, 1, 0)
	b := newFaultLink(plan.Seed, 1, 0)
	other := newFaultLink(plan.Seed, 2, 0)
	var sawOther bool
	for n := 0; n < 32; n++ {
		da, db := plan.delayFor(a.rng, n), plan.delayFor(b.rng, n)
		if da != db {
			t.Fatalf("ordinal %d: same link replayed different delays %v vs %v", n, da, db)
		}
		if plan.delayFor(other.rng, n) != da {
			sawOther = true
		}
		base := da
		if n%3 == 2 {
			base -= plan.StallFor
		}
		if base > plan.Delay+plan.Delay/2 || base < plan.Delay/2 {
			t.Fatalf("ordinal %d: jittered base delay %v outside ±50%% of %v", n, base, plan.Delay)
		}
	}
	if !sawOther {
		t.Fatal("distinct links replayed identical streams — link identity not mixed into the seed")
	}
}

// TestFaultInjectorPreservesFIFO sends a burst of jittered frames
// through an afflicted link and checks they arrive in send order.
func TestFaultInjectorPreservesFIFO(t *testing.T) {
	inner, err := NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	fab := NewFaultInjector(inner, FaultPlan{
		Seed:   1,
		Delay:  2 * time.Millisecond,
		Jitter: 1.0, // delays in [0, 4ms]: plenty of reorder opportunity
	})
	defer fab.Close() //nolint:errcheck // test shutdown

	const frames = 32
	go func() {
		c := fab.Conn(1)
		for i := 0; i < frames; i++ {
			if err := c.Send(context.Background(), 0, 7, []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	c := fab.Conn(0)
	for i := 0; i < frames; i++ {
		p, err := c.Recv(context.Background(), 1, 7)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if int(p[0]) != i {
			t.Fatalf("frame %d arrived out of order (got payload %d)", i, p[0])
		}
	}
}

// TestFaultInjectorSlowRankOnly checks that only the configured rank's
// outgoing links are afflicted and that everyone else's frames pass
// through with no measurable detour.
func TestFaultInjectorSlowRankOnly(t *testing.T) {
	inner, err := NewInProc(3)
	if err != nil {
		t.Fatal(err)
	}
	fab := NewFaultInjector(inner, FaultPlan{
		Seed:      2,
		Delay:     200 * time.Millisecond,
		SlowRanks: []int{2},
	})
	defer fab.Close() //nolint:errcheck // test shutdown

	start := time.Now()
	if err := fab.Conn(1).Send(context.Background(), 0, 1, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	if _, err := fab.Conn(0).Recv(context.Background(), 1, 1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("unafflicted link took %v", d)
	}

	start = time.Now()
	if err := fab.Conn(2).Send(context.Background(), 0, 2, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if _, err := fab.Conn(0).Recv(context.Background(), 2, 2); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 150*time.Millisecond {
		t.Fatalf("afflicted link delivered in %v, want >= ~200ms", d)
	}
}

// TestStalledFrameWaitsQueued: a stalled frame arrives only after the
// stall. A receive whose deadline falls before it expires, and the frame
// then waits queued under its (src, tag) for a later receive, so a
// receiver that gave up once can still land it — retrying a receive is
// one longer wait.
func TestStalledFrameWaitsQueued(t *testing.T) {
	inner, err := NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	fab := NewFaultInjector(inner, FaultPlan{
		Seed:       3,
		StallEvery: 1, // every frame stalls
		StallFor:   120 * time.Millisecond,
	})
	defer fab.Close() //nolint:errcheck // test shutdown

	if err := fab.Conn(1).Send(context.Background(), 0, 5, []byte("late")); err != nil {
		t.Fatal(err)
	}
	// A 40ms receive cannot see the frame.
	short, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	_, err = fab.Conn(0).Recv(short, 1, 5)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("short receive: got %v, want a deadline error", err)
	}
	long, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	p, err := fab.Conn(0).Recv(long, 1, 5)
	if err != nil {
		t.Fatalf("longer receive: %v", err)
	}
	if string(p) != "late" {
		t.Fatalf("payload %q", p)
	}
}

// TestFaultInjectorOverTCP runs the injector over the TCP mesh — the
// wrapper must be fabric-agnostic — and checks capability forwarding on
// both fabrics.
func TestFaultInjectorOverTCP(t *testing.T) {
	tcp, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	fab := NewFaultInjector(tcp, FaultPlan{Seed: 4, Delay: 10 * time.Millisecond})
	defer fab.Close() //nolint:errcheck // test shutdown

	if err := fab.Conn(1).Send(context.Background(), 0, 3, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	p, err := fab.Conn(0).Recv(context.Background(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(p) != "over tcp" {
		t.Fatalf("payload %q", p)
	}

	c := fab.Conn(0)
	if SendConsumedOnReturn(c) {
		t.Fatal("injector must not report synchronous sends: it holds payloads after Send returns")
	}
	if !PrivateRecv(c) {
		t.Fatal("TCP receive privacy not forwarded")
	}
	if got := NegotiatedWireVersion(c); got != NegotiatedWireVersion(tcp.Conn(0)) {
		t.Fatalf("wire version %d not forwarded", got)
	}
	if c.Rank() != 0 || c.Size() != 2 {
		t.Fatalf("identity not forwarded: rank %d size %d", c.Rank(), c.Size())
	}
	if err := c.Send(context.Background(), 0, 0, nil); !errors.Is(err, ErrSelfSend) {
		t.Fatalf("self send: %v", err)
	}
	if err := c.Send(context.Background(), 9, 0, nil); err == nil {
		t.Fatal("out-of-range peer accepted")
	}
}

// TestFaultInjectorCloseStopsDelivery pins shutdown behaviour: after
// Close, sends on afflicted links fail with ErrClosed and queued frames
// are abandoned without deadlock.
func TestFaultInjectorCloseStopsDelivery(t *testing.T) {
	inner, err := NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	fab := NewFaultInjector(inner, FaultPlan{Seed: 5, Delay: time.Hour})
	if err := fab.Conn(1).Send(context.Background(), 0, 1, []byte("stuck")); err != nil {
		t.Fatal(err)
	}
	donec := make(chan error, 1)
	go func() { donec <- fab.Close() }()
	select {
	case <-donec:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked on a queued frame")
	}
	if err := fab.Conn(1).Send(context.Background(), 0, 1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

// TestFaultLinkStreamSplit guards the per-link stream derivation against
// accidental collisions for small rank pairs.
func TestFaultLinkStreamSplit(t *testing.T) {
	seen := map[uint64]bool{}
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			if src == dst {
				continue
			}
			l := newFaultLink(42, src, dst)
			v := l.rng.Uint64()
			if seen[v] {
				t.Fatalf("link (%d,%d) collides with an earlier link's stream", src, dst)
			}
			seen[v] = true
		}
	}
}
