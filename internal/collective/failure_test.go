package collective

import (
	"context"
	"sync"
	"testing"
	"time"

	"gtopkssgd/internal/transport"
)

// Failure-injection tests: collectives must fail fast (error, not hang)
// when a peer disappears or the caller cancels — the behaviours that
// matter when the TCP fabric runs over a real, fallible network.

func TestRingAllReduceFailsWhenPeerCloses(t *testing.T) {
	const p = 4
	f, err := transport.NewTCP(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Rank 2 dies before participating.
	if err := f.Conn(2).Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		if r == 2 {
			continue
		}
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := New(f.Conn(rank))
			errs[rank] = c.RingAllReduceSum(ctx, make([]float32, 100))
		}(r)
	}
	wg.Wait()
	// At least rank 1 and 3 (the dead rank's ring neighbours) must error
	// rather than hang; nobody may still be blocked (wg.Wait returned).
	failed := 0
	for r, err := range errs {
		if r != 2 && err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no surviving rank observed the peer failure")
	}
}

func TestBcastCancelledMidway(t *testing.T) {
	const p = 4
	f, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Only rank 3 participates; it blocks waiting for the payload that
	// never comes, until the context is cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := New(f.Conn(3)).Bcast(ctx, 0, nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled bcast returned nil error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("bcast did not unblock on cancellation")
	}
}

func TestAllGatherCorruptPayloadRejected(t *testing.T) {
	// A malformed block payload injected at the transport level must be
	// reported as an error by AllGather, not crash or corrupt state.
	const p = 2
	f, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()

	// Rank 1 sends garbage under the tag AllGather round 0 will use
	// (first claimed tag = 0), instead of calling AllGather.
	go func() {
		f.Conn(1).Send(ctx, 0, 0, []byte{0xFF, 0xFF}) //nolint:errcheck
		// Drain rank 0's send so it does not block forever.
		f.Conn(1).Recv(ctx, 0, 0) //nolint:errcheck
	}()
	_, err = New(f.Conn(0)).AllGather(ctx, []byte("mine"))
	if err == nil {
		t.Fatal("corrupt payload accepted")
	}
}
