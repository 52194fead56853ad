package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// meshListeners opens one caller-owned loopback listener per rank and
// returns them with their concrete addresses.
func meshListeners(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() }) //nolint:errcheck // test teardown
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs
}

// joinAll wires one mesh epoch across caller-owned listeners and
// returns the connected endpoints.
func joinAll(t *testing.T, ctx context.Context, epoch uint64, lns []net.Listener, addrs []string) []Conn {
	t.Helper()
	conns := make([]Conn, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for r := range addrs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			conns[r], errs[r] = JoinMesh(ctx, MeshConfig{
				Rank: r, Addrs: addrs, Epoch: epoch, Listener: lns[r],
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join epoch %d: %v", r, epoch, err)
		}
	}
	return conns
}

func exchangeRing(t *testing.T, ctx context.Context, conns []Conn, tag int) {
	t.Helper()
	n := len(conns)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := range conns {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("from-%d-tag-%d", r, tag))
			if err := conns[r].Send(ctx, (r+1)%n, tag, msg); err != nil {
				errs[r] = err
				return
			}
			got, err := conns[r].Recv(ctx, (r-1+n)%n, tag)
			if err != nil {
				errs[r] = err
				return
			}
			want := fmt.Sprintf("from-%d-tag-%d", (r-1+n)%n, tag)
			if string(got) != want {
				errs[r] = fmt.Errorf("rank %d got %q, want %q", r, got, want)
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestJoinMeshListenerSurvivesEpochs rebuilds a shrinking mesh on the
// same caller-owned listeners across three epochs — the reconnection
// pattern the elastic cluster runtime depends on.
func TestJoinMeshListenerSurvivesEpochs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	lns, addrs := meshListeners(t, 4)

	conns := joinAll(t, ctx, 1, lns, addrs)
	exchangeRing(t, ctx, conns, 7)
	for _, c := range conns {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Epoch 2: rank 1 is gone; survivors re-form at world size 3 reusing
	// their listeners (old ranks 0,2,3 become 0,1,2).
	lns2 := []net.Listener{lns[0], lns[2], lns[3]}
	addrs2 := []string{addrs[0], addrs[2], addrs[3]}
	conns2 := joinAll(t, ctx, 2, lns2, addrs2)
	exchangeRing(t, ctx, conns2, 9)
	for _, c := range conns2 {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJoinMeshRejectsStaleEpoch verifies that a dialler stuck in an old
// epoch cannot join a newer mesh: its hello is dropped (no ack) and the
// new epoch's wire-up completes untainted once the laggard catches up.
func TestJoinMeshRejectsStaleEpoch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	lns, addrs := meshListeners(t, 2)

	// Rank 1 first tries to join epoch 1 while rank 0 is already wiring
	// epoch 2; the attempt must fail (ctx expiry), not half-connect.
	staleCtx, staleCancel := context.WithTimeout(ctx, 600*time.Millisecond)
	defer staleCancel()
	staleDone := make(chan error, 1)
	go func() {
		_, err := JoinMesh(staleCtx, MeshConfig{Rank: 1, Addrs: addrs, Epoch: 1, Listener: lns[1]})
		staleDone <- err
	}()

	var (
		wg     sync.WaitGroup
		conns  = make([]Conn, 2)
		joinEr = make([]error, 2)
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		conns[0], joinEr[0] = JoinMesh(ctx, MeshConfig{Rank: 0, Addrs: addrs, Epoch: 2, Listener: lns[0]})
	}()

	if err := <-staleDone; err == nil {
		t.Fatal("stale-epoch join succeeded against an epoch-2 peer")
	}

	// The laggard advances to epoch 2; now the mesh completes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conns[1], joinEr[1] = JoinMesh(ctx, MeshConfig{Rank: 1, Addrs: addrs, Epoch: 2, Listener: lns[1]})
	}()
	wg.Wait()
	for r, err := range joinEr {
		if err != nil {
			t.Fatalf("rank %d epoch 2: %v", r, err)
		}
	}
	exchangeRing(t, ctx, conns, 3)
	for _, c := range conns {
		c.Close() //nolint:errcheck // test teardown
	}
}

// joinAllWire is joinAll with per-rank sparse wire-codec offers.
func joinAllWire(t *testing.T, ctx context.Context, lns []net.Listener, addrs []string, offers []byte) []Conn {
	t.Helper()
	conns := make([]Conn, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for r := range addrs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			conns[r], errs[r] = JoinMesh(ctx, MeshConfig{
				Rank: r, Addrs: addrs, Epoch: 1, Listener: lns[r],
				TCP: TCPOptions{WireVersion: offers[r]},
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", r, err)
		}
	}
	return conns
}

// TestMeshWireNegotiation checks the codec handshake: a mesh settles on
// the minimum wire version any member offers — all-v3 meshes speak v3,
// one v1 (or unset) peer drags everyone to v1, unknown future versions
// clamp to the newest this build speaks, and an offered or configured
// version 2 (retired: nobody encodes it) settles on v1, the newest
// format both ends still speak.
func TestMeshWireNegotiation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cases := []struct {
		name   string
		offers []byte
		want   byte
	}{
		{"all-v3", []byte{WireV3, WireV3, WireV3}, WireV3},
		{"one-v1-peer", []byte{WireV3, WireV1, WireV3}, WireV1},
		{"unset-means-v1", []byte{WireV3, 0, WireV3}, WireV1},
		{"future-version-clamps", []byte{9, WireV3, 9}, WireV3},
		{"one-v2-peer", []byte{WireV3, 2, WireV3}, WireV1},
		{"all-v2", []byte{2, 2, 2}, WireV1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lns, addrs := meshListeners(t, len(tc.offers))
			conns := joinAllWire(t, ctx, lns, addrs, tc.offers)
			for r, c := range conns {
				if got := NegotiatedWireVersion(c); got != tc.want {
					t.Errorf("rank %d negotiated wire v%d, want v%d", r, got, tc.want)
				}
				c.Close() //nolint:errcheck // test teardown
			}
		})
	}
}

// TestInProcWireVersion checks the in-process fabric's configured wire
// version and the v1 default of fabrics without the capability wiring.
func TestInProcWireVersion(t *testing.T) {
	f, err := NewInProcWire(2, WireV3)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	if got := NegotiatedWireVersion(f.Conn(0)); got != WireV3 {
		t.Fatalf("inproc wire v%d, want v3", got)
	}
	f1, err := NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Close() //nolint:errcheck // test teardown
	if got := NegotiatedWireVersion(f1.Conn(0)); got != WireV1 {
		t.Fatalf("default inproc wire v%d, want v1", got)
	}
}

// freePorts reserves n distinct loopback ports by briefly listening and
// releasing them (standard test trick; a tiny race window is acceptable).
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close() //nolint:errcheck // releasing reserved ports
	}
	return addrs
}

// TestJoinMeshStaggeredPingAll: ranks that start at different times
// still wire a full mesh (the dial side retries until its peer listens),
// and every ordered pair then exchanges a message.
func TestJoinMeshStaggeredPingAll(t *testing.T) {
	const n = 4
	addrs := freePorts(t, n)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	conns := make([]Conn, n)
	var setup sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		setup.Add(1)
		go func(rank int) {
			defer setup.Done()
			// Stagger start-up to exercise the dial retry path.
			time.Sleep(time.Duration(rank) * 15 * time.Millisecond)
			c, err := JoinMesh(ctx, MeshConfig{Rank: rank, Addrs: addrs})
			conns[rank], errs[rank] = c, err
		}(r)
	}
	setup.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	defer func() {
		for _, c := range conns {
			c.Close() //nolint:errcheck // test teardown
		}
	}()

	// All-to-all exchange over the mesh.
	var wg sync.WaitGroup
	opErrs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for dst := 0; dst < n; dst++ {
				if dst == rank {
					continue
				}
				if err := conns[rank].Send(ctx, dst, 1, []byte{byte(rank)}); err != nil {
					opErrs[rank] = err
					return
				}
			}
			for src := 0; src < n; src++ {
				if src == rank {
					continue
				}
				msg, err := conns[rank].Recv(ctx, src, 1)
				if err != nil {
					opErrs[rank] = err
					return
				}
				if len(msg) != 1 || int(msg[0]) != src {
					opErrs[rank] = fmt.Errorf("bad payload %v from %d", msg, src)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range opErrs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestJoinMeshSingleRank(t *testing.T) {
	c, err := JoinMesh(context.Background(), MeshConfig{Addrs: []string{"127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Size() != 1 || c.Rank() != 0 {
		t.Fatalf("size=%d rank=%d", c.Size(), c.Rank())
	}
}

func TestJoinMeshValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := JoinMesh(ctx, MeshConfig{}); err == nil {
		t.Error("empty address list accepted")
	}
	if _, err := JoinMesh(ctx, MeshConfig{Rank: 5, Addrs: []string{"a", "b"}}); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

func TestJoinMeshDialTimeout(t *testing.T) {
	// Rank 1 dials rank 0 which never listens: must give up on ctx expiry.
	addrs := freePorts(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := JoinMesh(ctx, MeshConfig{Rank: 1, Addrs: addrs})
	if err == nil {
		t.Fatal("mesh setup succeeded without peer")
	}
	if !errors.Is(err, context.DeadlineExceeded) && time.Since(start) > 5*time.Second {
		t.Fatalf("did not fail promptly: %v after %v", err, time.Since(start))
	}
}
