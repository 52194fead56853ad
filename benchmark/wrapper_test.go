package main

import (
	"context"
	"testing"
	"time"

	"gtopkssgd/internal/transport"
)

// TestWrappersForwardCapabilities checks, for each fabric, that the
// tracing and shaping wrappers (and both stacked) report the inner
// Conn's capabilities, so collectives take the same branches with them.
func TestWrappersForwardCapabilities(t *testing.T) {
	fabrics := map[string]func() (transport.Fabric, error){
		"inproc-v1": func() (transport.Fabric, error) { return transport.NewInProcWire(2, transport.WireV1) },
		"inproc-v3": func() (transport.Fabric, error) { return transport.NewInProcWire(2, transport.WireV3) },
		"tcp-v3": func() (transport.Fabric, error) {
			return transport.NewTCPWithOptions(2, transport.TCPOptions{WireVersion: transport.WireV3})
		},
	}
	for name, mk := range fabrics {
		t.Run(name, func(t *testing.T) {
			fabric, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			defer fabric.Close()
			inner := fabric.Conn(0)
			shaped := &shapedConn{inner: inner, net: newShaperNet(2, 2, intraLink, interLink)}
			wrappers := map[string]transport.Conn{
				"traced":        &tracedConn{inner: inner, rec: newRankTracer(time.Now(), 0, 1)},
				"shaped":        shaped,
				"traced+shaped": &tracedConn{inner: shaped, rec: newRankTracer(time.Now(), 0, 1)},
			}
			for wname, w := range wrappers {
				if got, want := transport.SendConsumedOnReturn(w), transport.SendConsumedOnReturn(inner); got != want {
					t.Errorf("%s: SendConsumedOnReturn = %v, inner %v", wname, got, want)
				}
				if got, want := transport.PrivateRecv(w), transport.PrivateRecv(inner); got != want {
					t.Errorf("%s: PrivateRecv = %v, inner %v", wname, got, want)
				}
				if got, want := transport.NegotiatedWireVersion(w), transport.NegotiatedWireVersion(inner); got != want {
					t.Errorf("%s: NegotiatedWireVersion = %v, inner %v", wname, got, want)
				}
				if w.Rank() != inner.Rank() || w.Size() != inner.Size() {
					t.Errorf("%s: rank/size %d/%d, inner %d/%d", wname, w.Rank(), w.Size(), inner.Rank(), inner.Size())
				}
			}
		})
	}
}

// TestWrappedRunsMatchBareRuns runs 50 steps of every workload's fabric
// bare, traced and (where the workload has a shaper) unshaped, and
// checks message count, bytes and final weights agree.
func TestWrappedRunsMatchBareRuns(t *testing.T) {
	const steps, seed = 50, 7
	type outcome struct {
		msgs  int
		bytes int64
		crc   uint32
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			spec := w.smoke()
			tk, err := newTask(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			run := func(o buildOpts) outcome {
				o.spanSteps = steps
				cl, err := buildCluster(spec, tk, seed, o)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.close()
				if s := cl.run(context.Background(), steps, false); s.err != nil {
					t.Fatal(s.err)
				}
				var out outcome
				for _, rs := range cl.ranks {
					st := rs.comm.Stats()
					out.msgs += st.MsgsSent
					out.bytes += st.BytesSent
				}
				crcs := cl.weightsCRC()
				for r, c := range crcs {
					if c != crcs[0] {
						t.Errorf("rank %d weights differ from rank 0", r)
					}
				}
				out.crc = crcs[0]
				return out
			}
			bare := run(buildOpts{})
			if bare.msgs == 0 || bare.bytes == 0 {
				t.Fatalf("bare run sent nothing: %+v", bare)
			}
			if traced := run(buildOpts{traced: true}); traced != bare {
				t.Errorf("traced run %+v != bare run %+v", traced, bare)
			}
			if spec.fabric == "shaped" {
				if unshaped := run(buildOpts{unshaped: true}); unshaped != bare {
					t.Errorf("unshaped run %+v != shaped run %+v", unshaped, bare)
				}
			}
			if spec.agg != "bucketed" {
				if dec := run(buildOpts{traced: true, decomposed: true}); dec != bare {
					t.Errorf("decomposed run %+v != real aggregator %+v", dec, bare)
				}
			}
		})
	}
}

// TestShaperDelaysAndOrders checks the link shaper's arithmetic: a
// message is visible α + bytes·β after it was sent, and back-to-back
// messages queue behind each other on the link.
func TestShaperDelaysAndOrders(t *testing.T) {
	fabric, err := transport.NewInProcWire(2, transport.WireV1)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	link := linkParams{alpha: 5 * time.Millisecond, nsPerByte: 1000} // 1 KiB ≈ 1 ms on the link
	net := newShaperNet(2, 2, link, link)
	a := &shapedConn{inner: fabric.Conn(0), net: net}
	b := &shapedConn{inner: fabric.Conn(1), net: net}
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := a.Send(ctx, 1, 9, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if sendTime := time.Since(start); sendTime > 2*time.Millisecond {
		t.Logf("three sends took %v; senders must never block on the link", sendTime)
	}
	for i := 1; i <= 3; i++ {
		if _, err := b.Recv(ctx, 0, 9); err != nil {
			t.Fatal(err)
		}
		// Message i occupies the link until i·1.024 ms and lands α later.
		if got, want := time.Since(start), link.alpha+time.Duration(i)*1024*time.Microsecond; got < want {
			t.Errorf("message %d visible after %v, want >= %v", i, got, want)
		}
	}
	if _, err := net.pop(0, 1, 9); err == nil {
		t.Error("a fourth due time was queued for three messages")
	}
}
