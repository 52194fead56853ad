package transport

import (
	"context"
	"testing"

	"gtopkssgd/internal/bufpool"
)

// TestPrivateRecvCapability pins the ownership contract the aggregation
// hot path relies on: TCP payloads are private per-receiver copies,
// in-process payloads are the sender's slice and must not be recycled
// after forwarding.
func TestPrivateRecvCapability(t *testing.T) {
	tcp, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if !PrivateRecv(tcp.Conn(0)) {
		t.Fatal("TCP conn should report private receives")
	}
	if !SendConsumedOnReturn(tcp.Conn(0)) {
		t.Fatal("TCP conn should report synchronous sends (payload copied before Send returns)")
	}
	inproc, err := NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	if PrivateRecv(inproc.Conn(0)) {
		t.Fatal("in-process conn must NOT report private receives (payloads alias the sender's buffer)")
	}
	if SendConsumedOnReturn(inproc.Conn(0)) {
		t.Fatal("in-process conn must NOT report synchronous sends (the receiver gets the same slice)")
	}
}

// TestSendPooledRoundTrip sends pooled payloads over both fabrics and
// checks the receiver sees the correct bytes. On TCP the buffer is
// recycled inside Send; on inproc ownership passes to the receiver.
func TestSendPooledRoundTrip(t *testing.T) {
	for _, fabName := range []string{"inproc", "tcp"} {
		var fab Fabric
		var err error
		if fabName == "tcp" {
			fab, err = NewTCP(2)
		} else {
			fab, err = NewInProc(2)
		}
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for i := 0; i < 5; i++ {
			payload := bufpool.Get(128)
			for j := range payload {
				payload[j] = byte(i + j)
			}
			if err := SendPooled(ctx, fab.Conn(0), 1, 7, payload); err != nil {
				t.Fatalf("%s: send %d: %v", fabName, i, err)
			}
			got, err := fab.Conn(1).Recv(ctx, 0, 7)
			if err != nil {
				t.Fatalf("%s: recv %d: %v", fabName, i, err)
			}
			if len(got) != 128 {
				t.Fatalf("%s: recv %d: got %d bytes", fabName, i, len(got))
			}
			for j := range got {
				if got[j] != byte(i+j) {
					t.Fatalf("%s: recv %d: corrupt byte %d", fabName, i, j)
				}
			}
			bufpool.Put(got) // receiver owns (and may recycle) its payload
		}
		fab.Close()
	}
}

// TestDeadFrameKeepsQueueSmall: a frame nobody ever receives must not
// pin the frames queued behind it. One dead frame, then 100 000 frames
// each sent and received on one in-process link, leave the source
// queue's backing array a few entries long.
func TestDeadFrameKeepsQueueSmall(t *testing.T) {
	fab, err := NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close() //nolint:errcheck // in-process close never fails
	ctx := context.Background()
	src, dst := fab.Conn(1), fab.Conn(0)
	if err := src.Send(ctx, 0, 0, []byte("dead")); err != nil {
		t.Fatal(err)
	}
	payload := []byte("live")
	for tag := 1; tag <= 100_000; tag++ {
		if err := src.Send(ctx, 0, tag, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := dst.Recv(ctx, 1, tag); err != nil {
			t.Fatal(err)
		}
	}
	q := &fab.conns[0].boxes[0].queues[1]
	if live := len(q.entries) - q.head; live != 1 {
		t.Fatalf("%d frames queued, want the dead one", live)
	}
	if c := cap(q.entries); c > 8 {
		t.Fatalf("queue capacity %d after 100 000 frames behind one dead frame, want at most 8", c)
	}
}
