package transport

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"gtopkssgd/internal/bufpool"
)

// TestSendVecDeliversInOrder checks the vectored-send contract on both
// fabrics: a batch arrives as len(frames) consecutive receives in slice
// order, interleaving correctly with plain Sends before and after.
func TestSendVecDeliversInOrder(t *testing.T) {
	for _, fm := range fabricMakers {
		t.Run(fm.name, func(t *testing.T) {
			f, err := fm.make(2)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ctx := context.Background()

			if _, ok := f.Conn(0).(VectoredSender); !ok {
				t.Fatalf("%s endpoint does not implement VectoredSender", fm.name)
			}
			if err := f.Conn(0).Send(ctx, 1, 5, []byte("head")); err != nil {
				t.Fatal(err)
			}
			batch := [][]byte{[]byte("frame-0"), []byte("frame-1"), []byte("frame-2")}
			if err := SendVec(ctx, f.Conn(0), 1, 5, batch); err != nil {
				t.Fatal(err)
			}
			if err := f.Conn(0).Send(ctx, 1, 5, []byte("tail")); err != nil {
				t.Fatal(err)
			}

			want := []string{"head", "frame-0", "frame-1", "frame-2", "tail"}
			for i, w := range want {
				got, err := f.Conn(1).Recv(ctx, 0, 5)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != w {
					t.Fatalf("recv %d = %q, want %q", i, got, w)
				}
			}
		})
	}
}

// TestSendVecEmptyBatch pins the degenerate case: a zero-frame batch is
// a validated no-op (peer checks still apply, nothing is delivered).
func TestSendVecEmptyBatch(t *testing.T) {
	for _, fm := range fabricMakers {
		t.Run(fm.name, func(t *testing.T) {
			f, err := fm.make(2)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ctx := context.Background()
			if err := SendVec(ctx, f.Conn(0), 1, 3, nil); err != nil {
				t.Fatal(err)
			}
			if err := SendVec(ctx, f.Conn(0), 0, 3, nil); err != ErrSelfSend {
				t.Fatalf("self-send: got %v, want ErrSelfSend", err)
			}
			if err := SendVec(ctx, f.Conn(0), 7, 3, nil); err == nil {
				t.Fatal("out-of-range dst accepted")
			}
			// Prove nothing was delivered: a sentinel frame arrives first.
			if err := f.Conn(0).Send(ctx, 1, 3, []byte("only")); err != nil {
				t.Fatal(err)
			}
			got, err := f.Conn(1).Recv(ctx, 0, 3)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "only" {
				t.Fatalf("recv = %q, want %q", got, "only")
			}
		})
	}
}

// TestSendVecPooledRecycles exercises the pooled vectored path on both
// fabrics: frames drawn from the pool round-trip intact (TCP recycles at
// the sender, in-process at the receiver per the ownership rules).
func TestSendVecPooledRecycles(t *testing.T) {
	for _, fm := range fabricMakers {
		t.Run(fm.name, func(t *testing.T) {
			f, err := fm.make(2)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ctx := context.Background()

			for round := 0; round < 8; round++ {
				frames := make([][]byte, 4)
				for i := range frames {
					frames[i] = bufpool.Get(32)
					for j := range frames[i] {
						frames[i][j] = byte(round*16 + i)
					}
				}
				if err := SendVecPooled(ctx, f.Conn(0), 1, 9, frames); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 4; i++ {
					got, err := f.Conn(1).Recv(ctx, 0, 9)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != 32 || got[0] != byte(round*16+i) || got[31] != byte(round*16+i) {
						t.Fatalf("round %d frame %d corrupted: len=%d first=%d", round, i, len(got), got[0])
					}
					if PrivateRecv(f.Conn(1)) {
						bufpool.Put(got)
					}
				}
			}
		})
	}
}

// TestSendVecThroughGroupView checks dst translation of the forwarded
// vectored capability: local rank addressing inside a view lands on the
// right world rank with batch order preserved.
func TestSendVecThroughGroupView(t *testing.T) {
	for _, fm := range fabricMakers {
		t.Run(fm.name, func(t *testing.T) {
			f, err := fm.make(4)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ctx := context.Background()

			// View over world ranks {1, 3}: local 0 -> world 1, local 1 -> world 3.
			v0, err := GroupView(f.Conn(1), []int{1, 3})
			if err != nil {
				t.Fatal(err)
			}
			v1, err := GroupView(f.Conn(3), []int{1, 3})
			if err != nil {
				t.Fatal(err)
			}
			batch := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
			if err := SendVec(ctx, v0, 1, 2, batch); err != nil {
				t.Fatal(err)
			}
			for _, w := range []string{"a", "bb", "ccc"} {
				got, err := v1.Recv(ctx, 0, 2)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != w {
					t.Fatalf("view recv = %q, want %q", got, w)
				}
			}
		})
	}
}

// TestSendVecFallbackThroughFaultInjector pins the design decision that
// the fault injector does NOT implement VectoredSender: the helper falls
// back to per-frame sends, so per-link fault ordinals advance once per
// frame and a batch interleaves with the link's FIFO like plain sends.
func TestSendVecFallbackThroughFaultInjector(t *testing.T) {
	inner, err := NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewFaultInjector(inner, FaultPlan{Seed: 11, Delay: time.Millisecond})
	defer inj.Close()
	ctx := context.Background()

	if _, ok := inj.Conn(0).(VectoredSender); ok {
		t.Fatal("fault injector must not short-circuit vectored sends")
	}
	var batch [][]byte
	for i := 0; i < 5; i++ {
		batch = append(batch, []byte(fmt.Sprintf("f%d", i)))
	}
	if err := SendVec(ctx, inj.Conn(0), 1, 4, batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, err := inj.Conn(1).Recv(ctx, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("f%d", i); string(got) != want {
			t.Fatalf("recv %d = %q, want %q (fault detour reordered the batch)", i, got, want)
		}
	}
}

// TestSendVecLargeBatchTCP pushes a batch past the link's write buffer so
// the bufio path has to spill mid-batch, verifying frame integrity when
// one flush cannot cover the whole batch.
func TestSendVecLargeBatchTCP(t *testing.T) {
	f, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()

	const frames, frameLen = 6, 24 << 10 // 144 KiB total through a 64 KiB buffer
	if frames*frameLen <= 2*linkBuf {
		t.Fatalf("a %d-byte batch does not spill the %d-byte buffer twice", frames*frameLen, linkBuf)
	}
	batch := make([][]byte, frames)
	for i := range batch {
		batch[i] = bytes.Repeat([]byte{byte('A' + i)}, frameLen)
	}
	done := make(chan error, 1)
	go func() { done <- SendVec(ctx, f.Conn(0), 1, 6, batch) }()
	for i := 0; i < frames; i++ {
		got, err := f.Conn(1).Recv(ctx, 0, 6)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != frameLen || got[0] != byte('A'+i) || got[frameLen-1] != byte('A'+i) {
			t.Fatalf("frame %d corrupted", i)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
