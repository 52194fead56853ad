package transport

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"
)

// The gTop-k engine sends one frame per hop, so nothing in it calls
// SendVec; these tests hold its contract for the benchmark's wrapping
// conns, which still forward it.

// TestSendVecDeliversInOrder checks SendVec on both fabrics: a batch
// arrives as len(frames) consecutive receives in slice order,
// interleaving correctly with plain Sends before and after.
func TestSendVecDeliversInOrder(t *testing.T) {
	for _, fm := range fabricMakers {
		t.Run(fm.name, func(t *testing.T) {
			f, err := fm.make(2)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ctx := context.Background()

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

// TestSendVecThroughGroupView checks dst translation under SendVec:
// local rank addressing inside a view lands on the right world rank with
// batch order preserved.
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

// TestSendVecFallbackThroughFaultInjector: SendVec is per-frame sends,
// so through the fault injector each frame takes its own fault ordinal
// and a batch keeps the link's FIFO like plain sends.
func TestSendVecFallbackThroughFaultInjector(t *testing.T) {
	inner, err := NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewFaultInjector(inner, FaultPlan{Seed: 11, Delay: time.Millisecond})
	defer inj.Close()
	ctx := context.Background()

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

// TestSendVecLargeBatchTCP pushes a batch past twice the link's write
// buffer, verifying frame integrity across the spills.
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
