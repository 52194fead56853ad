package collective

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"gtopkssgd/internal/transport"
)

// forkSPMD runs body on every rank of a fresh in-process fabric.
func forkSPMD(t *testing.T, p int, body func(c *Comm) error) {
	t.Helper()
	f, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = body(New(f.Conn(rank)))
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestForkConcurrentCollectives runs several collectives CONCURRENTLY on
// forked children of one communicator per rank and checks that payloads
// never cross between children — the tag-isolation property the bucketed
// aggregation pipeline depends on. Run with -race in CI.
func TestForkConcurrentCollectives(t *testing.T) {
	const p, children, rounds = 4, 3, 5
	forkSPMD(t, p, func(c *Comm) error {
		kids, err := c.Fork(children)
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		errs := make([]error, children)
		for i, kid := range kids {
			wg.Add(1)
			go func(i int, kid *Comm) {
				defer wg.Done()
				for rd := 0; rd < rounds; rd++ {
					// Distinct payload per (child, round, rank): an
					// AllGather must return exactly its own child's set.
					mine := make([]byte, 12)
					binary.LittleEndian.PutUint32(mine[0:4], uint32(i))
					binary.LittleEndian.PutUint32(mine[4:8], uint32(rd))
					binary.LittleEndian.PutUint32(mine[8:12], uint32(kid.Rank()))
					blobs, err := kid.AllGather(context.Background(), mine)
					if err != nil {
						errs[i] = fmt.Errorf("child %d round %d: %w", i, rd, err)
						return
					}
					for r, blob := range blobs {
						if len(blob) != 12 {
							errs[i] = fmt.Errorf("child %d round %d: blob len %d", i, rd, len(blob))
							return
						}
						gotChild := binary.LittleEndian.Uint32(blob[0:4])
						gotRound := binary.LittleEndian.Uint32(blob[4:8])
						gotRank := binary.LittleEndian.Uint32(blob[8:12])
						if int(gotChild) != i || int(gotRound) != rd || int(gotRank) != r {
							errs[i] = fmt.Errorf("child %d round %d: crossed payload (child %d round %d rank %d)",
								i, rd, gotChild, gotRound, gotRank)
							return
						}
					}
				}
			}(i, kid)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		// The parent must remain usable after (and interleaved with) the
		// children: tag spaces are disjoint by construction.
		_, err = c.Bcast(context.Background(), 0, []byte{1})
		return err
	})
}

func TestForkRejectsNonPositive(t *testing.T) {
	forkSPMD(t, 1, func(c *Comm) error {
		if _, err := c.Fork(0); err == nil {
			return fmt.Errorf("Fork(0) should fail")
		}
		return nil
	})
}

// TestForkTagSpanGuard: a forked child that outruns its reserved tag
// span must fail loudly instead of silently colliding with its sibling.
func TestForkTagSpanGuard(t *testing.T) {
	forkSPMD(t, 1, func(c *Comm) error {
		kids, err := c.Fork(2)
		if err != nil {
			return err
		}
		defer func() {
			if recover() == nil {
				t.Error("claiming past the child tag span should panic")
			}
		}()
		kids[0].ClaimTags(subcommTagSpan + 1)
		return nil
	})
}

func TestStatsAdd(t *testing.T) {
	a := Stats{MsgsSent: 1, MsgsRecv: 2, BytesSent: 3, BytesRecv: 4, Rounds: 5}
	a.Add(Stats{MsgsSent: 10, MsgsRecv: 20, BytesSent: 30, BytesRecv: 40, Rounds: 50})
	want := Stats{MsgsSent: 11, MsgsRecv: 22, BytesSent: 33, BytesRecv: 44, Rounds: 55}
	if a != want {
		t.Fatalf("Stats.Add = %+v, want %+v", a, want)
	}
}

func TestAddStatsFoldsIntoComm(t *testing.T) {
	forkSPMD(t, 2, func(c *Comm) error {
		kids, err := c.Fork(1)
		if err != nil {
			return err
		}
		if _, err := kids[0].Bcast(context.Background(), 0, []byte{1}); err != nil {
			return err
		}
		before := c.Stats()
		c.AddStats(kids[0].Stats())
		after := c.Stats()
		if after.MsgsSent+after.MsgsRecv <= before.MsgsSent+before.MsgsRecv {
			return fmt.Errorf("child traffic not folded: before %+v after %+v", before, after)
		}
		return nil
	})
}
