package collective

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gtopkssgd/internal/bufpool"
	"gtopkssgd/internal/netsim"
)

// This file implements the straggler-tolerant quorum primitives: a
// deadline-bounded gather that closes after q of P contributions, and
// the per-leg charge that prices its rounds, per link when a
// heterogeneous model (netsim.LinkModel) is attached.

// QuorumRound reports one quorum gather: which ranks contributed before
// the round closed and which missed the deadline.
type QuorumRound struct {
	// Blobs holds, on the ROOT only, each participant's payload indexed
	// by rank (the root's own frame included); missed ranks are nil. On
	// non-root ranks Blobs is nil.
	Blobs [][]byte
	// Participants lists, on the root, the contributing ranks ascending
	// (always includes the root).
	Participants []int
	// Missed lists, on the root, the ranks whose frames had not arrived
	// when the round closed.
	Missed []int
}

// WithLinks attaches a heterogeneous per-link α-β model used by
// ChargeLeg (nil detaches and falls back to the uniform model
// attached via WithClock). Inherited by Fork. Returns c for chaining.
func (c *Comm) WithLinks(lm *netsim.LinkModel) *Comm {
	c.links = lm
	return c
}

// QuorumGather is the straggler-tolerant gather primitive: every
// non-root rank sends frame to root; the root collects contributions
// and closes the round as soon as either every rank has contributed or
// the per-round deadline has fired with at least q contributions in
// hand (its own included). If the deadline fires below quorum the root
// keeps waiting — a round never closes under q contributions, which is
// what bounds staleness: a frame is either in this round or refunded to
// its owner's residual, never silently dropped.
//
// A frame that misses the deadline can never leak into a later round:
// each round claims a fresh tag. The root still takes it when it lands
// and recycles it to the wire-buffer pool, so a dead frame never stays
// queued; that receive ends when the frame arrives, the fabric closes
// or ctx ends. Non-root frames pass to the root, as with Send.
//
// Every rank must pass the same q and timeout (SPMD). The root returns
// the round's blobs and participant/missed sets; non-root ranks return
// an empty QuorumRound once their send is accepted.
func (c *Comm) QuorumGather(ctx context.Context, root, q int, timeout time.Duration, frame []byte) (*QuorumRound, error) {
	p := c.Size()
	if root < 0 || root >= p {
		return nil, fmt.Errorf("collective: quorum root %d out of range [0,%d)", root, p)
	}
	if q < 1 || q > p {
		return nil, fmt.Errorf("collective: quorum %d out of range [1,%d]", q, p)
	}
	if timeout <= 0 {
		return nil, fmt.Errorf("collective: non-positive quorum timeout %v", timeout)
	}
	tag := c.claimTags(1)
	if c.Rank() != root {
		if err := c.send(ctx, root, tag, frame); err != nil {
			return nil, fmt.Errorf("collective: quorum send: %w", err)
		}
		return &QuorumRound{}, nil
	}

	// Root: one receive goroutine per peer races the deadline. The
	// goroutines call the raw endpoint (not c.recv) because Comm counters
	// are not goroutine-safe; stats are settled once below. Once the
	// round has closed, a goroutine recycles what it receives.
	type arrival struct {
		src  int
		blob []byte
		err  error
	}
	var mu sync.Mutex
	closed := false
	ch := make(chan arrival, p-1) // one slot per peer: no send blocks, even under mu
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		closed = true
		for len(ch) > 0 {
			bufpool.Put((<-ch).blob)
		}
	}()
	for src := 0; src < p; src++ {
		if src == root {
			continue
		}
		go func(src int) {
			blob, err := c.conn.Recv(ctx, src, tag)
			mu.Lock()
			defer mu.Unlock()
			if closed {
				bufpool.Put(blob)
			} else {
				ch <- arrival{src: src, blob: blob, err: err}
			}
		}(src)
	}

	res := &QuorumRound{Blobs: make([][]byte, p)}
	res.Blobs[root] = frame
	got := 1
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	expired := false
	for got < p && !(expired && got >= q) {
		select {
		case a := <-ch:
			if a.err != nil {
				return nil, fmt.Errorf("collective: quorum recv from %d: %w", a.src, a.err)
			}
			c.stats.MsgsRecv++
			c.stats.BytesRecv += int64(len(a.blob))
			res.Blobs[a.src] = a.blob
			got++
		case <-deadline.C:
			expired = true
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	for r := 0; r < p; r++ {
		if r == root || res.Blobs[r] != nil {
			res.Participants = append(res.Participants, r)
		} else {
			res.Missed = append(res.Missed, r)
		}
	}
	return res, nil
}

// ChargeLeg accounts one leg of a round on the simulated clock. With a
// link model attached (WithLinks) the leg lasts as long as the slowest
// of links — (from, to) pairs of world ranks, each carrying elems
// elements — and no link costs nothing; without one it is the uniform
// model's round among that many ranks.
func (c *Comm) ChargeLeg(among, elems int, links [][2]int) {
	c.stats.Rounds++
	if !c.timed {
		return
	}
	if c.links == nil {
		c.clock.Advance(c.model.Round(among, elems))
		return
	}
	var worst time.Duration
	for _, l := range links {
		worst = max(worst, c.links.PointToPoint(l[0], l[1], elems))
	}
	c.clock.Advance(worst)
}
