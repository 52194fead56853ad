package collective

import (
	"context"
	"fmt"
	"time"

	"gtopkssgd/internal/netsim"
)

// This file implements the straggler-tolerant quorum primitives: a
// deadline-bounded gather that closes after q of P contributions, and
// heterogeneous per-link round charging (netsim.LinkModel).

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
// ChargeQuorumRound (nil detaches and falls back to the uniform model
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
// Frames from ranks that miss the deadline are left to rot under this
// round's tag — each round claims a fresh tag, so a late frame can
// never leak into a later round.
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
	// are not goroutine-safe; stats are settled once below.
	type arrival struct {
		src  int
		blob []byte
		err  error
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan arrival, p-1)
	for src := 0; src < p; src++ {
		if src == root {
			continue
		}
		go func(src int) {
			blob, err := c.conn.Recv(rctx, src, tag)
			ch <- arrival{src: src, blob: blob, err: err}
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

// ChargeQuorumRound accounts one quorum round (gather + verdict
// broadcast) on the simulated clock. With an attached LinkModel the
// round is priced per link: the gather closes with the slowest
// PARTICIPATING link — stragglers that missed the deadline charge
// nothing, which is the whole point of the quorum — and the verdict leg
// charges this rank's own link from the root. Without a LinkModel both
// legs fall back to the uniform model's synchronous rounds. Every rank
// derives participants from the root's verdict, so per-rank clocks stay
// a pure function of the straggler schedule.
func (c *Comm) ChargeQuorumRound(root int, participants []int, gatherElems, verdictElems int) {
	c.stats.Rounds += 2
	if !c.timed {
		return
	}
	if c.links != nil {
		c.clock.Advance(c.links.QuorumRound(c.Size(), root, c.Rank(), participants, gatherElems, verdictElems))
		return
	}
	c.clock.Advance(c.model.Round(len(participants), gatherElems))
	c.clock.Advance(c.model.Round(c.Size(), verdictElems))
}

// ChargeHierQuorumRound accounts one hierarchical quorum round — the
// intra-group gather, the leader-level gather, and the two-hop verdict
// relay (root→leaders, leaders→members) — on the simulated clock. With
// an attached LinkModel each level is priced per link over the
// PARTICIPATING links only (netsim.LinkModel.HierQuorumRound), so a
// straggling member or a wholly partitioned group charges nothing on the
// gather side. Without a LinkModel each level falls back to the uniform
// model with the level's own synchronization-domain size. Every rank
// derives participants from the root's verdict, so per-rank clocks stay
// a pure function of the straggler schedule.
func (c *Comm) ChargeHierQuorumRound(root, g int, participants []int, gatherElems, verdictElems int) {
	c.stats.Rounds += 4
	if !c.timed {
		return
	}
	world := c.Size()
	if c.links != nil {
		c.clock.Advance(c.links.HierQuorumRound(world, g, root, c.Rank(), participants, gatherElems, verdictElems))
		return
	}
	// Uniform fallback: the intra level synchronizes the largest
	// participating group, the leader level the participating groups, and
	// the verdict legs fan out over all ⌈P/g⌉ leaders then all g members.
	numGroups := (world + g - 1) / g
	perGroup := make([]int, numGroups)
	maxIntra, partGroups := 1, 0
	for _, p := range participants {
		grp := p / g
		perGroup[grp]++
		if perGroup[grp] == 1 {
			partGroups++
		}
		if perGroup[grp] > maxIntra {
			maxIntra = perGroup[grp]
		}
	}
	relay := g
	if relay > world {
		relay = world
	}
	c.clock.Advance(c.model.Round(maxIntra, gatherElems))
	c.clock.Advance(c.model.Round(partGroups, gatherElems))
	c.clock.Advance(c.model.Round(numGroups, verdictElems))
	c.clock.Advance(c.model.Round(relay, verdictElems))
}
