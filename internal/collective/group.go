package collective

import (
	"fmt"

	"gtopkssgd/internal/transport"
)

// groupTagSpan is the tag space each level of a ForkGroup receives.
// Hierarchical aggregators issue a handful of tags per iteration
// (2·⌈log₂n⌉ per collective), so 2^20 tags outlast any training run
// while two spans still fit inside a forked child's 2^22-tag budget —
// which is what lets every bucket of the bucketed pipeline carry its
// own group hierarchy.
const groupTagSpan = 1 << 20

// GroupComms is the communicator pair a hierarchical collective runs
// over: every rank belongs to one contiguous group of (up to) G ranks
// and holds a Members communicator local to that group; the first rank
// of each group is its leader and additionally holds a Leaders
// communicator spanning all group leaders.
type GroupComms struct {
	// Members spans this rank's group (size G, except the tail group of
	// a non-divisible world, which is smaller). Member rank 0 is the
	// group leader.
	Members *Comm
	// Leaders spans the group leaders, one per group, ordered by group
	// index. Nil on non-leader ranks.
	Leaders *Comm
	// Group is this rank's group index (world rank / G).
	Group int
	// NumGroups is the group count, ⌈world/G⌉ — the leader-level world
	// size every rank knows (non-leaders charge the leader exchange
	// against it).
	NumGroups int
}

// ForkGroup partitions the communicator's world into contiguous groups
// of size g (the final group takes the remainder of a non-divisible
// world) and returns this rank's member and leader sub-communicators.
// Like Fork, it is a collective in spirit: every rank must call it on
// the same communicator in the same order with the same g, so the
// derived tag spans line up across ranks. Member communicators of
// different groups deliberately SHARE one tag span — their world-rank
// pairs are disjoint, so their wire traffic cannot collide — while the
// leader communicator gets its own span because leaders also carry
// member traffic.
//
// The sub-communicators share the parent's transport endpoint through
// rank-remapping views (transport.GroupView): wire capabilities, the
// negotiated codec, the value preference (a forked Compressor) and the
// tally carry over. They start untimed with fresh statistics; attach
// clocks with WithClock and fold counters back with AddStats. Their
// finite tag spans cannot hold nested Fork spans — fork the parent
// instead.
func (c *Comm) ForkGroup(g int) (*GroupComms, error) {
	p := c.Size()
	if g < 1 || g > p {
		return nil, fmt.Errorf("collective: group size %d out of range [1,%d]", g, p)
	}
	r := c.Rank()
	base := c.claimTags(2 * groupTagSpan)

	group := r / g
	lo := group * g
	hi := lo + g
	if hi > p {
		hi = p
	}
	memberRanks := make([]int, 0, hi-lo)
	for w := lo; w < hi; w++ {
		memberRanks = append(memberRanks, w)
	}
	memberConn, err := transport.GroupView(c.conn, memberRanks)
	if err != nil {
		return nil, fmt.Errorf("collective: fork group members: %w", err)
	}
	numGroups := (p + g - 1) / g
	gc := &GroupComms{
		Members: &Comm{
			conn:     memberConn,
			nextTag:  base,
			tagLimit: base + groupTagSpan,
			comp:     forkCompressor(c.comp, 0),
			tally:    c.tally,
		},
		Group:     group,
		NumGroups: numGroups,
	}
	if r == lo {
		leaderRanks := make([]int, 0, numGroups)
		for w := 0; w < p; w += g {
			leaderRanks = append(leaderRanks, w)
		}
		leaderConn, err := transport.GroupView(c.conn, leaderRanks)
		if err != nil {
			return nil, fmt.Errorf("collective: fork group leaders: %w", err)
		}
		gc.Leaders = &Comm{
			conn:     leaderConn,
			nextTag:  base + groupTagSpan,
			tagLimit: base + 2*groupTagSpan,
			comp:     forkCompressor(c.comp, 1),
			tally:    c.tally,
		}
	}
	return gc, nil
}
