package core

import (
	"fmt"

	"gtopkssgd/internal/collective"
)

// This file holds the two-level hierarchical gTop-k collective for
// large worlds, which GTopKInto (allreduce.go) runs over ForkHier's
// groups. Ranks are partitioned into contiguous groups of G, and the
// first rank of each group is its leader. The hierarchy is not a second
// collective: it is a second plan for the one sparse executor
// (runLevels in allreduce.go), which the flat tree runs too. The first
// level is the group, one radix-G block per group rooted at its leader:
// each member hands its local top-k to the leader as one frame, and the
// leader folds the group with the tree's binomial position schedule
// (binomialPositionFold), so it computes the tree's exact ⊕ sequence; it
// folds its own selection as a tree receiver does, neither encoded nor
// pinned. The leaders' binomial tree follows, its top level the pinned
// swap. On the way back down the leaders hand the global result down
// their tree and then send each member one frame of it — under a
// quantized codec a lossless v3 frame, since the leaders' top already
// pinned it. The result inherits the tree's determinism: replicas are
// bitwise-consistent on every fabric, and the bits depend only on
// (P, G, k), never on goroutine or leader arrival order.
//
// Cost shape (netsim.Model.HierGTopK): one gather round, the leaders'
// 2⌈log₂⌈P/G⌉⌉−1 rounds and one fan-out round — at power-of-two sizes
// 2(⌈log₂G⌉−1) link latencies fewer than the flat tree's 2⌈log₂P⌉−1.
// The price is the leader's link, which carries G−1 frames per group
// leg where a tree rank carries ⌈log₂G⌉. So a one-round leg wins while
// (G−1−⌈log₂G⌉) frame transfers cost less than ⌈log₂G⌉−1 latencies —
// at G=4, while a frame's 2kβ is below one α — and loses at large k·G.
// The hierarchy also buys synchronization-domain size: its rounds
// synchronize G or ⌈P/G⌉ ranks instead of all P, which matters under
// straggler skew (netsim.Model.SyncGamma), where the flat tree's
// world-sized rounds inflate with log₂P. The hierarchy bench records the
// resulting flat-vs-hierarchical crossover. A failed rank or leader is
// not patched up inside a round: the elastic runtime tears the epoch
// down, re-forks the groups and resumes from the checkpoint.

// ForkHier forks the group sub-communicators for a hierarchy over groups
// of g ranks and points them at the parent's simulated clock and model:
// the hierarchy phases run sequentially on each rank, so sharing the
// parent clock keeps the accounting automatic. It returns nil in the
// flat regime, g <= 1 or g >= P. Every rank must fork at the same point
// of its collective sequence, and each fork consumes a slice of the
// parent's tag space: a caller that runs the collective every iteration
// forks once (the aggregators do it at construction).
func ForkHier(parent *collective.Comm, g int) (*collective.GroupComms, error) {
	if g <= 1 || g >= parent.Size() {
		return nil, nil
	}
	gc, err := parent.ForkGroup(g)
	if err != nil {
		return nil, fmt.Errorf("core: hierarchy over groups of %d: %w", g, err)
	}
	if model, timed := parent.Model(); timed {
		gc.Members.WithClock(parent.Clock(), model)
		if gc.Leaders != nil {
			gc.Leaders.WithClock(parent.Clock(), model)
		}
	}
	return gc, nil
}

// foldHierStats folds the group sub-communicators' message counters into
// the parent and resets them, so per-rank totals stay complete across
// repeated collectives (a no-op in the flat regime, gc == nil).
func foldHierStats(parent *collective.Comm, gc *collective.GroupComms) {
	if gc == nil {
		return
	}
	parent.AddStats(gc.Members.Stats())
	gc.Members.ResetStats()
	if gc.Leaders != nil {
		parent.AddStats(gc.Leaders.Stats())
		gc.Leaders.ResetStats()
	}
}
