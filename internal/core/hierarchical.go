package core

import (
	"context"
	"fmt"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/sparse"
)

// This file implements the two-level hierarchical gTop-k collective for
// large worlds: ranks are partitioned into contiguous groups of G, each
// group reduces its members to the group leader along the gTop-k tree
// (reduce only — nothing reads a member's group aggregate), the group
// leaders run the full gTop-k over the G-fold smaller leader world, and
// the merged global top-k broadcasts back down from every leader. Every
// phase reuses the pinned flat tree, so the hierarchical result
// inherits its determinism: replicas are bitwise-consistent on every
// fabric, and the merge order — hence the bits — depends only on
// (P, G, k), never on goroutine or leader arrival order.
//
// Cost shape (netsim.Model.HierGTopK): ⌈log₂G⌉ reduce rounds, the
// leaders' 2⌈log₂⌈P/G⌉⌉−1 rounds and ⌈log₂G⌉ broadcast rounds — at γ=0
// and power-of-two sizes exactly the flat tree's 2⌈log₂P⌉−1. What the
// hierarchy buys is synchronization-domain size — its rounds
// synchronize G or ⌈P/G⌉ ranks instead of all P — which is worth
// nothing under the paper's pure α-β model (γ=0) and increasingly much
// under straggler skew (netsim.Model.SyncGamma), where the flat tree's
// world-sized rounds inflate with log₂P. The hierarchy bench records
// the resulting flat-vs-hierarchical crossover. A failed rank or leader
// is not patched up inside a round: the elastic runtime tears the epoch
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

// HierarchicalGTopKAllReduceInto runs the two-level gTop-k over the
// caller-owned GroupComms (ForkHier) into the caller-owned result
// vector; a nil gc — ForkHier's flat regime — runs the flat
// GTopKAllReduceInto over comm, bit-identical to it. Statistics
// accumulate on gc's sub-communicators; fold them into the parent with
// foldHierStats-style AddStats calls, as the aggregators' round does.
//
// Otherwise comm is the parent communicator the groups were forked from;
// it is used only for the non-leaders' simulated-time mirror of the
// leader exchange (ChargeRoundAmong), never for wire traffic. Like all
// collectives, every rank must call with the same group size and k.
func HierarchicalGTopKAllReduceInto(ctx context.Context, comm *collective.Comm, gc *collective.GroupComms, local *sparse.Vector, k, chunks int, out *sparse.Vector) error {
	if gc == nil {
		return GTopKAllReduceInto(ctx, comm, local, k, chunks, out)
	}
	// Phase 1: intra-group reduce to the group leader (member rank 0),
	// the only rank that reads the group aggregate.
	groupRes := sparse.GetVector()
	defer sparse.PutVector(groupRes)
	if err := gtopkTree(ctx, gc.Members, local, k, chunks, false, groupRes); err != nil {
		return fmt.Errorf("core: hierarchical gtopk group phase: %w", err)
	}

	codec := gc.Members.WireCodec()
	if codec.Value().Quantized() {
		// The leader phase pins the global result to the quantizer's
		// lattice, identical bits on every leader. Re-quantizing in the
		// member-level broadcast would put each group's own draws on
		// those values, so phase 3 ships the pinned values in lossless v3
		// frames instead (v3 frames are self-describing — the value codec
		// rides in every frame — so receivers decode them without any
		// extra negotiation).
		codec = sparse.CodecV3
	}
	var glob *sparse.Vector // the global result; nil until phase 3 on non-leaders
	if gc.Leaders != nil {
		// Phase 2 (leaders): gTop-k over the leader world merges the
		// per-group aggregates into the global top-k, identical bits on
		// every leader.
		glob = sparse.GetVector()
		defer sparse.PutVector(glob)
		if err := GTopKAllReduceInto(ctx, gc.Leaders, groupRes, k, chunks, glob); err != nil {
			return fmt.Errorf("core: hierarchical gtopk leader phase: %w", err)
		}
	} else {
		// Phase 2 (non-leaders): idle in wall time while the leaders
		// exchange, but pay the same simulated rounds — the collective is
		// synchronous, so every rank's clock advances through the leader
		// phase. The modelled payload is the v1-flat 2k elements per round
		// (k values + k indices), matching what the leaders charge under
		// the v1 codec; under compressed codecs the leaders charge measured
		// bytes and this mirror stays at the modelled bound.
		for j := 0; j < 2*netsim.CeilLog2(gc.NumGroups)-1; j++ {
			comm.ChargeRoundAmong(gc.NumGroups, 2*k)
		}
	}
	// Phase 3: broadcast the global result down the group's binomial tree
	// from the leader (member rank 0).
	if err := bcastSparseChunks(ctx, gc.Members, codec, glob, k, chunks, netsim.CeilLog2(gc.Members.Size()), out); err != nil {
		return fmt.Errorf("core: hierarchical gtopk broadcast phase: %w", err)
	}
	return nil
}
