package core

import (
	"context"
	"fmt"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/sparse"
)

// This file implements the two-level hierarchical gTop-k collective for
// large worlds. Ranks are partitioned into contiguous groups of G, and
// the first rank of each group is its leader. One step runs three
// phases: every member ships its local top-k to its leader as one frame
// and the leader folds the group's frames; the leaders run the full
// gTop-k tree over the G-fold smaller leader world; every leader sends
// the merged global top-k to each of its members as one frame. The
// leader folds its group with the binomial position schedule of the
// tree (foldQuorumFrames), so it computes the tree's exact ⊕ sequence,
// and the leader phase is the pinned flat tree: the result inherits the
// tree's determinism. Replicas are bitwise-consistent on every fabric,
// and the bits depend only on (P, G, k), never on goroutine or leader
// arrival order.
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

// HierarchicalGTopKAllReduceInto runs the two-level gTop-k over the
// caller-owned GroupComms (ForkHier) into the caller-owned result
// vector; a nil gc — ForkHier's flat regime — runs the flat
// GTopKAllReduceInto over comm, bit-identical to it. Statistics
// accumulate on gc's sub-communicators; fold them into the parent with
// foldHierStats-style AddStats calls, as the aggregators' round does.
// chunks shapes the leader tree's frames only: each group leg moves one
// frame per member.
//
// Otherwise comm is the parent communicator the groups were forked from;
// it is used only for the non-leaders' simulated-time mirror of the
// leader exchange (ChargeRoundAmong), never for wire traffic. Like all
// collectives, every rank must call with the same group size and k.
func HierarchicalGTopKAllReduceInto(ctx context.Context, comm *collective.Comm, gc *collective.GroupComms, local *sparse.Vector, k, chunks int, out *sparse.Vector) error {
	if gc == nil {
		return GTopKAllReduceInto(ctx, comm, local, k, chunks, out)
	}
	mcomm, n := gc.Members, gc.Members.Size()
	codec := mcomm.WireCodec()
	// The leader phase pins the global result to a quantizer's lattice,
	// identical bits on every leader. Re-quantizing it in the fan-out
	// would put each group's own draws on those values, so phase 3 ships
	// the pinned values in lossless v3 frames instead (v3 frames are
	// self-describing — the value codec rides in every frame — so
	// receivers decode them without any extra negotiation).
	bcodec := codec
	if bcodec.Value().Quantized() {
		bcodec = sparse.CodecV3
	}
	// Phase 1: every member, the leader included, pins and encodes its
	// whole local selection as one frame for the group leader (member
	// rank 0) — the quorum hierarchy's phase 1 at full quorum.
	frame := memberFrame(mcomm, codec, local)
	tag := mcomm.ClaimTags(2)
	if mcomm.Rank() != 0 {
		sent := len(frame)
		if err := mcomm.SendTagPooled(ctx, 0, tag, frame); err != nil {
			return fmt.Errorf("core: hierarchical gtopk group gather: %w", err)
		}
		mcomm.ChargeRound(wireElems(codec, 2*k, sent))
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
		// Phase 3 (non-leaders): the leader's frame of the global result.
		blob, err := mcomm.RecvTag(ctx, 0, tag+1)
		if err != nil {
			return fmt.Errorf("core: hierarchical gtopk fan-out: %w", err)
		}
		if err := decodeInto(bcodec, blob, out); err != nil {
			return fmt.Errorf("core: hierarchical gtopk fan-out: %w", err)
		}
		mcomm.ChargeRound(wireElems(bcodec, sparse.EncodedSize(out.NNZ())/4, len(blob)))
		sparse.PutBuffer(blob)
		return nil
	}

	// Phase 1 (leader): collect the members' frames in rank order and fold
	// them with the tree's binomial schedule.
	fs := foldPool.Get().(*foldScratch)
	defer fs.release()
	fs.blobs = append(fs.blobs, frame)
	received := 0
	for src := 1; src < n; src++ {
		blob, err := mcomm.RecvTag(ctx, src, tag)
		if err != nil {
			return fmt.Errorf("core: hierarchical gtopk group gather: %w", err)
		}
		fs.blobs, received = append(fs.blobs, blob), received+len(blob)
	}
	groupRes, _, err := foldQuorumFrames(codec, fs.blobs, k, n, false)
	if err != nil {
		return fmt.Errorf("core: hierarchical gtopk group gather: %w", err)
	}
	// Phase 2 (leaders): gTop-k over the leader world merges the group
	// aggregates into the global top-k, identical bits on every leader.
	err = GTopKAllReduceInto(ctx, gc.Leaders, groupRes, k, chunks, out)
	sparse.PutVector(groupRes)
	if err != nil || n == 1 { // a ragged world's one-rank tail group has no group legs
		return err
	}
	mcomm.ChargeRound(wireElems(codec, (n-1)*2*k, received))

	// Phase 3 (leader): encode the global result once and send every
	// member a copy. The leader tree's broadcast already pinned it to the
	// leaders' wire precision with a shared stream, the same bits on every
	// leader, and a frame of bcodec carries those bits exactly: fp16
	// values are fp16 already, and lattice values ship as v3 floats.
	bframe := encodeSparseChunk(bcodec, out, 0, out.NNZ(), 0, nil)
	mcomm.TallyWire(sparse.EncodedSize(out.NNZ()), len(bframe))
	err = fanOut(ctx, mcomm, tag+1, bframe)
	mcomm.ChargeRound(wireElems(bcodec, (n-1)*sparse.EncodedSize(out.NNZ())/4, (n-1)*len(bframe)))
	sparse.PutBuffer(bframe)
	return err
}

// memberFrame pins local to the member codec's wire precision in place
// and encodes it as one pooled frame: a member's whole contribution to
// phase 1 of both hierarchies. The caller snapshots the original values
// first when it must conserve their mass.
func memberFrame(mcomm *collective.Comm, codec sparse.Codec, local *sparse.Vector) []byte {
	scale, lev := transformForWire(mcomm, codec, local.Values)
	frame := encodeSparseChunk(codec, local, 0, local.NNZ(), scale, lev)
	mcomm.TallyWire(sparse.EncodedSize(local.NNZ()), len(frame))
	return frame
}

// fanOut sends every rank of c but rank 0 — a group's members, or the
// quorum root's fellow leaders — a pooled copy of frame under tag, in
// one round: phase 3 of both hierarchies. The caller keeps frame; each
// receiver may recycle its copy.
func fanOut(ctx context.Context, c *collective.Comm, tag int, frame []byte) error {
	for dst := 1; dst < c.Size(); dst++ {
		if err := c.SendTagPooled(ctx, dst, tag, pooledCopy(frame)); err != nil {
			return fmt.Errorf("core: fan-out to rank %d: %w", dst, err)
		}
	}
	return nil
}
