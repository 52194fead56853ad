package core

import (
	"context"
	"fmt"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/sparse"
)

// This file implements the quorum gTop-k collective — straggler
// tolerance (quorum.go holds its configuration and verdict format)
// composed with the two-level hierarchy (hierarchical.go), which is the
// regime where both matter: at P >= 64 the hierarchy wins on
// synchronization-domain size, and a per-level deadline budget keeps one
// slow member (or one wholly partitioned group) from stalling the whole
// world. The flat quorum collective is its one-group case: the world is
// the group, its leader is the root, phase 2 is skipped and the whole
// round deadline bounds both the gather and each verdict-receive attempt.
//
// One round runs three phases under one deadline budget
// (QuorumConfig.SplitLevels):
//
//   1. Intra-group quorum gather: every member ships its local top-k to
//      its group leader; the leader closes after q_g of G contributions
//      under the Group budget and folds the participants' frames with
//      the position-binomial ⊕ schedule.
//   2. Leader-level quorum gather: each leader ships its group aggregate
//      PLUS the group's participant set (the group-verdict wire format)
//      to the global root; the root closes after q_l of ⌈P/G⌉ group
//      aggregates under the Leader budget, folds them over leader
//      positions with the same binomial schedule, and unions the
//      participating groups' member sets into the world participant set.
//   3. Verdict broadcast: the retry-hardened verdict (world participant
//      set + merged global top-k) relays root→leaders→members; each
//      receive attempt is sized by the Broadcast budget and retried, so
//      a verdict that is late — e.g. because the receiving leader was
//      still draining a delayed intra gather — is survived, not lost.
//
// Staleness stays bounded per LEVEL exactly as it is per round in the
// flat collective: every gather claims a fresh tag, so a frame that
// missed its level's deadline rots under a dead tag and can never leak
// into a later round. A straggling member is simply absent from its
// group's participant set; a whole group that misses the leader round
// contributes NOTHING to the aggregate, so every one of its members —
// leader included — is absent from the verdict and refunds its full
// selected mass to its residual (the round's Refund path), which is
// the conservation story that makes the miss convergence-safe.
//
// Phase 1 is the same code in both hierarchies: every member's frame
// comes from memberFrame and the leader folds the group with
// foldQuorumFrames; the leader's relay in phase 3 is fanOut in both.
// HierarchicalGTopKAllReduceInto's group legs are these legs at q_g = G
// without a deadline. The leader level folds with the binomial position
// schedule the plain hierarchy's leader tree follows, so at q_g = G and
// q_l = ⌈P/G⌉ every fold sees the exact ⊕ sequence of
// HierarchicalGTopKAllReduceInto: full-quorum rounds are bit-identical
// to it under lossless codecs on every fabric, and any partial round's
// bits are a pure function of the straggler schedule.

// HierQuorumGTopKAllReduceInto runs one quorum gTop-k round: over the
// caller-owned GroupComms (ForkHier with group size g from comm), or flat
// over comm itself when gc is nil, which requires a flat configuration
// (no LeaderQ, no Levels). Every rank returns the verdict's global top-k
// in out, whether its own contribution made the round, and which world
// ranks missed. The caller
// owns the conservation step: a participant folds quantization error and
// puts back globally-dropped values as usual; a straggler refunds its
// entire selected mass to the residual (Sparsifier.Refund) and skips
// put-back. Statistics accumulate on gc's sub-communicators (fold them
// with AddStats as the aggregators' round does); simulated time is
// charged on comm as a pure function of the verdict's participant set.
func HierQuorumGTopKAllReduceInto(ctx context.Context, comm *collective.Comm, gc *collective.GroupComms, local *sparse.Vector, k, g int, qc QuorumConfig, out *sparse.Vector) (bool, []int, error) {
	p := comm.Size()
	// The gather domain: the whole world under the whole deadline when
	// flat, this rank's group under the per-level budgets otherwise.
	mcomm, groupLo, q := comm, 0, qc.Q
	levels := LevelTimeouts{Group: qc.Timeout, Broadcast: qc.Timeout}
	err := qc.Validate(p)
	if gc != nil {
		err = qc.ValidateHier(p, g)
		mcomm, groupLo = gc.Members, gc.Group*g
		q, levels = groupQuorum(qc.Q, mcomm.Size()), qc.SplitLevels()
	}
	if err != nil {
		return false, nil, err
	}
	codec := mcomm.WireCodec()

	// Phase 1: quorum gather of every member's whole local selection, one
	// frame each, at the group leader (member rank 0). A wire transform
	// that rewrites the sender's values pins them in place first — the
	// caller snapshots originals before this collective, exactly like the
	// full-sync path.
	frame := memberFrame(mcomm, codec, local)
	ground, err := mcomm.QuorumGather(ctx, 0, q, levels.Group, frame)
	if err != nil {
		return false, nil, fmt.Errorf("core: quorum gather: %w", err)
	}

	// A hierarchy's verdict broadcast downgrades a quantized mesh codec to
	// lossless v3 frames, mirroring the plain hierarchy's phase 3: the
	// fold pins the global result once, and re-quantizing it per hop
	// would break cross-group bit-agreement. The flat verdict has a single
	// encoder — the root — and keeps the mesh codec.
	bcodec := codec
	if gc != nil && bcodec.Value().Quantized() {
		bcodec = sparse.CodecV3
	}

	var verdict []byte
	var participants []int
	if mcomm.Rank() == 0 {
		verdict, participants, err = quorumLeader(ctx, mcomm, gc, codec, bcodec, ground, k, p, groupLo, qc, levels, out)
	} else {
		// Phase 3, member side: wait for the leader's verdict relay
		// (deadline-aware, so a leader still draining a delayed gather is
		// survived) and decode it.
		verdict, participants, err = recvVerdict(ctx, mcomm, 0, mcomm.ClaimTags(1), bcodec, p, levels, out)
	}
	if err != nil {
		return false, nil, err
	}

	// Every leg is charged from the verdict's participant set, so every
	// rank's simulated clock is a pure function of the straggler schedule:
	// modelled 2k elements per gather contribution, and the verdict at its
	// modelled flat size under v1 but its MEASURED encoded size under
	// v3 — the same raw-vs-compressed rule every other codec-aware leg
	// follows, so the clock agrees with the WireTally across codecs.
	verdictElems := wireElems(codec, sparse.EncodedSize(out.NNZ())/4, len(verdict))
	if gc == nil {
		comm.ChargeQuorumRound(quorumRoot, participants, 2*k, verdictElems)
	} else {
		comm.ChargeHierQuorumRound(quorumRoot, g, participants, 2*k, verdictElems)
	}
	return rankIn(participants, comm.Rank()), missedFrom(participants, p), nil
}

// quorumLeader is the group leader's side of a round after its gather
// closed: fold the group's frames, run the leader-level quorum gather
// (phase 2, hierarchy only), merge — on the world root — or receive the
// world verdict, and relay it down the group. Returns the verdict blob
// and the world participant set; out receives the global top-k.
func quorumLeader(ctx context.Context, mcomm *collective.Comm, gc *collective.GroupComms, codec, bcodec sparse.Codec, ground *collective.QuorumRound, k, p, groupLo int, qc QuorumConfig, levels LevelTimeouts, out *sparse.Vector) ([]byte, []int, error) {
	// Fold this group's participating member frames into the group
	// aggregate and lift member ranks to world ranks — groups are
	// contiguous, so the lifted set stays strictly ascending.
	merged, _, err := foldQuorumFrames(codec, ground.Blobs, k, p, false)
	if err != nil {
		return nil, nil, err
	}
	participants := make([]int, len(ground.Participants))
	for i, mr := range ground.Participants {
		participants[i] = groupLo + mr
	}

	root, ltag := true, 0
	if gc != nil {
		// Phase 2: the leader frame reuses the verdict wire format — the
		// group's world-rank participant set rides ahead of the aggregate,
		// so the root learns both from one frame.
		lcomm := gc.Leaders
		lcodec := lcomm.WireCodec()
		lscale, llev := transformForWire(lcomm, lcodec, merged.Values)
		lframe := encodeVerdict(lcodec, participants, merged, lscale, llev)
		lcomm.TallyWire(sparse.EncodedSize(merged.NNZ()), len(lframe))
		sparse.PutVector(merged)
		lround, err := lcomm.QuorumGather(ctx, quorumRoot, qc.leaderQuorum(gc.NumGroups), levels.Leader, lframe)
		if err != nil {
			return nil, nil, fmt.Errorf("core: quorum leader gather: %w", err)
		}
		ltag = lcomm.ClaimTags(1)
		if root = lcomm.Rank() == quorumRoot; root {
			// Fold the group aggregates over leader positions and union the
			// participating groups' member sets into the world set.
			if merged, participants, err = foldQuorumFrames(lcodec, lround.Blobs, k, p, true); err != nil {
				return nil, nil, err
			}
		}
	}

	var verdict []byte
	if root {
		// Pin the merged result to the broadcast precision BEFORE both the
		// local copy and the encode, so the root keeps exactly the bits
		// every other rank decodes.
		vscale, vlevels := transformForWire(mcomm, bcodec, merged.Values)
		sparse.CopyInto(out, merged)
		verdict = encodeVerdict(bcodec, participants, merged, vscale, vlevels)
		mcomm.TallyWire(sparse.EncodedSize(out.NNZ()), len(verdict))
		sparse.PutVector(merged)
		if gc != nil {
			if err := fanOut(ctx, gc.Leaders, ltag, verdict); err != nil {
				return nil, nil, fmt.Errorf("core: quorum verdict send to the leaders: %w", err)
			}
		}
	} else if verdict, participants, err = recvVerdict(ctx, gc.Leaders, quorumRoot, ltag, bcodec, p, levels, out); err != nil {
		return nil, nil, err
	}

	// Phase 3: relay the verdict bytes down the group unmodified, so every
	// member decodes exactly the root's bits.
	if err := fanOut(ctx, mcomm, mcomm.ClaimTags(1), verdict); err != nil {
		return nil, nil, fmt.Errorf("core: quorum verdict relay: %w", err)
	}
	return verdict, participants, nil
}

// recvVerdict waits for the verdict from src on c — each attempt sized
// by the Broadcast budget and retried, so a late verdict is survived,
// not lost — and decodes it into out. Returns the verdict blob and the
// world participant set.
func recvVerdict(ctx context.Context, c *collective.Comm, src, tag int, bcodec sparse.Codec, p int, levels LevelTimeouts, out *sparse.Vector) ([]byte, []int, error) {
	blob, err := c.RecvTagRetry(ctx, src, tag, verdictRetryPolicy(levels.Broadcast))
	if err != nil {
		return nil, nil, fmt.Errorf("core: quorum verdict recv: %w", err)
	}
	participants, err := decodeVerdict(bcodec, blob, p, out)
	if err != nil {
		return nil, nil, fmt.Errorf("core: quorum verdict: %w", err)
	}
	return blob, participants, nil
}
