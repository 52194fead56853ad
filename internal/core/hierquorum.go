package core

import (
	"cmp"
	"context"
	"slices"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/sparse"
)

// This file builds the quorum gTop-k round — straggler tolerance
// (quorum.go holds its configuration and verdict format), flat or
// composed with the two-level hierarchy (hierarchical.go), which is the
// regime where both matter: at P >= 64 the hierarchy wins on
// synchronization-domain size, and a per-level deadline keeps one slow
// member (or one wholly partitioned group) from stalling the whole
// world. The round is not a collective of its own: it is a plan for the
// one gTop-k executor (runLevels in allreduce.go) whose levels carry a
// participation rule, and whose top is a gather rather than a swap.
//
// The flat round is one level, the world, gathered at rank 0 under the
// whole round deadline. The hierarchical round is two, each under its
// own budget (QuorumConfig.SplitLevels):
//
//  1. The group: every member ships its local top-k to its leader,
//     which closes after q_g of G contributions once the Group budget
//     has passed and folds its own selection with the arrivals in
//     position order (binomialPositionFold).
//  2. The leaders: each leader ships its group aggregate behind the
//     group's participant set (the verdict wire format) to the world
//     root, which closes after q_l of ⌈P/G⌉ once the Leader budget has
//     passed, folds the aggregates over leader positions and joins the
//     sets into the world participant set.
//
// On the way down the verdict — the world participant set and the
// global top-k — travels root→leaders→members, and each receive waits
// one verdict wait sized by the Broadcast budget (verdictWait), so a
// verdict that is late — e.g. because the receiving leader was still
// draining a delayed gather — is survived, not lost.
//
// The simulated clock is charged by the executor level by level once
// the verdict is in (chargeQuorum), from the participant set alone: per
// level a gather leg and this rank's own way down. The group level keeps
// radix G in the tail group too, so every rank prices the same world
// shape of G-rank groups under one leader level.
//
// Staleness stays bounded per level: every gather claims a fresh tag, so
// a frame that missed its level's deadline can never leak into a later
// round (its root takes it when it lands and recycles it). A straggling
// member is simply absent
// from its group's participant set; a whole group that misses the
// leader gather contributes nothing, so every one of its members —
// leader included — is absent from the verdict and refunds its full
// selected mass to its residual (the round's Refund path), which is the
// conservation story that makes the miss convergence-safe.
//
// At q_g = G and q_l = ⌈P/G⌉ every fold sees the exact ⊕ sequence of
// GTopKInto over the same groups (and the flat round's that of the flat
// tree), so full-quorum rounds are bit-identical to them under lossless
// codecs on every fabric, and any partial round's bits are a pure
// function of the straggler schedule.

// HierQuorumGTopKAllReduceInto runs one quorum gTop-k round: over the
// caller-owned GroupComms (ForkHier with group size g from comm), or flat
// over comm itself when gc is nil, which requires a flat configuration
// (no LeaderQ, no Levels). Every rank returns the verdict's global top-k
// in out, whether its own contribution made the round, and which world
// ranks missed. The caller owns the conservation step: a participant
// folds quantization error and puts back globally-dropped values as
// usual; a straggler refunds its entire selected mass to the residual
// (Sparsifier.Refund) and skips put-back. Statistics accumulate on gc's
// sub-communicators (fold them with AddStats as the aggregators' round
// does); simulated time is charged on comm level by level once the
// verdict is in, as a pure function of its participant set.
func HierQuorumGTopKAllReduceInto(ctx context.Context, comm *collective.Comm, gc *collective.GroupComms, local *sparse.Vector, k, g int, qc QuorumConfig, out *sparse.Vector) (bool, []int, error) {
	p := comm.Size()
	var buf [2]level
	levels := append(buf[:0], level{comm: comm, size: p, stride: 1, radix: p, quorum: qc.Q, wait: qc.Timeout})
	broadcast := qc.Timeout
	err := qc.Validate(p)
	if gc != nil {
		err = qc.ValidateHier(p, g)
		lt, n := qc.SplitLevels(), gc.Members.Size()
		levels = append(buf[:0],
			level{comm: gc.Members, size: n, stride: 1, radix: g, quorum: groupQuorum(qc.Q, n), wait: lt.Group},
			level{comm: gc.Leaders, size: gc.NumGroups, stride: 1, radix: gc.NumGroups, quorum: cmp.Or(qc.LeaderQ, gc.NumGroups), wait: lt.Leader})
		broadcast = lt.Broadcast
	}
	if err != nil {
		return false, nil, err
	}
	vd := verdict{world: p, lo: comm.Rank() - levels[0].comm.Rank(), wait: verdictWait(broadcast)}
	if err := runLevels(ctx, comm, levels, local, k, out, &vd); err != nil {
		return false, nil, err
	}
	var missed []int
	for r := range p {
		if !slices.Contains(vd.participants, r) {
			missed = append(missed, r)
		}
	}
	return slices.Contains(vd.participants, comm.Rank()), missed, nil
}
