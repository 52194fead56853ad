package core

import (
	"context"
	"fmt"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/sparse"
)

// This file is core's pin file: the names whose only non-test caller is
// benchmark/'s decomposed step, each a thin wrapper over the real API.
// Nothing outside benchmark/ and tests calls them (TestBenchmarkPins).

// ChunksFor returns 1 for every k: each gTop-k hop is one frame. For
// benchmark/ only; delete with ROADMAP item 1(a).
func ChunksFor(int) int { return 1 }

// GTopKAllReduceInto is GTopKInto's flat tree with a chunks argument
// that must be 1. For benchmark/ only; delete with ROADMAP item 1(a).
func GTopKAllReduceInto(ctx context.Context, comm *collective.Comm, local *sparse.Vector, k, chunks int, out *sparse.Vector) error {
	return HierarchicalGTopKAllReduceInto(ctx, comm, nil, local, k, chunks, out)
}

// HierarchicalGTopKAllReduceInto is GTopKInto with a chunks argument
// that must be 1. For benchmark/ only; delete with ROADMAP item 1(a).
func HierarchicalGTopKAllReduceInto(ctx context.Context, comm *collective.Comm, gc *collective.GroupComms, local *sparse.Vector, k, chunks int, out *sparse.Vector) error {
	if chunks != 1 {
		return fmt.Errorf("core: gtopk: chunks=%d, but every hop is one frame (pass 1)", chunks)
	}
	return GTopKInto(ctx, comm, gc, local, k, out)
}

// SetMomentumCorrection lends the round a velocity of its own when
// mu > 0, which no checkpoint carries; set TrainConfig.Momentum instead.
// For benchmark/ only; delete with ROADMAP item 1(a).
func (r *round) SetMomentumCorrection(mu float32) {
	var v []float32
	if mu > 0 {
		v = make([]float32, r.sp.Dim())
	}
	r.lendVelocity(mu, v)
}

// SetMomentumCorrection gives every bucket a velocity of its own. Call
// before training, not between Begin and Finish. For benchmark/ only;
// delete with ROADMAP item 1(a).
func (a *BucketedAggregator) SetMomentumCorrection(mu float32) {
	for _, b := range a.buckets {
		b.SetMomentumCorrection(mu)
	}
}

// Select is SelectMomentum without momentum correction. For benchmark/
// only; delete with ROADMAP item 1(a).
func (s *Sparsifier) Select(grad []float32, k int) (*sparse.Vector, error) {
	return s.SelectMomentum(0, nil, grad, k)
}

// PutBack is Settle of a lossless round: the entries of local that
// global, the ascending surviving support, dropped return to the
// residual. For benchmark/ only; delete with ROADMAP item 1(a).
func (s *Sparsifier) PutBack(local *sparse.Vector, global []int32) {
	s.Settle(local, nil, global)
}

// FoldError is Settle's fold alone: for each selected index the
// residual gains orig−sent, the compression error of the value the wire
// transform shipped. For benchmark/ only; delete with ROADMAP item 1(a).
func (s *Sparsifier) FoldError(indices []int32, orig, sent []float32) {
	s.Settle(&sparse.Vector{Indices: indices, Values: sent}, orig, indices)
}
