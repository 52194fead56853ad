package core

import (
	"context"
	"fmt"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/sparse"
)

// This file implements the two extensions the paper sketches but does not
// evaluate: gTop-k under a Parameter-Server topology (footnote 2: "it is
// also applicable to the Parameter Server based distributed SGD") and
// layer-wise sparsification (Section VII: "we would like to investigate
// layer-wise sparsification"). Both are exercised by dedicated ablation
// experiments in internal/bench.

// PSGTopKAllReduce aggregates sparse gradients through a star topology:
// every worker ships its top-k to rank 0 (the parameter server), which
// sums them, re-selects the global top-k, and broadcasts the result.
// Selection-wise this equals NaiveGTopKAllReduce (exact global top-k of
// the sum); communication-wise the server link carries (P−1) messages per
// phase, i.e. cost ≈ 2(P−1)(α + 2kβ), which scales worse than the tree's
// 2·logP rounds — the ablation quantifies exactly that gap.
func PSGTopKAllReduce(ctx context.Context, comm *collective.Comm, local *sparse.Vector, k int) (*sparse.Vector, error) {
	const server = 0
	p := comm.Size()
	base := comm.ClaimTags(1)
	var global *sparse.Vector
	if comm.Rank() == server {
		sum := local.Clone()
		for src := 1; src < p; src++ {
			blob, err := comm.RecvTag(ctx, src, base)
			if err != nil {
				return nil, fmt.Errorf("core: ps gtopk recv from %d: %w", src, err)
			}
			v, err := sparse.Decode(blob)
			if err != nil {
				return nil, fmt.Errorf("core: ps gtopk payload from %d: %w", src, err)
			}
			if sum, err = sparse.Add(sum, v); err != nil {
				return nil, fmt.Errorf("core: ps gtopk sum: %w", err)
			}
			// The server pays one sequential round per worker.
			comm.ChargeRound(2 * k)
		}
		global = sparse.TopKSparse(sum, k)
	} else {
		if err := comm.SendTag(ctx, server, base, sparse.Encode(local)); err != nil {
			return nil, fmt.Errorf("core: ps gtopk send: %w", err)
		}
		// Workers wait while the server drains all P−1 uploads in turn.
		for i := 0; i < p-1; i++ {
			comm.ChargeRound(2 * k)
		}
	}
	var payload []byte
	if comm.Rank() == server {
		payload = sparse.Encode(global)
	}
	blob, err := comm.Bcast(ctx, server, payload)
	if err != nil {
		return nil, fmt.Errorf("core: ps gtopk bcast: %w", err)
	}
	out, err := sparse.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("core: ps gtopk bcast payload: %w", err)
	}
	return out, nil
}

// PSGTopKAggregator runs gTop-k S-SGD through PSGTopKAllReduce. Rank 0
// doubles as server and worker, as in classic PS deployments where the
// server is colocated.
type PSGTopKAggregator struct {
	comm  *collective.Comm
	sp    *Sparsifier
	k     int
	dense []float32
}

// NewPSGTopKAggregator creates the PS-mode aggregator.
func NewPSGTopKAggregator(comm *collective.Comm, dim, k int) (*PSGTopKAggregator, error) {
	if err := validateK(dim, k); err != nil {
		return nil, err
	}
	return &PSGTopKAggregator{comm: comm, sp: NewSparsifier(dim), k: k, dense: make([]float32, dim)}, nil
}

// Name implements Aggregator.
func (a *PSGTopKAggregator) Name() string { return "gtopk-ps" }

// Aggregate implements Aggregator.
func (a *PSGTopKAggregator) Aggregate(ctx context.Context, grad []float32) ([]float32, error) {
	local, err := a.sp.Select(grad, a.k)
	if err != nil {
		return nil, fmt.Errorf("core: ps aggregate: %w", err)
	}
	global, err := PSGTopKAllReduce(ctx, a.comm, local, a.k)
	if err != nil {
		return nil, err
	}
	// The star ships lossless v1 frames, so there is no transform error to
	// fold — only Algorithm 4 line 10.
	a.sp.PutBack(local, global.Indices)
	global.MeanInto(a.dense, a.comm.Size())
	return a.dense, nil
}

// NewLayerwiseGTopKAggregator applies gTop-k independently per layer
// segment: each layer l with m_l parameters contributes k_l = max(1,
// ρ·m_l) globally selected gradients. This is the layer-wise
// sparsification of the paper's future-work section; it trades slightly
// more selected coordinates (Σ k_l ≥ k) and logP·L communication rounds
// for per-layer fairness (the single global top-k tends to starve
// small-gradient layers, the effect the paper blames for AlexNet's slight
// convergence degradation). A per-segment residual, top-k, gTop-k and
// put-back is exactly what a bucket of the bucketed pipeline runs, so
// this is that pipeline with one bucket per layer; bounds are the
// cumulative layer offsets (bounds[0] = 0, bounds[L] = dim, strictly
// increasing).
func NewLayerwiseGTopKAggregator(comm *collective.Comm, bounds []int, density float64) (*BucketedAggregator, error) {
	return NewBucketedAggregator(comm, bounds, density)
}

// LayerBounds derives cumulative parameter offsets from per-layer counts.
func LayerBounds(counts []int) []int {
	bounds := make([]int, len(counts)+1)
	for i, c := range counts {
		bounds[i+1] = bounds[i] + c
	}
	return bounds
}
