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
// the bounds of layer-wise sparsification (Section VII: "we would like to
// investigate layer-wise sparsification"), which is the bucketed
// pipeline with one bucket per layer. Both are exercised by dedicated
// ablation experiments in internal/bench.

// PSGTopKAllReduce aggregates sparse gradients through a star topology:
// every worker ships its top-k to rank 0 (the parameter server), which
// sums them, re-selects the global top-k, and broadcasts the result.
// Selection-wise this equals NaiveGTopKAllReduce (exact global top-k of
// the sum); communication-wise the server link carries (P−1) messages per
// phase, i.e. cost ≈ 2(P−1)(α + 2kβ), which scales worse than the tree's
// 2·logP rounds — the ablation quantifies exactly that gap.
func PSGTopKAllReduce(ctx context.Context, comm *collective.Comm, local *sparse.Vector, k int) (*sparse.Vector, error) {
	const server = 0
	// Gather charges the server one sequential round per worker, and each
	// worker waits through all P−1 of them.
	blobs, err := comm.Gather(ctx, server, sparse.Encode(local))
	if err != nil {
		return nil, fmt.Errorf("core: ps gtopk: %w", err)
	}
	var payload []byte
	if comm.Rank() == server {
		sum := local
		for src := 1; src < len(blobs); src++ {
			v, err := sparse.Decode(blobs[src])
			if err != nil {
				return nil, fmt.Errorf("core: ps gtopk payload from %d: %w", src, err)
			}
			if sum, err = sparse.Add(sum, v); err != nil {
				return nil, fmt.Errorf("core: ps gtopk sum: %w", err)
			}
		}
		payload = sparse.Encode(sparse.TopKSparse(sum, k))
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
