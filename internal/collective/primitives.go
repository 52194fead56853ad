package collective

import (
	"context"
	"fmt"
)

// Bcast distributes root's payload to all ranks along a binomial tree,
// taking ceil(log2 P) rounds. Non-root ranks pass nil data and receive
// the payload as the return value; the root's payload is returned as-is.
//
// This is the "flat-tree" broadcast the paper cites for gTopKAllReduce's
// second phase: logP rounds each moving the full payload, for a cost of
// logP·α + n·logP·β.
func (c *Comm) Bcast(ctx context.Context, root int, data []byte) ([]byte, error) {
	p := c.Size()
	if root < 0 || root >= p {
		return nil, fmt.Errorf("collective: bcast root %d out of range [0,%d)", root, p)
	}
	rounds := log2(p)
	if 1<<rounds < p {
		rounds++
	}
	base := c.claimTags(rounds)
	if p == 1 {
		return data, nil
	}
	// Work in root-relative coordinates so any root reduces to root 0.
	vrank := (c.Rank() - root + p) % p

	have := vrank == 0
	payload := data
	for j := 0; j < rounds; j++ {
		span := 1 << j // ranks [0, span) hold the payload before round j
		switch {
		case have && vrank < span:
			peer := vrank + span
			if peer < p {
				dst := (peer + root) % p
				if err := c.send(ctx, dst, base+j, payload); err != nil {
					return nil, fmt.Errorf("bcast round %d: %w", j, err)
				}
			}
		case !have && vrank >= span && vrank < 2*span:
			src := ((vrank - span) + root) % p
			got, err := c.recv(ctx, src, base+j)
			if err != nil {
				return nil, fmt.Errorf("bcast round %d: %w", j, err)
			}
			payload = got
			have = true
		}
		c.chargeRound(len(payload) / 4)
	}
	if !have {
		return nil, fmt.Errorf("collective: bcast rank %d never received payload", c.Rank())
	}
	return payload, nil
}

// AllGather collects every rank's payload on every rank using recursive
// doubling: log2(P) rounds in which pairs exchange their accumulated
// blocks. Requires power-of-two P (the harness's worker counts all are);
// returns the payloads indexed by rank.
//
// Cost: logP·α + (P−1)·n·β for per-rank payloads of n elements — exactly
// the AllGather term the paper charges TopKAllReduce with (Eq. 6).
func (c *Comm) AllGather(ctx context.Context, payload []byte) ([][]byte, error) {
	p := c.Size()
	if err := requirePow2(p); err != nil {
		return nil, err
	}
	out := make([][]byte, p)
	out[c.Rank()] = payload
	if p == 1 {
		return out, nil
	}
	rounds := log2(p)
	base := c.claimTags(rounds)
	r := c.Rank()

	// ownedLow tracks the base of the contiguous (in virtual order) block
	// of ranks whose payloads this rank currently holds.
	ownedLow, ownedSize := r, 1
	for j := 0; j < rounds; j++ {
		peer := r ^ (1 << j)
		// Serialize owned block: count + (rank, len, bytes) per entry.
		blob := packBlocks(out, ownedLow, ownedSize, p)
		var got []byte
		// Deadlock-free pairwise exchange: lower rank sends first; the
		// fabric's buffered sends make this safe either way, but a fixed
		// order keeps traces deterministic.
		if r < peer {
			if err := c.send(ctx, peer, base+j, blob); err != nil {
				return nil, fmt.Errorf("allgather round %d: %w", j, err)
			}
			b, err := c.recv(ctx, peer, base+j)
			if err != nil {
				return nil, fmt.Errorf("allgather round %d: %w", j, err)
			}
			got = b
		} else {
			b, err := c.recv(ctx, peer, base+j)
			if err != nil {
				return nil, fmt.Errorf("allgather round %d: %w", j, err)
			}
			got = b
			if err := c.send(ctx, peer, base+j, blob); err != nil {
				return nil, fmt.Errorf("allgather round %d: %w", j, err)
			}
		}
		if err := unpackBlocks(out, got); err != nil {
			return nil, fmt.Errorf("allgather round %d: %w", j, err)
		}
		// The owned block doubles; its base aligns down to the doubled size.
		ownedSize *= 2
		ownedLow &^= ownedSize - 1
		c.chargeRound(len(blob) / 4)
	}
	return out, nil
}

// RingAllReduceSum sums x element-wise across all ranks in place using the
// bandwidth-optimal ring algorithm: a reduce-scatter pass followed by an
// all-gather pass, 2(P−1) rounds moving ~m/P elements each. Works for any
// P >= 1 and any vector length (uneven chunks handled).
//
// Cost: 2(P−1)·α + 2·(P−1)/P·m·β — the paper's Eq. 5 (DenseAllReduce).
func (c *Comm) RingAllReduceSum(ctx context.Context, x []float32) error {
	p := c.Size()
	if p == 1 {
		return nil
	}
	rounds := 2 * (p - 1)
	base := c.claimTags(rounds)
	r := c.Rank()
	next := (r + 1) % p
	prev := (r - 1 + p) % p

	// chunk boundaries: chunk i covers [bounds[i], bounds[i+1]).
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = i * len(x) / p
	}
	chunk := func(i int) []float32 {
		i = ((i % p) + p) % p
		return x[bounds[i]:bounds[i+1]]
	}

	// Phase 1: reduce-scatter. After step s (0-based), rank r holds the
	// partial sum of chunk (r-s-1) across s+2 ranks; after p-2 steps rank
	// r holds the full sum of chunk (r+1).
	for s := 0; s < p-1; s++ {
		sendIdx := r - s
		recvIdx := r - s - 1
		sendBuf := encodeF32(chunk(sendIdx))
		if err := c.send(ctx, next, base+s, sendBuf); err != nil {
			return fmt.Errorf("reduce-scatter step %d: %w", s, err)
		}
		got, err := c.recv(ctx, prev, base+s)
		if err != nil {
			return fmt.Errorf("reduce-scatter step %d: %w", s, err)
		}
		dst := chunk(recvIdx)
		if err := addDecodedF32(dst, got); err != nil {
			return fmt.Errorf("reduce-scatter step %d: %w", s, err)
		}
		c.chargeRound(len(dst))
	}
	// Phase 2: all-gather the reduced chunks around the ring.
	for s := 0; s < p-1; s++ {
		sendIdx := r + 1 - s
		recvIdx := r - s
		sendBuf := encodeF32(chunk(sendIdx))
		tag := base + (p - 1) + s
		if err := c.send(ctx, next, tag, sendBuf); err != nil {
			return fmt.Errorf("allgather step %d: %w", s, err)
		}
		got, err := c.recv(ctx, prev, tag)
		if err != nil {
			return fmt.Errorf("allgather step %d: %w", s, err)
		}
		dst := chunk(recvIdx)
		if err := copyDecodedF32(dst, got); err != nil {
			return fmt.Errorf("allgather step %d: %w", s, err)
		}
		c.chargeRound(len(dst))
	}
	return nil
}

// RingAllReduceMean averages x element-wise across all ranks in place.
func (c *Comm) RingAllReduceMean(ctx context.Context, x []float32) error {
	if err := c.RingAllReduceSum(ctx, x); err != nil {
		return err
	}
	inv := 1 / float32(c.Size())
	for i := range x {
		x[i] *= inv
	}
	return nil
}
