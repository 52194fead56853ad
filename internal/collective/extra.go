package collective

import (
	"context"
	"fmt"
)

// BcastFloat32s broadcasts root's float32 vector to every rank along
// the binomial Bcast tree and returns the received vector (the root's
// own slice is returned as-is). Non-root ranks pass nil. It exists for
// the elastic runtime's grow path: when a late joiner enters an epoch
// it adopts the cluster's weights and momentum from a donor rank, and
// those live as float32 vectors, not raw frames.
func (c *Comm) BcastFloat32s(ctx context.Context, root int, vec []float32) ([]float32, error) {
	var payload []byte
	if c.Rank() == root {
		payload = encodeF32(vec)
	}
	blob, err := c.Bcast(ctx, root, payload)
	if err != nil {
		return nil, fmt.Errorf("collective: bcast float32s: %w", err)
	}
	if c.Rank() == root {
		return vec, nil
	}
	if len(blob)%4 != 0 {
		return nil, fmt.Errorf("collective: bcast float32s: %d-byte payload not a float32 vector", len(blob))
	}
	out := make([]float32, len(blob)/4)
	if err := copyDecodedF32(out, blob); err != nil {
		return nil, err
	}
	return out, nil
}

// Gather collects every rank's payload at root, each rank sending
// directly. Root receives the payloads indexed by rank; other ranks
// receive nil. Its one caller is the elastic runtime's resume verdict,
// which gathers every rank's resume iteration and weights CRC at rank
// 0; the sparse parameter server is a gather level of core's executor.
func (c *Comm) Gather(ctx context.Context, root int, payload []byte) ([][]byte, error) {
	p := c.Size()
	if root < 0 || root >= p {
		return nil, fmt.Errorf("collective: gather root %d out of range [0,%d)", root, p)
	}
	base := c.claimTags(1)
	if c.Rank() != root {
		if err := c.send(ctx, root, base, payload); err != nil {
			return nil, fmt.Errorf("gather: %w", err)
		}
		for i := 0; i < p-1; i++ {
			c.chargeRound(len(payload) / 4)
		}
		return nil, nil
	}
	out := make([][]byte, p)
	out[root] = payload
	for src := 0; src < p; src++ {
		if src == root {
			continue
		}
		blob, err := c.recv(ctx, src, base)
		if err != nil {
			return nil, fmt.Errorf("gather from %d: %w", src, err)
		}
		out[src] = blob
		c.chargeRound(len(blob) / 4)
	}
	return out, nil
}
