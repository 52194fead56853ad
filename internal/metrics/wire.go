package metrics

import (
	"fmt"
	"sync"
)

// WireTally accumulates per-round wire-byte counters for one worker:
// how many bytes its sparse frames occupied as encoded versus what the
// flat v1 layout would have cost (raw), so the compression ratio of the
// negotiated codec is observable in real runs, not just in the bench
// harness. The zero value is ready to use.
//
// Counting unit: one observation per frame ENCODED by this rank — a
// compression event. Collectives that retransmit a frame (AllGather's
// recursive doubling, the broadcast tree's relays) do not re-observe
// it, so the ratio is exactly the codec's per-frame efficiency;
// transmission volume, retransmissions included, stays in the
// communicator's Stats.BytesSent.
//
// Safe for concurrent use: the bucketed pipeline's forked
// sub-communicators all observe into their parent's tally.
type WireTally struct {
	mu     sync.Mutex
	frames int64
	raw    int64
	wire   int64
}

// Observe records one frame crossing the wire: raw is the flat
// v1-equivalent byte count for the frame's entries, wire the bytes the
// negotiated codec actually produced.
func (t *WireTally) Observe(raw, wire int64) {
	t.mu.Lock()
	t.frames++
	t.raw += raw
	t.wire += wire
	t.mu.Unlock()
}

// Snapshot returns the counters accumulated so far.
func (t *WireTally) Snapshot() WireCounters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return WireCounters{Frames: t.frames, RawBytes: t.raw, WireBytes: t.wire}
}

// Reset zeroes the counters (between epochs or logging intervals).
func (t *WireTally) Reset() {
	t.mu.Lock()
	t.frames, t.raw, t.wire = 0, 0, 0
	t.mu.Unlock()
}

// WireCounters is one consistent reading of a WireTally.
type WireCounters struct {
	// Frames is the number of distinct sparse frames this rank encoded.
	Frames int64
	// RawBytes is the flat v1-equivalent volume (8 bytes per entry plus
	// headers) — what the same frames would cost under the v1 codec.
	RawBytes int64
	// WireBytes is the volume the negotiated codec produced for those
	// frames (retransmissions of a frame are not re-counted; see the
	// WireTally doc).
	WireBytes int64
}

// Ratio returns RawBytes/WireBytes — the codec's compression ratio
// (1.0 for v1, 0 when nothing was observed).
func (c WireCounters) Ratio() float64 {
	if c.WireBytes == 0 {
		return 0
	}
	return float64(c.RawBytes) / float64(c.WireBytes)
}

// String renders the counters the way gtopk-worker logs them.
func (c WireCounters) String() string {
	return fmt.Sprintf("frames=%d raw=%dB wire=%dB ratio=%.2fx", c.Frames, c.RawBytes, c.WireBytes, c.Ratio())
}
