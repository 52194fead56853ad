// Package collective implements the MPI-style collective operations the
// paper builds on: dissemination barrier, binomial-tree broadcast,
// recursive-doubling and ring AllGather, and ring AllReduce
// (reduce-scatter + all-gather) over dense float32 vectors.
//
// Collectives execute for real over a transport fabric, so results are
// bit-exact and testable; simultaneously each communicator can be
// attached to a simulated clock (netsim) that prices every communication
// round with the α-β model, reproducing the paper's cost equations
// (Table I) without needing 32 physical machines.
package collective

import (
	"context"
	"fmt"

	"gtopkssgd/internal/metrics"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// Stats accumulates communication counters for one rank. All collectives
// executed through a Comm add to these totals.
type Stats struct {
	MsgsSent  int
	MsgsRecv  int
	BytesSent int64
	BytesRecv int64
	Rounds    int
}

// Comm is one rank's communicator: a transport endpoint plus bookkeeping
// (tag sequencing, statistics, optional simulated-time accounting).
//
// A Comm is used SPMD-style: every rank must invoke the same collectives
// in the same order. It is not safe for concurrent use by multiple
// goroutines.
type Comm struct {
	conn  transport.Conn
	stats Stats

	clock *netsim.Clock
	model netsim.Model
	timed bool
	// links, when non-nil, prices quorum rounds with per-link α-β
	// parameters instead of the uniform model (see WithLinks).
	links *netsim.LinkModel

	nextTag int
	// tagLimit bounds this communicator's tag space (exclusive); 0 means
	// unbounded. Forked children get a finite span so overrunning it
	// fails loudly instead of silently bleeding into a sibling's tags.
	tagLimit int

	// comp, when non-nil, is this communicator's value preference and the
	// compound-pipeline value transform: its ValueCodec steers WireCodec
	// onto the matching v3 codec and the collectives round or quantize
	// hop values through it. Forked children get independent streams via
	// Compressor.Fork.
	comp sparse.Compressor
	// tally, when non-nil, receives raw-vs-encoded byte counts for every
	// sparse frame custom collectives move. Inherited by Fork.
	tally *metrics.WireTally
}

// New wraps a transport endpoint in a communicator.
func New(conn transport.Conn) *Comm {
	return &Comm{conn: conn}
}

// Rebuild wraps a fresh transport endpoint in a communicator that
// starts from previously accumulated statistics. Elastic jobs tear the
// mesh down and re-wire it on every cluster epoch; rebuilding the
// communicator with the carried counters keeps per-worker communication
// totals meaningful across epochs. The tag space restarts at zero —
// the new epoch's mesh has never seen any tag — so sub-communicators
// forked from the previous epoch's Comm are dead and must be re-forked
// from the rebuilt one.
func Rebuild(conn transport.Conn, carried Stats) *Comm {
	return &Comm{conn: conn, stats: carried}
}

// WithClock attaches a simulated clock priced by model. Every subsequent
// communication round advances the clock by α + nβ for the n elements the
// slowest participant moves in that round. Returns c for chaining.
func (c *Comm) WithClock(clock *netsim.Clock, model netsim.Model) *Comm {
	c.clock = clock
	c.model = model
	c.timed = true
	return c
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.conn.Rank() }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.conn.Size() }

// Stats returns a copy of the accumulated counters.
func (c *Comm) Stats() Stats { return c.stats }

// ResetStats zeroes the accumulated counters.
func (c *Comm) ResetStats() { c.stats = Stats{} }

// Clock returns the attached simulated clock (nil when untimed).
func (c *Comm) Clock() *netsim.Clock { return c.clock }

// send transmits payload and updates counters.
func (c *Comm) send(ctx context.Context, dst, tag int, payload []byte) error {
	if err := c.conn.Send(ctx, dst, tag, payload); err != nil {
		return err
	}
	c.stats.MsgsSent++
	c.stats.BytesSent += int64(len(payload))
	return nil
}

// recv receives a payload and updates counters.
func (c *Comm) recv(ctx context.Context, src, tag int) ([]byte, error) {
	payload, err := c.conn.Recv(ctx, src, tag)
	if err != nil {
		return nil, err
	}
	c.stats.MsgsRecv++
	c.stats.BytesRecv += int64(len(payload))
	return payload, nil
}

// chargeRound accounts one communication round in which this rank moves
// elems float32-sized elements (α + elems·β on the simulated clock,
// inflated by the model's synchronization-skew term for this
// communicator's world size). Rounds where this rank only waits still
// pay the latency term α, which models the synchronous structure of the
// paper's algorithms.
func (c *Comm) chargeRound(elems int) {
	c.chargeRoundAmong(c.Size(), elems)
}

// chargeRoundAmong is chargeRound for a round whose synchronization
// domain is not this communicator's world — e.g. a rank mirroring the
// leader-level exchange it idles through in the hierarchical collective.
func (c *Comm) chargeRoundAmong(participants, elems int) {
	c.stats.Rounds++
	if c.timed {
		c.clock.Advance(c.model.Round(participants, elems))
	}
}

// ClaimTags reserves n consecutive tags for a custom collective built on
// top of this communicator (e.g. core.GTopKInto) and returns the
// first. Every rank must claim the same tag counts in the same order.
func (c *Comm) ClaimTags(n int) int { return c.claimTags(n) }

// SendTag sends payload to dst under a tag claimed via ClaimTags,
// updating the statistics counters.
func (c *Comm) SendTag(ctx context.Context, dst, tag int, payload []byte) error {
	return c.send(ctx, dst, tag, payload)
}

// SendTagPooled is SendTag for payloads drawn from the shared wire-buffer
// pool (sparse.GetBuffer): ownership passes to the fabric, which recycles
// the buffer at the earliest safe point — inside Send on fabrics that
// consume payloads synchronously (TCP), at the receiver otherwise. The
// caller must not touch the payload afterwards.
func (c *Comm) SendTagPooled(ctx context.Context, dst, tag int, payload []byte) error {
	if err := transport.SendPooled(ctx, c.conn, dst, tag, payload); err != nil {
		return err
	}
	c.stats.MsgsSent++
	c.stats.BytesSent += int64(len(payload))
	return nil
}

// RecvTag receives the payload sent by src under a tag claimed via
// ClaimTags, updating the statistics counters.
func (c *Comm) RecvTag(ctx context.Context, src, tag int) ([]byte, error) {
	return c.recv(ctx, src, tag)
}

// RecvIsPrivate reports whether payloads returned by RecvTag are private
// per-receiver copies (true over TCP, false in-process). Shared payloads
// must never be recycled once forwarded.
func (c *Comm) RecvIsPrivate() bool { return transport.PrivateRecv(c.conn) }

// ChargeRound lets custom collectives account one synchronous
// communication round moving elems float32-sized elements.
func (c *Comm) ChargeRound(elems int) { c.chargeRound(elems) }

// ChargeRoundAmong accounts one synchronous round whose straggler
// ensemble is `participants` ranks rather than this communicator's
// world — hierarchical collectives use it so non-leaders pay for the
// leader-level rounds they wait out.
func (c *Comm) ChargeRoundAmong(participants, elems int) {
	c.chargeRoundAmong(participants, elems)
}

// WireVersion reports the sparse wire-codec version negotiated across
// this communicator's fabric (v1 for transports without negotiation).
func (c *Comm) WireVersion() byte { return transport.NegotiatedWireVersion(c.conn) }

// SetCompressor attaches a compound-pipeline value transform (see
// sparse.Compressor, quant.AttachStack) — the one place a communicator's
// value preference lives. With a v3 mesh the attached codec's rounded or
// quantized frames go on the wire; on a mesh a v1 peer dragged down to
// v1 frames the preference is silently ineffective and values stay
// exact, so one old peer never changes what the maths computes — only
// how many bytes it costs. nil detaches. Must be set before any
// collective runs.
func (c *Comm) SetCompressor(comp sparse.Compressor) { c.comp = comp }

// Compressor returns the attached compound-pipeline transform (nil when
// none).
func (c *Comm) Compressor() sparse.Compressor { return c.comp }

// WireCodec resolves the sparse codec custom collectives must encode
// their frames with: the mesh-negotiated wire version combined with the
// attached Compressor's value codec (fp32 when none is attached).
func (c *Comm) WireCodec() sparse.Codec {
	vc := sparse.ValueF32
	if c.comp != nil {
		vc = c.comp.ValueCodec()
	}
	return sparse.CodecForWireValue(c.WireVersion(), vc)
}

// SetWireTally attaches a per-round wire-byte tally; every sparse frame
// a codec-aware collective ENCODES through this communicator (and its
// forked children) is recorded as raw-vs-encoded bytes — one
// observation per frame, retransmissions excluded (see
// metrics.WireTally). nil detaches.
func (c *Comm) SetWireTally(t *metrics.WireTally) { c.tally = t }

// TallyWire records one encoded sparse frame: rawBytes is the flat
// v1-equivalent size, wireBytes the encoded frame size. No-op without an
// attached tally.
func (c *Comm) TallyWire(rawBytes, wireBytes int) {
	if c.tally != nil {
		c.tally.Observe(int64(rawBytes), int64(wireBytes))
	}
}

// claimTags reserves n consecutive tags for a collective invocation and
// returns the first. Because every rank issues the same collective
// sequence, tag counters advance in lock step across ranks, isolating
// concurrent wire traffic of adjacent collectives.
func (c *Comm) claimTags(n int) int {
	base := c.nextTag
	c.nextTag += n
	if c.tagLimit > 0 && c.nextTag > c.tagLimit {
		panic(fmt.Sprintf("collective: tag space exhausted (next %d > limit %d); forked sub-communicator outlived its %d-tag span", c.nextTag, c.tagLimit, subcommTagSpan))
	}
	return base
}

// requirePow2 validates the power-of-two worker counts the paper's
// recursive algorithms assume ("we assume that the number of workers P is
// the power of 2", Section III).
func requirePow2(p int) error {
	if p < 1 || p&(p-1) != 0 {
		return fmt.Errorf("collective: %d workers; algorithm requires a power of two", p)
	}
	return nil
}

// log2 returns floor(log2(p)) for p >= 1.
func log2(p int) int {
	n := 0
	for p > 1 {
		p >>= 1
		n++
	}
	return n
}
