package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/sparse"
)

// TopKUnionInto is Algorithm 1's collective (lines 12-21), the baseline
// the paper improves on, written into out (capacity reused across
// calls): every rank's selection reaches every rank through AllGather,
// and every rank sums the decoded frames in rank order over the union of
// their supports, keeping every touched index — the exact element-wise
// SUM (callers average by 1/P as line 19 does). It is the Top-k
// aggregator's plan, one exchange level over the world; the AllGather
// requires power-of-two P.
//
// Communication cost (Eq. 6): log(P)·α + 2(P−1)k·β.
func TopKUnionInto(ctx context.Context, comm *collective.Comm, local, out *sparse.Vector) error {
	var buf [1]level
	p := worldPlan(buf[:0], comm, sumFold, false)
	return runLevels(ctx, comm, &p, local, 0, out)
}

// GTopKInto is the paper's Algorithm 3, an efficient global top-k
// aggregation, written into out (capacity reused across calls, so an
// aggregator that keeps one result vector per communicator reaches a
// zero-allocation steady state). A nil gc runs the flat tree over comm;
// a non-nil one, from ForkHier, runs the two-level hierarchy over its
// groups (hierarchical.go). Both are plans for the one sparse executor
// (runLevels), and each hop moves one frame.
//
// The flat tree is ⌈log₂P⌉ radix-2 levels over comm, 2·⌈log₂P⌉−1
// communication rounds:
//
// Up: in round j, every rank whose index has j+1 low zero bits receives
// its partner's sparse vector and merges it with the ⊕ operator of
// Definition 1 (top-k of the sum); the partner goes idle. The last round
// is a swap: rank 0 and rank h = 2^(⌈log₂P⌉−1) send each other their
// partials and both run the same merge (float addition commutes bitwise
// and top-k ties break by index), so both hold G̃ = G̃¹ ⊕ G̃² ⊕ … ⊕ G̃ᴾ.
//
// Down: ranks 0 and h hand G̃ back down the binomial trees over their
// halves of the world (the "flat-tree" of the paper), ⌈log₂P⌉−1 more
// rounds: in each, a rank that holds G̃ sends it to the partner it
// absorbed in that round on the way up.
//
// Every rank returns the same k largest-magnitude entries of the
// element-wise sum as selected greedily by the tree; their Indices serve
// as the paper's gMask.
//
// The paper assumes power-of-two P (Section III); this implementation
// generalises the binomial tree to any P ≥ 1 — a receiver whose partner
// index falls outside [0, P) simply idles that round — so an elastic
// job that loses a worker (say 4 → 3) keeps aggregating with the same
// algorithm. For power-of-two P the merge order, and therefore the
// resulting bits, are the paper's.
//
// Communication cost: 2(P−1) messages of at most k entries over
// 2·⌈log₂P⌉−1 sequential rounds — (2·log(P)−1)·α + (4k·log(P)−2k)·β,
// one α + 2kβ below the paper's Eq. 7 (netsim.Model.GTopKAllReduce
// prices the unswapped tree, netsim.Model.GTopKTree this one).
//
// With gc the levels are the group — radix G over gc.Members — and then
// the leaders' binomial tree over gc.Leaders (hierarchical.go). A
// non-leader has no communicator at the leader levels and charges their
// rounds on comm (ChargeRoundAmong), which carries no wire traffic.
// Statistics accumulate on gc's sub-communicators; the aggregators'
// round folds them into comm (foldHierStats). Like all collectives,
// every rank must call with the same groups and k.
func GTopKInto(ctx context.Context, comm *collective.Comm, gc *collective.GroupComms, local *sparse.Vector, k int, out *sparse.Vector) error {
	var buf [16]level // a world of up to 2¹⁶ ranks (groups) plans on the stack
	p := treePlan(buf[:0], comm, gc)
	return runLevels(ctx, comm, &p, local, k, out)
}

// plan is one sparse collective for the executor: its levels, bottom
// up; the rule by which a block root folds its block's partials, in
// position order, into one; how the top level closes; and, for a
// quorum round, its verdict. Every sparse aggregator's round runs one.
//
// The top closes in one of three ways. By default it is radix 2, and
// its two sides swap partials and both fold (the tree, the hierarchy).
// With gather set its root folds the block and hands the result back
// down the same level (a quorum round, the parameter server). With
// exchange set the plan is one level over the world on which every
// rank's frame reaches every rank (Comm.AllGather) and every rank folds
// them all; the result ships nowhere, so it is not pinned (the
// AllGather baselines).
type plan struct {
	levels           []level
	fold             foldRule
	gather, exchange bool
	vd               *verdict
}

// foldRule folds a block's pooled partials into one pooled vector,
// leaving nil in vecs where it took the vector it returns, so the
// caller's cleanup of vecs never releases it.
type foldRule func(vecs []*sparse.Vector, k int) (*sparse.Vector, error)

// treePlan appends to levels the tree of Algorithm 3 over comm: with gc
// the group level, radix G over gc.Members, under the leaders' binomial
// tree over gc.Leaders, else the binomial tree over the world; every
// block folds by ⊕ and the top swaps.
func treePlan(levels []level, comm *collective.Comm, gc *collective.GroupComms) plan {
	tree, n := comm, comm.Size()
	if gc != nil {
		m := gc.Members.Size()
		levels = append(levels, level{comm: gc.Members, size: m, stride: 1, radix: m})
		tree, n = gc.Leaders, gc.NumGroups
	}
	for stride := 1; stride < n; stride <<= 1 {
		levels = append(levels, level{comm: tree, size: n, stride: stride, radix: 2})
	}
	return plan{levels: levels, fold: binomialPositionFold}
}

// worldPlan appends to levels one level over comm's world folding by
// fold: with gather unset an exchange — Algorithm 1 with sumFold,
// Algorithm 2 (naive gTop-k) with topSumFold — and with it set footnote
// 2's parameter server, a gather at rank 0 that hands the result back
// down, the flat quorum round's shape without a participation rule. A
// one-rank world gathers nothing, so it has no gather level.
func worldPlan(levels []level, comm *collective.Comm, fold foldRule, gather bool) plan {
	if n := comm.Size(); n > 1 || !gather {
		levels = append(levels, level{comm: comm, size: n, stride: 1, radix: n})
	}
	return plan{levels: levels, fold: fold, gather: gather, exchange: !gather}
}

// The Σ fold rules: sumFold is the sum of the partials over the union of
// their supports, each index summed in position order, every touched
// index kept (an exact zero sum too); topSumFold is Σ, then the exact
// top-k of the sum.
var sumFold, topSumFold = unionFold(false), unionFold(true)

func unionFold(top bool) foldRule {
	return func(vecs []*sparse.Vector, k int) (*sparse.Vector, error) {
		acc := sparse.GetAccumulator(vecs[0].Dim)
		defer acc.Release()
		for i, v := range vecs {
			if err := acc.Add(v); err != nil {
				return nil, fmt.Errorf("core: sum of partial %d: %w", i, err)
			}
		}
		res := vecs[0]
		acc.CompactInto(res)
		if top {
			res = sparse.GetVector() // the sum stays in vecs[0]
			sparse.TopKSparseInto(res, vecs[0], k)
		} else {
			vecs[0] = nil
		}
		return res, nil
	}
}

// level is one stage of a plan. On its communicator the ranks at
// multiples of stride take part, in blocks of radix of them whose first
// rank is the block root. On the way up each other member of a block
// hands its partial to the root, which folds the block in position
// order; on the way down the root hands the result to each member. A
// hop moves one frame. A rank outside the level — comm nil, a
// non-leader at the hierarchy's leader levels — charges each of its
// rounds among size ranks on the parent communicator instead, unless
// the plan is a quorum round.
//
// quorum, when positive, is the level's participation rule: the level
// is one block, and its gather (collective.Comm.QuorumGather) closes
// once wait has passed with quorum contributions in, the root's own
// included. A rank that misses the gather still receives the result.
// A quorum level's radix is its world shape, not its communicator's
// size: a hierarchy's tail group keeps radix g, so every rank prices
// the same blocks (chargeQuorum).
type level struct {
	comm                *collective.Comm
	size, stride, radix int
	quorum              int
	wait                time.Duration
}

// verdict is the bookkeeping of a quorum round, a plan whose every level
// has a participation rule: the world ranks whose selections made the
// round, ascending. The round's frames above its first level and on the
// way down carry the participant set in a header (encodeVerdict); a
// member waits at most wait for the result on the way down.
type verdict struct {
	world, lo    int // the parent's size; the world rank of the first level's rank 0
	wait         time.Duration
	participants []int
}

// runLevels is the one sparse executor, for every plan alike: one loop
// walks the levels up and back down. Up, members hand their partials to
// their block roots, which fold them by the plan's rule. The top closes
// as the plan says: the tree's and the hierarchy's two sides swap
// partials and both fold; a gather's root hands the result back down
// that level too; on an exchange every rank folds every rank's frame. A
// swap or a gather pins the result once at the top, and on the way down
// every level's roots hand it to their members.
//
// The α-β clock: up, a root charges its members' 2k elements each, a
// member its frame and an idle rank one 2k frame; down, a root charges
// one payload per member, a member the payload it receives and a rank
// not yet holding the result the latency alone. v1 charges those
// modelled counts, compressed codecs the bytes actually moved
// (wireElems), and a one-rank level charges nothing. An exchange is
// charged by the AllGather itself. A quorum round charges its levels
// once the verdict is in, from the participant set (chargeQuorum), so
// every clock is a pure function of the straggler schedule.
func runLevels(ctx context.Context, parent *collective.Comm, p *plan, local *sparse.Vector, k int, out *sparse.Vector) error {
	levels, vd := p.levels, p.vd
	top := len(levels) - 1
	if top < 0 {
		sparse.CopyInto(out, local)
		return nil
	}
	cur, owned := local, false // this rank's partial, pooled once it folded
	// held is the result's frame as this rank last encoded or received
	// it, on heldOn: a root relays copies of it on the same communicator
	// and encodes the result afresh on another one.
	var held []byte
	var heldOn *collective.Comm
	defer func() { sparse.PutBuffer(held) }()
	var scale float32
	var lev []int16
	steps := 2*top + 1
	if p.gather {
		steps++ // the gather at the top hands its result down too
	}
	for step := 0; step < steps; step++ {
		i, down := step, step > top
		if down {
			i = steps - 1 - step
		}
		lv := levels[i]
		if lv.comm == nil {
			if vd == nil {
				parent.ChargeRoundAmong(lv.size, 2*k)
			}
			continue
		}
		c, codec := lv.comm, lv.comm.WireCodec()
		r := c.Rank()
		tag := 0
		if (down || lv.quorum == 0) && !p.exchange {
			tag = c.ClaimTags(1) // a quorum gather and an AllGather claim their own
		}
		span := lv.stride * lv.radix
		root := r - r%span
		frames, moved := 1, 0
		var err error
		switch {
		case !down && (cur == nil || r == root && r+lv.stride >= lv.size && lv.quorum == 0 && !p.exchange):
			// Idle: handed up already, or a root with no member here.
		case !down && r != root && (i < top || p.gather):
			if lv.quorum == 0 {
				frame := wireFrame(c, codec, cur, nil)
				moved, err = len(frame), c.SendTagPooled(ctx, root, tag, frame)
			} else {
				// Above the first level the frame carries the ranks it holds.
				hdr := vd
				if i == 0 {
					hdr = nil
				}
				_, err = c.QuorumGather(ctx, root, lv.quorum, lv.wait, wireFrame(c, codec, cur, hdr))
			}
			if owned {
				sparse.PutVector(cur)
			}
			cur = nil
		case !down:
			if i == top && !p.gather && !p.exchange {
				// Each side ships its partial to the other exactly as a
				// member does (pinned in place), so both fold the same
				// two vectors.
				err = c.SendTagPooled(ctx, 2*root+lv.stride-r, tag, wireFrame(c, codec, cur, nil))
			}
			if err == nil {
				cur, frames, moved, err = foldBlock(ctx, c, codec, p, i, tag, cur, owned, k)
				owned = true
			}
		case r%lv.stride != 0:
			frames = 0 // not holding the result yet
		case r != root:
			// A rank receives the result once, holding nothing before.
			moved, err = recvFrame(ctx, c, codec, root, tag, out, vd, &held)
			heldOn = c
		default:
			frames = 0
			for dst := r + lv.stride; dst < min(r+span, lv.size) && err == nil; dst += lv.stride {
				if heldOn != c {
					enc := codec
					if c != levels[top].comm && enc.Lossy() {
						// The top pinned the result to its quantizer's
						// lattice; re-quantizing would redraw it, so
						// another communicator ships it in lossless v3
						// frames (v3 frames are self-describing).
						enc = sparse.CodecV3
					}
					sparse.PutBuffer(held)
					held, heldOn = encodeFrame(c, enc, out, scale, lev, vd), c
				}
				// Each member gets a pooled copy, recycled at its receiver.
				err = c.SendTagPooled(ctx, dst, tag, append(sparse.GetBuffer(len(held))[:0], held...))
				frames++
			}
			moved = frames * len(held)
		}
		if err != nil {
			return fmt.Errorf("core: gtopk level %d: %w", i, err)
		}
		if step == top && cur != nil {
			// The top pins the result with the compressor's Shared stream,
			// keyed by the tag its way down starts at, so both sides keep
			// the same bits and every other rank decodes those off the wire.
			if codec.Lossy() && !p.exchange {
				scale, lev = c.Compressor().Shared(uint64(c.ClaimTags(0))).Transform(cur.Values)
			}
			sparse.CopyInto(out, cur)
			sparse.PutVector(cur)
		}
		if lv.size > 1 && vd == nil && !p.exchange {
			payload := 2 * k
			if down {
				payload = sparse.EncodedSize(out.NNZ()) / 4
			}
			c.ChargeRound(wireElems(codec, frames*payload, moved))
		}
	}
	if vd != nil {
		chargeQuorum(parent, levels, vd, k, out.NNZ(), len(held))
	}
	return nil
}

// chargeQuorum charges a quorum plan's levels on parent's clock from
// the verdict's participant set. In world ranks a level's ranks are the
// multiples of unit — the world span of a block one level down — in
// blocks of radix of them. Each level charges two legs:
//   - the gather, of a modelled 2k elements: the slowest participating
//     member→block-root link, or without a link model a uniform round
//     among the most participants of one block;
//   - the way down, this rank's own path from its block root: a root
//     its slowest send, a member its receive and a rank outside the
//     level its leader's receive, or without a link model a uniform
//     round among radix ranks. It carries the result's modelled flat
//     size under v1 and otherwise held, the bytes of the result's frame
//     this rank last received or sent, so the clock agrees with the
//     WireTally.
func chargeQuorum(parent *collective.Comm, levels []level, vd *verdict, k, nnz, held int) {
	me, unit := parent.Rank(), 1
	down := wireElems(parent.WireCodec(), sparse.EncodedSize(nnz)/4, held)
	for _, lv := range levels {
		span, among, per := unit*lv.radix, 0, make(map[int]int)
		var links [][2]int
		for _, w := range vd.participants {
			if w%unit == 0 {
				per[w/span]++
				among = max(among, per[w/span])
				if w%span != 0 {
					links = append(links, [2]int{w, w - w%span})
				}
			}
		}
		parent.ChargeLeg(among, 2*k, links)
		rep, root := me-me%unit, me-me%span
		links = links[:0]
		for m := root + unit; m < min(root+span, vd.world); m += unit {
			if me == root || m == rep {
				links = append(links, [2]int{root, m})
			}
		}
		parent.ChargeLeg(lv.radix, down, links)
		unit = span
	}
}

// foldBlock receives the partial of every other rank in this rank's
// block at level i of p and folds them with its own partial cur, in
// position order, by the plan's rule. It returns the pooled fold, the
// number of partials received and their bytes; an owned cur is
// consumed. At a quorum level the partials are those its gather closed
// with, and they extend the verdict's participant set: at the first
// level by the gathered ranks, above it by each frame's header. On an
// exchange they are the AllGather's, which alias one another, so only
// this rank's own frame is recycled.
func foldBlock(ctx context.Context, c *collective.Comm, codec sparse.Codec, p *plan, i, tag int, cur *sparse.Vector, owned bool, k int) (*sparse.Vector, int, int, error) {
	fs := foldPool.Get().(*foldScratch)
	defer fs.release()
	lv, vd := p.levels[i], p.vd
	r, span := c.Rank(), lv.stride*lv.radix
	root := r - r%span
	var blobs [][]byte
	var keep *[]byte // AllGather's blobs alias one another: none is recycled
	switch {
	case lv.quorum > 0:
		qr, err := c.QuorumGather(ctx, root, lv.quorum, lv.wait, nil)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("quorum gather: %w", err)
		}
		if blobs = qr.Blobs; i == 0 {
			vd.participants = vd.participants[:0]
			for _, m := range qr.Participants {
				vd.participants = append(vd.participants, vd.lo+m)
			}
			vd = nil // the first level's frames carry no header
		}
	case p.exchange:
		own := wireFrame(c, codec, cur, nil)
		defer sparse.PutBuffer(own)
		keep = new([]byte)
		if lv.size > 1 { // a one-rank AllGather moves nothing
			var err error
			if blobs, err = c.AllGather(ctx, own); err != nil {
				return nil, 0, 0, fmt.Errorf("allgather: %w", err)
			}
		}
	}
	moved := 0
	for src := root; src < min(root+span, lv.size); src += lv.stride {
		if src == r {
			if !owned {
				own := sparse.GetVector()
				sparse.CopyInto(own, cur)
				cur = own
			}
			fs.vecs = append(fs.vecs, cur)
			continue
		}
		if blobs != nil && blobs[src] == nil {
			continue // missed the gather
		}
		v := sparse.GetVector()
		fs.vecs = append(fs.vecs, v)
		var n int
		var err error
		if blobs == nil {
			n, err = recvFrame(ctx, c, codec, src, tag, v, nil, nil)
		} else if n, err = takeFrame(codec, blobs[src], v, vd, keep); err != nil {
			err = fmt.Errorf("payload from %d: %w", src, err)
		}
		if err != nil {
			return nil, 0, 0, err
		}
		moved += n
	}
	got := len(fs.vecs) - 1
	res, err := p.fold(fs.vecs, k)
	return res, got, moved, err
}

// recvFrame receives one frame from src under tag and decodes it into
// dst, returning its bytes. With vd non-nil the frame is a quorum
// round's result: it is waited for at most vd.wait, and its participant
// set replaces vd's. keep, if non-nil, takes the frame for relaying;
// otherwise it is recycled once decoded.
func recvFrame(ctx context.Context, c *collective.Comm, codec sparse.Codec, src, tag int, dst *sparse.Vector, vd *verdict, keep *[]byte) (int, error) {
	rctx := ctx
	if vd != nil {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, vd.wait)
		defer cancel()
		vd.participants = vd.participants[:0]
	}
	blob, err := c.RecvTag(rctx, src, tag)
	if err != nil {
		if vd != nil && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
			return 0, fmt.Errorf("no verdict from %d within the %v verdict wait: %w", src, vd.wait, err)
		}
		return 0, fmt.Errorf("recv from %d: %w", src, err)
	}
	n, err := takeFrame(codec, blob, dst, vd, keep)
	if err != nil {
		return n, fmt.Errorf("payload from %d: %w", src, err)
	}
	return n, nil
}

// takeFrame decodes a received frame straight into dst, appending its
// participant-set header to vd's set when vd is non-nil, and returns
// its bytes. With keep nil the frame is recycled; otherwise it is
// never recycled here, and keep takes it once it decoded.
func takeFrame(codec sparse.Codec, blob []byte, dst *sparse.Vector, vd *verdict, keep *[]byte) (int, error) {
	var err error
	if vd == nil {
		err = decodeInto(codec, blob, dst)
	} else {
		var set []int
		set, err = decodeVerdict(codec, blob, vd.world, dst)
		vd.participants = append(vd.participants, set...)
	}
	if keep == nil {
		sparse.PutBuffer(blob)
	} else if err == nil {
		*keep = blob
	}
	return len(blob), err
}

// wireFrame pins v to the codec's wire precision in place — a sender
// keeps exactly the bits its receivers decode — and encodes it as one
// pooled frame (see encodeFrame), tallied on comm. A lossy codec only
// ever comes from comm's attached Compressor, whose Transform lands the
// values on the quantization lattice and returns the (scale, levels) the
// v3 encoder packs; lossless codecs leave the values untouched.
func wireFrame(comm *collective.Comm, codec sparse.Codec, v *sparse.Vector, vd *verdict) []byte {
	var scale float32
	var levels []int16
	if codec.Lossy() {
		scale, levels = comm.Compressor().Transform(v.Values)
	}
	return encodeFrame(comm, codec, v, scale, levels, vd)
}

// encodeFrame encodes v under codec as one pooled frame, behind vd's
// participant-set header when vd is non-nil, and tallies it on comm.
func encodeFrame(comm *collective.Comm, codec sparse.Codec, v *sparse.Vector, scale float32, levels []int16, vd *verdict) []byte {
	buf := encodeSparse(codec, v, scale, levels)
	if vd != nil {
		buf = encodeVerdict(vd.participants, buf)
	}
	comm.TallyWire(sparse.EncodedSize(v.NNZ()), len(buf))
	return buf
}

// encodeSparse encodes v under codec; lossy codecs carry the scale and
// levels their Transform returned, lossless ones encode the float values
// directly.
func encodeSparse(codec sparse.Codec, v *sparse.Vector, scale float32, levels []int16) []byte {
	if codec.Lossy() {
		return sparse.EncodeSlicesV3(codec, v.Dim, v.Indices, v.Values, scale, levels)
	}
	return sparse.EncodeCodec(codec, v)
}

// wireElems is the element count a leg charges on the α-β clock: the
// modelled count under v1 — the paper's 2k per reduce frame, the flat
// frame size per broadcast frame — and the bytes actually moved under
// compressed codecs, so the clock agrees with the WireTally.
func wireElems(codec sparse.Codec, modelled, moved int) int {
	if codec == sparse.CodecV1 {
		return modelled
	}
	return (moved + 3) / 4
}
