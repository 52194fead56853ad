package core

import (
	"context"
	"fmt"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/sparse"
)

// TopKAllReduce aggregates per-worker sparse top-k gradients with the
// AllGather method of Algorithm 1 (lines 12-21), the baseline the paper
// improves on: every worker gathers all P sparse vectors and scatter-adds
// them into a pooled dense accumulator, compacting the union support once
// at the end (O(P·k) adds + one O(u·log u) compaction instead of P
// repeated sparse merges). The returned sparse vector is the exact
// element-wise SUM over workers restricted to the union support (callers
// average by 1/P as Algorithm 1 line 19 does); summation order per index
// is rank-ascending, bit-identical to a chain of sparse Adds.
//
// Communication cost (Eq. 6): log(P)·α + 2(P−1)k·β.
func TopKAllReduce(ctx context.Context, comm *collective.Comm, local *sparse.Vector) (*sparse.Vector, error) {
	codec := comm.WireCodec()
	// Compound pipeline: a lossy codec pins the selected values in place
	// (the caller's copy now equals what every decoder reconstructs; the
	// aggregator folds the difference into its residual).
	own := wireFrame(comm, codec, local)
	blobs, err := comm.AllGather(ctx, own)
	if err != nil {
		return nil, fmt.Errorf("core: topk allreduce: %w", err)
	}
	acc := sparse.GetAccumulator(local.Dim)
	defer acc.Release()
	scratch := sparse.GetVector() // v1 frames decode as views, unused
	defer sparse.PutVector(scratch)
	for rank, blob := range blobs {
		// Every rank — including this one — folds in the DECODED frame,
		// so under a lossy codec all replicas still sum identical bits.
		v, err := codec.DecodeFrame(blob, scratch)
		if err != nil {
			return nil, fmt.Errorf("core: topk allreduce: rank %d payload: %w", rank, err)
		}
		if err := acc.Add(&v); err != nil {
			return nil, fmt.Errorf("core: topk allreduce: rank %d: %w", rank, err)
		}
	}
	// Only our own encode buffer may be recycled: the remote blobs are
	// subslices of AllGather's round payloads and alias one another.
	sparse.PutBuffer(own)
	sum := &sparse.Vector{}
	acc.CompactInto(sum)
	return sum, nil
}

// transformForWire pins values to the codec's wire value precision IN
// PLACE — the sender-side half of the replica-agreement contract: a
// lossy codec's sender must keep exactly the bits its receivers decode.
// A lossy codec only ever comes from comm's attached Compressor, whose
// Transform lands the values on the fp16 or quantization lattice and
// returns the (scale, levels) the v3 encoder packs for quantized codecs.
// Lossless codecs leave values untouched.
func transformForWire(comm *collective.Comm, codec sparse.Codec, values []float32) (float32, []int16) {
	if !codec.Lossy() {
		return 0, nil
	}
	return comm.Compressor().Transform(values)
}

// NaiveGTopKAllReduce implements Algorithm 2's aggregation: a full
// TopKAllReduce followed by a *global* re-selection of the k
// largest-magnitude entries of the sum. It transfers exactly as much as
// TopKAllReduce; only the returned support shrinks to k. Used for Fig. 1
// and as the reference the efficient tree algorithm is verified against.
func NaiveGTopKAllReduce(ctx context.Context, comm *collective.Comm, local *sparse.Vector, k int) (*sparse.Vector, error) {
	sum, err := TopKAllReduce(ctx, comm, local)
	if err != nil {
		return nil, err
	}
	return sparse.TopKSparse(sum, k), nil
}

// ChunksFor returns 1 for every k: each gTop-k hop is one frame. It
// remains because the benchmark's decomposed step passes it as the
// entry points' chunks argument.
func ChunksFor(int) int { return 1 }

// GTopKAllReduceInto is the paper's Algorithm 3, an efficient global
// top-k aggregation in 2·⌈log₂P⌉−1 communication rounds, written into
// out (capacity reused across calls, so an aggregator that keeps one
// result vector per communicator reaches a zero-allocation steady
// state). Its schedule is ⌈log₂P⌉ radix-2 levels over comm, run by the
// one gTop-k executor (runLevels):
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
// as the paper's gMask. Each hop moves one frame, so chunks must be 1;
// the parameter remains because the benchmark's decomposed step passes
// ChunksFor(k).
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
func GTopKAllReduceInto(ctx context.Context, comm *collective.Comm, local *sparse.Vector, k, chunks int, out *sparse.Vector) error {
	if err := oneFrame(chunks); err != nil {
		return err
	}
	var buf [32]level
	return runLevels(ctx, comm, treeLevels(buf[:0], comm, comm.Size()), local, k, out)
}

// oneFrame refuses a chunks argument other than 1.
func oneFrame(chunks int) error {
	if chunks != 1 {
		return fmt.Errorf("core: gtopk: chunks=%d, but every hop is one frame (pass 1)", chunks)
	}
	return nil
}

// level is one stage of a gTop-k schedule. On its communicator the
// ranks at multiples of stride take part, in blocks of radix of them
// whose first rank is the block root. On the way up each other member
// of a block hands its partial to the root, which folds the block in
// position order; on the way down the root hands the result to each
// member. A hop moves one frame. A rank outside the level — comm nil, a
// non-leader at the hierarchy's leader levels — charges each of its
// rounds among size ranks on the parent communicator instead.
type level struct {
	comm                *collective.Comm
	size, stride, radix int
}

// treeLevels appends the binomial tree over a size-rank world to
// levels: ⌈log₂size⌉ radix-2 levels on c.
func treeLevels(levels []level, c *collective.Comm, size int) []level {
	for stride := 1; stride < size; stride <<= 1 {
		levels = append(levels, level{c, size, stride, 2})
	}
	return levels
}

// runLevels is the one gTop-k executor, for the flat tree and the
// hierarchy alike: one loop walks the levels up and back down. Up,
// members hand their partials to their block roots, which fold them
// with binomialPositionFold; at the top level — radix 2 in both
// schedules — the two sides swap partials and both fold. The top pins
// the result once, and on the way down every level's roots hand it to
// their members.
//
// The α-β clock: up, a root charges its members' 2k elements each, a
// member its frame and an idle rank one 2k frame; down, a root charges
// one payload per member, a member the payload it receives and a rank
// not yet holding the result the latency alone. v1 charges those
// modelled counts, compressed codecs the bytes actually moved
// (wireElems), and a one-rank level charges nothing.
func runLevels(ctx context.Context, parent *collective.Comm, levels []level, local *sparse.Vector, k int, out *sparse.Vector) error {
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
	for step := 0; step < 2*top+1; step++ {
		i, down := step, step > top
		if down {
			i = 2*top - step
		}
		lv := levels[i]
		if lv.comm == nil {
			parent.ChargeRoundAmong(lv.size, 2*k)
			continue
		}
		c, codec := lv.comm, lv.comm.WireCodec()
		tag, r := c.ClaimTags(1), c.Rank()
		span := lv.stride * lv.radix
		root := r - r%span
		frames, moved := 1, 0
		var err error
		switch {
		case !down && (cur == nil || r == root && r+lv.stride >= lv.size):
			// Idle: handed up already, or a root with no member here.
		case !down && r != root && i < top:
			moved, err = sendSparse(ctx, c, codec, cur, root, tag)
			if owned {
				sparse.PutVector(cur)
			}
			cur = nil
		case !down:
			if i == top {
				// Each side ships its partial to the other exactly as a
				// member does (pinned in place), so both fold the same
				// two vectors.
				_, err = sendSparse(ctx, c, codec, cur, 2*root+lv.stride-r, tag)
			}
			if err == nil {
				cur, frames, moved, err = foldBlock(ctx, c, codec, lv, tag, cur, owned, k)
				owned = true
			}
		case r%lv.stride != 0:
			frames = 0 // not holding the result yet
		case r != root:
			// A rank receives the result once, holding nothing before.
			moved, err = recvFrame(ctx, c, codec, root, tag, out, &held)
			heldOn = c
		default:
			frames = 0
			for dst := r + lv.stride; dst < min(r+span, lv.size) && err == nil; dst += lv.stride {
				if heldOn != c {
					enc := codec
					if c != levels[top].comm && enc.Value().Quantized() {
						// The top pinned the result to its quantizer's
						// lattice; re-quantizing would redraw it, so
						// another communicator ships it in lossless v3
						// frames (v3 frames are self-describing).
						enc = sparse.CodecV3
					}
					sparse.PutBuffer(held)
					held, heldOn = encodeFrame(c, enc, out, scale, lev), c
				}
				err = c.SendTagPooled(ctx, dst, tag, pooledCopy(held))
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
			if codec.Lossy() {
				scale, lev = c.Compressor().Shared(uint64(c.ClaimTags(0))).Transform(cur.Values)
			}
			sparse.CopyInto(out, cur)
			sparse.PutVector(cur)
		}
		if lv.size > 1 {
			payload := 2 * k
			if down {
				payload = sparse.EncodedSize(out.NNZ()) / 4
			}
			c.ChargeRound(wireElems(codec, frames*payload, moved))
		}
	}
	return nil
}

// foldBlock receives the partial of every other rank in this rank's
// block at lv and folds them with its own partial cur, in position
// order, by the tree's binomial schedule. It returns the pooled fold,
// the number of partials received and their bytes; an owned cur is
// consumed.
func foldBlock(ctx context.Context, c *collective.Comm, codec sparse.Codec, lv level, tag int, cur *sparse.Vector, owned bool, k int) (*sparse.Vector, int, int, error) {
	fs := foldPool.Get().(*foldScratch)
	defer fs.release()
	r, span := c.Rank(), lv.stride*lv.radix
	root := r - r%span
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
		v := sparse.GetVector()
		fs.vecs = append(fs.vecs, v)
		n, err := recvFrame(ctx, c, codec, src, tag, v, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		moved += n
	}
	got := len(fs.vecs) - 1
	res, err := binomialPositionFold(fs.vecs, k)
	return res, got, moved, err
}

// recvFrame receives one frame from src under tag and decodes it into
// dst, returning its bytes. keep, if non-nil, takes the frame for
// relaying; otherwise it is recycled once decoded.
func recvFrame(ctx context.Context, c *collective.Comm, codec sparse.Codec, src, tag int, dst *sparse.Vector, keep *[]byte) (int, error) {
	blob, err := c.RecvTag(ctx, src, tag)
	if err != nil {
		return 0, fmt.Errorf("recv from %d: %w", src, err)
	}
	scratch := sparse.GetVector()
	defer sparse.PutVector(scratch)
	v, err := codec.DecodeFrame(blob, scratch)
	if err != nil {
		sparse.PutBuffer(blob)
		return len(blob), fmt.Errorf("payload from %d: %w", src, err)
	}
	sparse.CopyInto(dst, &v)
	if keep != nil {
		*keep = blob
	} else {
		sparse.PutBuffer(blob)
	}
	return len(blob), nil
}

// sendSparse sends v to dst under tag as one wireFrame, returning its
// bytes.
func sendSparse(ctx context.Context, comm *collective.Comm, codec sparse.Codec, v *sparse.Vector, dst, tag int) (int, error) {
	frame := wireFrame(comm, codec, v)
	return len(frame), comm.SendTagPooled(ctx, dst, tag, frame)
}

// wireFrame pins v to the codec's wire precision in place — a sender
// keeps exactly the bits its receivers decode — and encodes it as one
// pooled frame, tallied on comm.
func wireFrame(comm *collective.Comm, codec sparse.Codec, v *sparse.Vector) []byte {
	scale, levels := transformForWire(comm, codec, v.Values)
	return encodeFrame(comm, codec, v, scale, levels)
}

// encodeFrame encodes v under codec as one pooled frame and tallies it
// on comm.
func encodeFrame(comm *collective.Comm, codec sparse.Codec, v *sparse.Vector, scale float32, levels []int16) []byte {
	buf := encodeSparse(codec, v, scale, levels)
	comm.TallyWire(sparse.EncodedSize(v.NNZ()), len(buf))
	return buf
}

// encodeSparse encodes v under codec; quantized v3 codecs carry the
// scale and levels their Transform returned, everything else encodes the
// float values directly.
func encodeSparse(codec sparse.Codec, v *sparse.Vector, scale float32, levels []int16) []byte {
	if codec.Value().Quantized() {
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

// pooledCopy returns a copy of frame in a buffer from the wire pool.
func pooledCopy(frame []byte) []byte {
	c := sparse.GetBuffer(len(frame))
	copy(c, frame)
	return c
}
