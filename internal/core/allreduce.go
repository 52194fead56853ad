package core

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/sparse"
)

// iovecPool recycles the frame-pointer slices (iovecs) the chunked send
// paths assemble for vectored sends, keeping the steady-state tree phase
// allocation-free. Slices returned to the pool must have every element
// nilled first — the frames they pointed at were relinquished to the
// fabric or the buffer pool, and a pooled iovec must not pin them.
var iovecPool = sync.Pool{New: func() any {
	s := make([][]byte, 0, DefaultChunks)
	return &s
}}

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
	scale, levels := transformForWire(comm, codec, local.Values)
	own := encodeSparseChunk(codec, local, 0, local.NNZ(), scale, levels)
	comm.TallyWire(sparse.EncodedSize(local.NNZ()), len(own))
	blobs, err := comm.AllGather(ctx, own)
	if err != nil {
		return nil, fmt.Errorf("core: topk allreduce: %w", err)
	}
	acc := sparse.GetAccumulator(local.Dim)
	defer acc.Release()
	var scratch *sparse.Vector
	if codec != sparse.CodecV1 {
		scratch = sparse.GetVector()
		defer sparse.PutVector(scratch)
	}
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

// DefaultChunks is the payload chunk count GTopKAllReduce uses for large
// payloads: each tree round's k-entry message is split into up to this
// many frames so the receiver merges chunk i−1 while chunk i is still on
// the wire. Chunking never changes the result bits (the merge order
// within a round is unchanged); it only overlaps transfer with merge
// work inside a round.
const DefaultChunks = 4

// minChunkEntries is the smallest payload span worth its own frame:
// below ~2 KiB on the wire, the per-frame header and flush cost more
// than the overlap buys back.
const minChunkEntries = 256

// ChunksFor returns the chunk count the default pipeline uses for a
// k-entry payload: DefaultChunks, bounded so every chunk carries at
// least minChunkEntries entries (small payloads stay monolithic). k is
// a shared parameter of the collective, so every rank derives the same
// count — which chunked sends and receives require.
func ChunksFor(k int) int {
	c := k / minChunkEntries
	if c < 1 {
		return 1
	}
	if c > DefaultChunks {
		return DefaultChunks
	}
	return c
}

// GTopKAllReduce is the paper's Algorithm 3: an efficient global top-k
// aggregation in 2·ceil(log2(P))−1 communication rounds. It wraps
// GTopKAllReduceInto with ChunksFor(k) and a fresh result vector.
//
// Phase 1 (tree reduction): ceil(log2(P)) rounds. In round j, every
// rank whose index has j+1 low zero bits receives its partner's sparse
// vector and merges it with the ⊕ operator of Definition 1 (top-k of
// the sum); the partner goes idle. The last round is a swap: rank 0 and
// rank h = 2^(ceil(log2(P))−1) send each other their partials and both
// run the same merge (float addition commutes bitwise and top-k ties
// break by index), so both hold G̃ = G̃¹ ⊕ G̃² ⊕ … ⊕ G̃ᴾ.
//
// Phase 2 (broadcast): ranks 0 and h broadcast G̃ down binomial trees
// (the "flat-tree" of the paper) over their halves of the world,
// ceil(log2(P))−1 more rounds.
//
// The returned vector holds the k largest-magnitude entries of the
// element-wise sum as selected greedily by the tree (identical on every
// rank); its Indices serve as the paper's gMask.
//
// The paper assumes power-of-two P (Section III); this implementation
// generalises the binomial tree to any P ≥ 1 — a receiver whose partner
// index falls outside [0, P) simply idles that round — so an elastic
// job that loses a worker (say 4 → 3) keeps aggregating with the same
// algorithm. For power-of-two P the merge order, and therefore the
// resulting bits, are the paper's.
//
// Communication cost: 2(P−1) messages of at most k entries over
// 2·ceil(log2(P))−1 sequential rounds — (2·log(P)−1)·α +
// (4k·log(P)−2k)·β, one α + 2kβ below the paper's Eq. 7
// (netsim.Model.GTopKAllReduce prices the unswapped tree).
func GTopKAllReduce(ctx context.Context, comm *collective.Comm, local *sparse.Vector, k int) (*sparse.Vector, error) {
	out := &sparse.Vector{}
	if err := GTopKAllReduceInto(ctx, comm, local, k, ChunksFor(k), out); err != nil {
		return nil, err
	}
	return out, nil
}

// GTopKAllReduceInto is GTopKAllReduce's allocation-free core: the global
// top-k lands in out (capacity reused across iterations — aggregators
// keep one result vector per communicator and reach steady states with
// zero allocations in the whole tree phase), and each round's payload is
// split into the given number of chunk frames (values < 1 behave as 1).
// Every rank must pass the same chunks value; the result bits are
// independent of it.
//
// The hot path never materialises a received vector: frames are merged
// through sparse.DecodeView straight from the wire buffer, the merge
// ping-pongs between pooled scratch vectors, and dead frames return to
// the shared buffer pool.
func GTopKAllReduceInto(ctx context.Context, comm *collective.Comm, local *sparse.Vector, k, chunks int, out *sparse.Vector) error {
	chunks = max(chunks, 1)
	p, r := comm.Size(), comm.Rank()
	rounds := netsim.CeilLog2(p)
	// Pooled scratch: cur ping-pongs across rounds; sum holds one round's
	// union merge; peer reassembles a partner's chunk frames in
	// multi-chunk rounds. cur starts as a read-only view of the caller's
	// local vector.
	curBuf := [2]*sparse.Vector{sparse.GetVector(), sparse.GetVector()}
	sum, peer := sparse.GetVector(), sparse.GetVector()
	defer func() {
		sparse.PutVector(curBuf[0])
		sparse.PutVector(curBuf[1])
		sparse.PutVector(sum)
		sparse.PutVector(peer)
	}()
	cur := local
	ci := 0

	// The negotiated codec shapes both the frames and the α-β byte
	// accounting: v1 charges the paper's modelled 2k elements per round
	// (bit-for-bit the pre-codec behaviour), compressed codecs charge the
	// bytes their frames actually moved.
	codec := comm.WireCodec()
	var peerScratch *sparse.Vector
	if codec != sparse.CodecV1 {
		peerScratch = sparse.GetVector()
		defer sparse.PutVector(peerScratch)
	}

	base := comm.ClaimTags(rounds)
	for j := 0; j < rounds; j++ {
		stride, group := 1<<j, 1<<(j+1)
		swapping := j == rounds-1
		moved := 0
		switch {
		case r%group == 0 && r+stride < p, swapping && r == stride:
			// Receiver — or one side of the swap, which first pins and
			// ships its own partial exactly as a sender does, then merges
			// the partner's: both sides sum the same two pinned vectors.
			partner := r ^ stride
			if swapping {
				if _, err := sendSparseChunks(ctx, comm, codec, cur, partner, base+j, chunks); err != nil {
					return fmt.Errorf("core: gtopk round %d send: %w", j, err)
				}
			}
			// The partner streams its live vector as chunk frames. Since
			// the vectored sender flushes all of a round's chunks together,
			// chunk-granular folding would re-scan the running sum once per
			// chunk for no overlap gain; instead the chunks — contiguous
			// ascending entry spans — are reassembled into the peer vector
			// with cheap appends and folded with ONE union merge plus one
			// top-k re-selection. Every output index still receives exactly
			// the same (running, peer) value pair, so the result stays
			// bit-identical to per-chunk folding and to the unchunked merge.
			for i := 0; i < chunks; i++ {
				blob, err := comm.RecvTag(ctx, partner, base+j)
				if err != nil {
					return fmt.Errorf("core: gtopk round %d recv: %w", j, err)
				}
				moved += len(blob)
				view, err := codec.DecodeFrame(blob, peerScratch)
				if err != nil {
					return fmt.Errorf("core: gtopk round %d payload: %w", j, err)
				}
				if chunks == 1 {
					// Single-frame rounds merge straight off the wire view
					// (v1) or decode scratch — no reassembly copy at all.
					err = sparse.AddInto(sum, cur, &view)
					sparse.PutBuffer(blob)
					if err != nil {
						return fmt.Errorf("core: gtopk round %d merge: %w", j, err)
					}
					break
				}
				if i == 0 {
					peer.Indices, peer.Values = peer.Indices[:0], peer.Values[:0]
				}
				sparse.AppendEntries(peer, &view)
				// The frame is dead once copied (tree receivers never
				// forward it); back to the pool it goes.
				sparse.PutBuffer(blob)
			}
			if chunks > 1 {
				if err := sparse.AddInto(sum, cur, peer); err != nil {
					return fmt.Errorf("core: gtopk round %d merge: %w", j, err)
				}
			}
			sparse.TopKSparseInto(curBuf[ci], sum, k)
			cur, ci = curBuf[ci], ci^1
		case r%group == stride:
			// Sender: stream the live vector to r-stride in chunk frames,
			// then go idle. Frames come from the shared pool and are
			// recycled by the fabric or the receiving merge loop.
			var err error
			if moved, err = sendSparseChunks(ctx, comm, codec, cur, r-stride, base+j, chunks); err != nil {
				return fmt.Errorf("core: gtopk round %d send: %w", j, err)
			}
			cur = nil
		}
		// Every rank pays the synchronous round cost. Under v1 that is
		// the paper's modelled bound — one message of at most 2k elements
		// (k values + k indices) per pair; under compressed codecs
		// participants pay the bytes they actually moved (a swap side, the
		// bytes it received) and idle ranks pay the latency term alone.
		comm.ChargeRound(wireElems(codec, 2*k, moved))
	}

	// Phase 2: broadcast the global top-k from both swap sides (Algorithm
	// 3 line 19), chunk-pipelined down the binomial trees below them: a
	// rank forwards chunk i to its subtree before receiving chunk i+1, so
	// the levels of the tree work on consecutive chunks concurrently.
	return bcastSparseChunks(ctx, comm, codec, cur, chunks, max(rounds-1, 0), out)
}

// sendSparseChunks streams v to dst as `chunks` wire frames under one
// tag (FIFO order per (src,dst,tag) keeps them in sequence), encoded
// with the mesh codec, and returns the bytes put on the wire. Chunks are
// contiguous spans of the entry list, so each is itself a valid sparse
// encoding and their concatenation reproduces v exactly.
func sendSparseChunks(ctx context.Context, comm *collective.Comm, codec sparse.Codec, v *sparse.Vector, dst, tag, chunks int) (int, error) {
	// Lossy hops transform the whole hop vector once (in place — the
	// sender's retained copy must equal what the receiver decodes); every
	// chunk frame then shares the hop's scale with its own level span.
	scale, levels := transformForWire(comm, codec, v.Values)
	nnz := v.NNZ()
	if chunks <= 1 {
		buf := encodeSparseChunk(codec, v, 0, nnz, scale, levels)
		comm.TallyWire(sparse.EncodedSize(nnz), len(buf))
		if err := comm.SendTagPooled(ctx, dst, tag, buf); err != nil {
			return len(buf), err
		}
		return len(buf), nil
	}
	// Multi-chunk rounds assemble every frame into a pooled iovec and ship
	// the batch with ONE vectored send: on TCP the whole round coalesces
	// into a single flush (one syscall instead of one per chunk) while the
	// frames stay individually addressed, so the receive side still
	// decodes and merges chunk-granularly as each frame surfaces.
	sent := 0
	fp := iovecPool.Get().(*[][]byte)
	frames := (*fp)[:0]
	for i := 0; i < chunks; i++ {
		lo, hi := i*nnz/chunks, (i+1)*nnz/chunks
		buf := encodeSparseChunk(codec, v, lo, hi, scale, levels)
		sent += len(buf)
		comm.TallyWire(sparse.EncodedSize(hi-lo), len(buf))
		frames = append(frames, buf)
	}
	err := comm.SendTagVecPooled(ctx, dst, tag, frames)
	releaseIovec(fp, frames)
	return sent, err
}

// encodeSparseChunk encodes entries [lo,hi) of v under codec; quantized
// v3 codecs carry the hop's scale plus the chunk's span of the hop
// levels, everything else encodes the float values directly.
func encodeSparseChunk(codec sparse.Codec, v *sparse.Vector, lo, hi int, scale float32, levels []int16) []byte {
	if codec.Value().Quantized() {
		return sparse.EncodeSlicesV3(codec, v.Dim, v.Indices[lo:hi], v.Values[lo:hi], scale, levels[lo:hi])
	}
	return sparse.EncodeSlicesCodec(codec, v.Dim, v.Indices[lo:hi], v.Values[lo:hi])
}

// bcastSparseChunks distributes the roots' cur to every rank's out along
// binomial trees `rounds` deep, in chunk-pipelined frames encoded with
// the mesh codec. The roots are the ranks whose low `rounds` bits are
// zero — ranks 0 and 2^rounds after the tree's swap, rank 0 alone in a
// one-rank world — and each holds the same cur. Simulated-time accounting
// matches the unchunked flat-tree broadcast: every rank charges `rounds`
// rounds, paying the full payload — modelled flat bytes under v1, actual
// bytes under compressed codecs — from the round it first holds data
// (chunking is transparent to the α-β model; it reduces wall time by
// overlap, not modelled volume).
//
// Under a lossy codec every root first pins its values with the
// compressor's Shared stream for this broadcast, so the roots keep the
// same bits, and those are the bits every other rank decodes off the
// wire — the broadcast stays replica-exact.
//
// Every frame has one owner on every fabric: a root sends its last
// child the frames it encoded and every other child a pooled copy, a
// relay forwards pooled copies, and each receiver recycles its frames
// once decoded.
func bcastSparseChunks(ctx context.Context, comm *collective.Comm, codec sparse.Codec, cur *sparse.Vector, chunks, rounds int, out *sparse.Vector) error {
	p, r := comm.Size(), comm.Rank()
	base := comm.ClaimTags(rounds)
	pos := r & (1<<rounds - 1) // position in this rank's root's tree

	recvRound := 0 // the round in which this rank first holds data
	wireBytes := 0 // actual encoded payload volume (one payload's worth)
	if pos == 0 {
		var scale float32
		var levels []int16
		if p > 1 && codec.Lossy() {
			// cur is pooled scratch owned by this collective (with p > 1 a
			// root always merged in the tree), so the in-place pinning
			// never touches the caller's input.
			scale, levels = comm.Compressor().Shared(uint64(base)).Transform(cur.Values)
		}
		sparse.CopyInto(out, cur)
		if rounds > 0 && r+1 < p {
			// Encode the whole payload's chunk frames up front, then ship
			// the complete list to each child with one vectored send —
			// child-major order: one flush per child instead of one per
			// (chunk, child) pair. Each frame is tallied once at encode
			// time (a compression event), not per child transmission —
			// the tally measures codec efficiency; Stats.BytesSent tracks
			// actual transmission volume. Per-(src,dst,tag) FIFO keeps the
			// chunks in sequence at every child, so relays still overlap
			// forwarding chunk i with receiving chunk i+1.
			nnz := cur.NNZ()
			fp := iovecPool.Get().(*[][]byte)
			frames := (*fp)[:0]
			for i := 0; i < chunks; i++ {
				lo, hi := i*nnz/chunks, (i+1)*nnz/chunks
				buf := encodeSparseChunk(codec, cur, lo, hi, scale, levels)
				wireBytes += len(buf)
				comm.TallyWire(sparse.EncodedSize(hi-lo), len(buf))
				frames = append(frames, buf)
			}
			var err error
			for j := 0; j < rounds && r+1<<j < p && err == nil; j++ {
				if j+1 == rounds || r+2<<j >= p {
					err = comm.SendTagVecPooled(ctx, r+1<<j, base+j, frames)
				} else {
					err = sendCopies(ctx, comm, r+1<<j, base+j, frames)
				}
			}
			releaseIovec(fp, frames)
			if err != nil {
				return fmt.Errorf("core: gtopk bcast send: %w", err)
			}
		}
	} else {
		recvRound = bits.Len(uint(pos)) - 1 // 2^recvRound <= pos < 2^(recvRound+1)
		parent := r - 1<<recvRound
		// out is rebuilt from the incoming chunk frames; every frame
		// carries dim, and chunks >= 1, so out.Dim is always set below.
		out.Indices = out.Indices[:0]
		out.Values = out.Values[:0]
		var chunkScratch *sparse.Vector
		if codec != sparse.CodecV1 {
			chunkScratch = sparse.GetVector()
			defer sparse.PutVector(chunkScratch)
		}
		for i := 0; i < chunks; i++ {
			blob, err := comm.RecvTag(ctx, parent, base+recvRound)
			if err != nil {
				return fmt.Errorf("core: gtopk bcast recv: %w", err)
			}
			wireBytes += len(blob)
			// Forward down the subtree before consuming: the next level
			// starts relaying chunk i while chunk i+1 is still inbound.
			// Frames relay as raw bytes — every rank decodes the exact
			// same payload regardless of codec, and a relay is not a new
			// codec event, so nothing is tallied here (Stats.BytesSent
			// still counts the transmission).
			for j := recvRound + 1; j < rounds && r+1<<j < p; j++ {
				if err := comm.SendTagPooled(ctx, r+1<<j, base+j, pooledCopy(blob)); err != nil {
					return fmt.Errorf("core: gtopk bcast forward: %w", err)
				}
			}
			v, err := codec.DecodeFrame(blob, chunkScratch)
			if err != nil {
				return fmt.Errorf("core: gtopk bcast payload: %w", err)
			}
			sparse.AppendEntries(out, &v)
			sparse.PutBuffer(blob)
		}
		if err := out.Validate(); err != nil {
			return fmt.Errorf("core: gtopk bcast result: %w", err)
		}
	}

	// α-β accounting, mirroring the flat-tree broadcast exactly (one
	// monolithic payload per round — chunk framing is an implementation
	// detail the model does not see): rounds before a rank holds data
	// cost it nothing but the synchronisation point. v1 charges the
	// modelled flat payload; compressed codecs charge the measured payload.
	elems := wireElems(codec, sparse.EncodedSize(out.NNZ())/4, wireBytes)
	for j := 0; j < recvRound; j++ {
		comm.ChargeRound(0)
	}
	for j := recvRound; j < rounds; j++ {
		comm.ChargeRound(elems)
	}
	return nil
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

// sendCopies sends dst a pooled copy of every frame under one tag, for a
// sender that still needs the frames afterwards.
func sendCopies(ctx context.Context, comm *collective.Comm, dst, tag int, frames [][]byte) error {
	fp := iovecPool.Get().(*[][]byte)
	copies := (*fp)[:0]
	for _, f := range frames {
		copies = append(copies, pooledCopy(f))
	}
	err := comm.SendTagVecPooled(ctx, dst, tag, copies)
	releaseIovec(fp, copies)
	return err
}

// pooledCopy returns a copy of frame in a buffer from the wire pool.
func pooledCopy(frame []byte) []byte {
	c := sparse.GetBuffer(len(frame))
	copy(c, frame)
	return c
}

// releaseIovec returns a frame-pointer slice to iovecPool, nilling every
// element first so the pooled slice pins no frame.
func releaseIovec(fp *[][]byte, frames [][]byte) {
	for i := range frames {
		frames[i] = nil
	}
	*fp = frames[:0]
	iovecPool.Put(fp)
}
