package sparse

import (
	"encoding/binary"
	"fmt"
	"math"

	"gtopkssgd/internal/bufpool"
)

// Wire format for a sparse vector, little-endian:
//
//	uint32 dim | uint32 nnz | nnz × int32 index | nnz × float32 value
//
// This matches the paper's accounting: transferring a top-k sparse
// gradient costs 2k elements (k indices + k values) plus an 8-byte header.

// headerBytes is the fixed encoding overhead (dim + nnz fields).
const headerBytes = 8

// EncodedSize returns the number of bytes Encode will produce for a vector
// with nnz stored entries.
func EncodedSize(nnz int) int { return headerBytes + 8*nnz }

// Wire buffers are recycled through the process-wide bufpool, shared
// with the transport layer: every gTopKAllReduce round encodes one
// sparse message per pair, the TCP read loop deposits its frames from
// the same pool, and the receiving side releases the payload right after
// the merge consumes it — so one buffer cycles encode → send → receive →
// merge → encode without per-round allocations.
//
// Ownership discipline: PutBuffer may only be called on a buffer no other
// goroutine can still reference — in practice, a payload returned by a
// transport Recv after its contents have been merged or copied out.
// Buffers handed to a transport Send belong to the fabric and must NOT be
// put back by the sender (collective.Comm.SendTagPooled exists for
// exactly that hand-off: the fabric recycles the buffer once consumed).

// GetBuffer returns a length-n byte slice, reusing pooled capacity when
// available.
func GetBuffer(n int) []byte { return bufpool.Get(n) }

// PutBuffer recycles a dead wire buffer (see above for the ownership
// rules). Putting nil or tiny slices is a no-op.
func PutBuffer(buf []byte) { bufpool.Put(buf) }

// Encode serialises v into the wire format above. The buffer comes from
// the encode pool; ownership passes to the caller (and onward to the
// transport when sent).
func Encode(v *Vector) []byte {
	return EncodeTo(GetBuffer(EncodedSize(v.NNZ())), v)
}

// EncodeTo serialises v into buf, which must have length
// EncodedSize(v.NNZ()), and returns it.
func EncodeTo(buf []byte, v *Vector) []byte {
	return encodeParts(buf, v.Dim, v.Indices, v.Values)
}

// EncodeSlices serialises one contiguous span of a sparse vector — dim
// plus parallel index/value slices — into a pooled wire buffer.
func EncodeSlices(dim int, indices []int32, values []float32) []byte {
	return encodeParts(GetBuffer(EncodedSize(len(indices))), dim, indices, values)
}

func encodeParts(buf []byte, dim int, indices []int32, values []float32) []byte {
	if len(buf) != EncodedSize(len(indices)) {
		panic(fmt.Sprintf("sparse: encode buffer %d bytes, need %d", len(buf), EncodedSize(len(indices))))
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(dim))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(indices)))
	putWords(buf[headerBytes:], indices, values)
	return buf
}

// Decode parses the wire format, validating structure. It returns an error
// (never panics) on truncated or corrupt input, as transport payloads are
// untrusted at this layer.
func Decode(buf []byte) (*Vector, error) {
	if len(buf) < headerBytes {
		return nil, fmt.Errorf("sparse: decode: short buffer (%d bytes)", len(buf))
	}
	dim := int(binary.LittleEndian.Uint32(buf[0:4]))
	nnz := int(binary.LittleEndian.Uint32(buf[4:8]))
	if want := EncodedSize(nnz); len(buf) != want {
		return nil, fmt.Errorf("sparse: decode: %d bytes for nnz=%d, want %d", len(buf), nnz, want)
	}
	v := &Vector{Dim: dim, Indices: make([]int32, nnz), Values: make([]float32, nnz)}
	off := headerBytes
	for i := 0; i < nnz; i++ {
		v.Indices[i] = int32(binary.LittleEndian.Uint32(buf[off : off+4]))
		off += 4
	}
	for i := 0; i < nnz; i++ {
		v.Values[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off : off+4]))
		off += 4
	}
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("sparse: decode: %w", err)
	}
	return v, nil
}
