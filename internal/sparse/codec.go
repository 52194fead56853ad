package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"gtopkssgd/internal/f16"
)

// This file is wire format v2: sorted-index delta encoding with varint
// gaps plus a choice of fp32 (lossless, the default) or fp16 (opt-in,
// lossy) values. At the paper's densities the index stream dominates the
// v1 frame cost — 4 flat bytes per index — while the gaps between sorted
// indices of a clustered gradient support fit in one or two varint bytes,
// which is where the wire-byte reduction comes from (the same trick the
// DGC lineage uses for its index streams).
//
// Frame layout (little-endian):
//
//	byte 0          magic 0xA7
//	byte 1          version (2)
//	byte 2          flags (bit 0: fp16 values; all other bits reserved)
//	uvarint         dim
//	uvarint         nnz
//	nnz × uvarint   index gaps: gap_0 = idx_0, gap_i = idx_i − idx_{i−1} − 1
//	                (strictly ascending indices make every gap ≥ 0)
//	nnz × 4 bytes   float32 values — or nnz × 2 bytes binary16 with fp16
//
// Varints use the minimal encoding only; decoders reject padded forms, so
// the encoding stays canonical (accepted bytes re-encode identically).
// Which codec a frame uses is negotiated per mesh (see transport): every
// member offers its highest wire version in the handshake and the mesh
// settles on the minimum, so one v1 peer keeps all frames v1-decodable.

// Codec selects the wire encoding for sparse gradient frames.
type Codec uint8

// The wire codecs. CodecV1 is the legacy flat layout of Encode/Decode;
// the v2 codecs share one frame format and differ only in the value
// width flag.
const (
	// CodecV1 is the flat little-endian layout: uint32 dim | uint32 nnz |
	// nnz×int32 index | nnz×float32 value. Lossless, 8 bytes per entry.
	CodecV1 Codec = 1
	// CodecV2 is delta/varint indices with raw float32 values. Lossless:
	// decodes bit-identically to the encoded vector.
	CodecV2 Codec = 2
	// CodecV2F16 is delta/varint indices with binary16 values
	// (round-to-nearest-even; relative value error ≤ 2^-11). Opt-in.
	CodecV2F16 Codec = 3
)

// WireVersion returns the frame-format version byte a codec needs on the
// wire (the unit of mesh negotiation; the fp16 flag is carried per frame,
// not negotiated).
func (c Codec) WireVersion() byte {
	switch {
	case c >= CodecV3:
		return 3
	case c >= CodecV2:
		return 2
	default:
		return 1
	}
}

// Lossy reports whether encoding through c can change value bits.
func (c Codec) Lossy() bool { return c.Value().Lossy() }

// RewritesSender reports whether shipping values through c runs a wire
// transform that rewrites the SENDER's in-memory copy (lossy v3 codecs
// pin it to the fp16 / quantization lattice points its receivers decode).
// A sender that must conserve gradient mass snapshots its values first
// and folds original−shipped back into its residual. v2-fp16 rounds
// inside the encoder and leaves the sender's copy alone.
func (c Codec) RewritesSender() bool { return c.WireVersion() == 3 && c.Lossy() }

// DecodeFrame parses one received frame under c on the hot path: a v1
// frame comes back as a zero-copy view aliasing buf (scratch is untouched
// and may be nil); v2/v3 frames are materialised into scratch — delta
// codes cannot be aliased, and v3 levels dequantize as they stream — so
// scratch can be reused across frames and buf released at once.
func (c Codec) DecodeFrame(buf []byte, scratch *Vector) (Vector, error) {
	var err error
	switch c.WireVersion() {
	case 1:
		return DecodeView(buf)
	case 3:
		err = DecodeV3Into(scratch, buf)
	default:
		err = DecodeV2Into(scratch, buf)
	}
	if err != nil {
		return Vector{}, err
	}
	return *scratch, nil
}

// String names the codec the way the -wire flags spell it.
func (c Codec) String() string {
	switch c {
	case CodecV1:
		return "v1"
	case CodecV2:
		return "v2"
	case CodecV2F16:
		return "v2-fp16"
	case CodecV3, CodecV3F16, CodecV3Q8, CodecV3Q4, CodecV3Q2, CodecV3T, CodecV3S:
		if c == CodecV3 {
			return "v3"
		}
		return "v3-" + c.Value().String()
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// ParseCodec parses the -wire flag spellings: v1, v2, v2-fp16, v3 and
// the compound forms v3-<value codec> (v3-fp16, v3-qsgd8, v3-qsgd4,
// v3-qsgd2, v3-ternary, v3-sign).
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "v1":
		return CodecV1, nil
	case "v2":
		return CodecV2, nil
	case "v2-fp16":
		return CodecV2F16, nil
	case "v3":
		return CodecV3, nil
	}
	if rest, ok := strings.CutPrefix(s, "v3-"); ok {
		if vc, err := ParseValueCodec(rest); err == nil && vc != ValueF32 {
			return codecForValue(vc), nil
		}
	}
	return 0, fmt.Errorf("sparse: unknown wire codec %q (want v1, v2, v2-fp16, v3 or v3-<value codec>)", s)
}

// CodecForWire maps a negotiated wire version plus the sender's value-
// precision preference onto the codec to encode with. Unknown (future)
// versions clamp to the latest; version 0 means "unnegotiated" and maps
// to v1. Quantized value preferences need CodecForWireValue.
func CodecForWire(version byte, fp16Values bool) Codec {
	vc := ValueF32
	if fp16Values {
		vc = ValueF16
	}
	return CodecForWireValue(version, vc)
}

// v2 frame constants.
const (
	// V2Magic is the first byte of every v2 frame. v1 frames start with
	// the low byte of dim, so receivers on a negotiated mesh never need
	// to sniff — the magic exists to make cross-version decoding fail
	// loudly instead of misparsing.
	V2Magic = 0xA7
	// v2Version is the frame-format version byte.
	v2Version = 2
	// v2FlagF16 marks binary16 values; all other flag bits are reserved
	// and rejected.
	v2FlagF16 = 0x01
	// v2HeaderFixed is the fixed part of the header (magic+version+flags).
	v2HeaderFixed = 3
)

// valueBytes returns the per-entry value width of a v2 codec.
func (c Codec) valueBytes() int {
	if c == CodecV2F16 {
		return 2
	}
	return 4
}

// uvarintLen returns the number of bytes PutUvarint emits for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// EncodedSizeCodec returns the exact number of bytes EncodeSlicesCodec
// will produce for the given codec and entries. For CodecV1 this is the
// flat EncodedSize; for v2 it walks the index gaps (O(nnz)).
func EncodedSizeCodec(c Codec, dim int, indices []int32) int {
	if c == CodecV1 {
		return EncodedSize(len(indices))
	}
	if c.WireVersion() == 3 {
		return encodedSizeV3(c.Value(), dim, indices)
	}
	n := v2HeaderFixed + uvarintLen(uint64(dim)) + uvarintLen(uint64(len(indices)))
	prev := int32(-1)
	for _, idx := range indices {
		n += uvarintLen(uint64(idx - prev - 1))
		prev = idx
	}
	return n + len(indices)*c.valueBytes()
}

// maxEncodedSizeV2 bounds the v2 frame size for nnz entries, used to
// draw a pooled buffer before the exact varint widths are known.
func maxEncodedSizeV2(c Codec, nnz int) int {
	return v2HeaderFixed + 2*binary.MaxVarintLen32 + nnz*(binary.MaxVarintLen32+c.valueBytes())
}

// EncodeCodec serialises v under the given codec into a pooled wire
// buffer (ownership passes to the caller, and onward to the transport
// when sent). CodecV1 produces exactly Encode's bytes.
func EncodeCodec(c Codec, v *Vector) []byte {
	return EncodeSlicesCodec(c, v.Dim, v.Indices, v.Values)
}

// EncodeSlicesCodec serialises one contiguous span of a sparse vector
// under the given codec — the codec-aware sibling of EncodeSlices, used
// by the chunked gTop-k tree exchange. Indices must be strictly
// ascending (every constructor in this package guarantees it).
func EncodeSlicesCodec(c Codec, dim int, indices []int32, values []float32) []byte {
	switch c.WireVersion() {
	case 3:
		// Float-valued v3 frames only: quantized codecs need the
		// Compressor's (scale, levels) and go through EncodeSlicesV3.
		return EncodeSlicesV3(c, dim, indices, values, 0, nil)
	case 2:
		return encodeV2(GetBuffer(maxEncodedSizeV2(c, len(indices))), c, dim, indices, values)
	default:
		return encodeParts(GetBuffer(EncodedSize(len(indices))), dim, indices, values)
	}
}

// encodeV2 writes the v2 frame into buf (sized by maxEncodedSizeV2) and
// returns the written prefix. The buffer keeps its pooled capacity, so
// recycling the trimmed slice returns the full allocation to the pool.
func encodeV2(buf []byte, c Codec, dim int, indices []int32, values []float32) []byte {
	buf[0] = V2Magic
	buf[1] = v2Version
	flags := byte(0)
	if c == CodecV2F16 {
		flags |= v2FlagF16
	}
	buf[2] = flags
	off := v2HeaderFixed
	off += binary.PutUvarint(buf[off:], uint64(dim))
	off += binary.PutUvarint(buf[off:], uint64(len(indices)))
	prev := int32(-1)
	for _, idx := range indices {
		off += binary.PutUvarint(buf[off:], uint64(idx-prev-1))
		prev = idx
	}
	if c == CodecV2F16 {
		for _, v := range values {
			binary.LittleEndian.PutUint16(buf[off:off+2], f16.Bits(v))
			off += 2
		}
	} else {
		for _, v := range values {
			binary.LittleEndian.PutUint32(buf[off:off+4], math.Float32bits(v))
			off += 4
		}
	}
	return buf[:off]
}

// readUvarint decodes one minimally-encoded uvarint from buf. Padded
// encodings (a most-significant continuation group of zero) and
// truncated or oversized values yield an error: the wire format is
// canonical and transport payloads are untrusted at this layer.
func readUvarint(buf []byte) (uint64, int, error) {
	v, n := binary.Uvarint(buf)
	switch {
	case n <= 0:
		return 0, 0, fmt.Errorf("sparse: decode: bad varint")
	case n > 1 && buf[n-1] == 0:
		return 0, 0, fmt.Errorf("sparse: decode: non-minimal varint")
	}
	return v, n, nil
}

// DecodeV2Into parses a v2 frame into dst, reusing dst's capacity. It
// never panics on truncated or corrupt input and rejects anything that
// is not a well-formed v2 frame — including v1 frames, padded varints,
// out-of-range indices and trailing bytes — so accepted frames are
// structurally valid vectors and re-encode to the identical bytes (with
// the codec named by the frame's own flags byte).
//
// Unlike DecodeView, the result never aliases buf: delta-coded indices
// must be materialised, so the frame may be released (PutBuffer) as soon
// as DecodeV2Into returns.
func DecodeV2Into(dst *Vector, buf []byte) error {
	if len(buf) < v2HeaderFixed+2 {
		return fmt.Errorf("sparse: decode v2: short buffer (%d bytes)", len(buf))
	}
	if buf[0] != V2Magic || buf[1] != v2Version {
		return fmt.Errorf("sparse: decode v2: not a v2 frame (header %#02x %#02x)", buf[0], buf[1])
	}
	flags := buf[2]
	if flags&^byte(v2FlagF16) != 0 {
		return fmt.Errorf("sparse: decode v2: unknown flags %#02x", flags)
	}
	valBytes := 4
	if flags&v2FlagF16 != 0 {
		valBytes = 2
	}
	off := v2HeaderFixed
	dim64, n, err := readUvarint(buf[off:])
	if err != nil {
		return err
	}
	off += n
	if dim64 > math.MaxInt32 {
		return fmt.Errorf("sparse: decode v2: dim %d out of range", dim64)
	}
	nnz64, n, err := readUvarint(buf[off:])
	if err != nil {
		return err
	}
	off += n
	dim := int(dim64)
	// Strictly ascending in-range indices bound nnz by dim; checking
	// before sizing dst also stops a hostile header from forcing a huge
	// allocation backed by a tiny frame.
	if nnz64 > dim64 || int(nnz64)*(1+valBytes) > len(buf)-off {
		return fmt.Errorf("sparse: decode v2: nnz %d impossible for dim %d in %d bytes", nnz64, dim64, len(buf))
	}
	nnz := int(nnz64)
	ensureVec(dst, nnz)
	dst.Dim = dim
	prev := -1
	for i := 0; i < nnz; i++ {
		gap, n, err := readUvarint(buf[off:])
		if err != nil {
			return err
		}
		off += n
		idx := int64(prev) + 1 + int64(gap)
		if gap > math.MaxInt32 || idx >= int64(dim) {
			return fmt.Errorf("sparse: decode v2: index %d out of range [0,%d)", idx, dim)
		}
		dst.Indices[i] = int32(idx)
		prev = int(idx)
	}
	if len(buf)-off != nnz*valBytes {
		return fmt.Errorf("sparse: decode v2: %d value bytes for nnz=%d, want %d", len(buf)-off, nnz, nnz*valBytes)
	}
	if valBytes == 2 {
		for i := 0; i < nnz; i++ {
			dst.Values[i] = f16.From(binary.LittleEndian.Uint16(buf[off : off+2]))
			off += 2
		}
	} else {
		for i := 0; i < nnz; i++ {
			dst.Values[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off : off+4]))
			off += 4
		}
	}
	return nil
}

// DecodeCodec parses buf under the given codec into a fresh vector —
// the convenience sibling of DecodeV2Into/Decode for non-hot-path
// callers and tests.
func DecodeCodec(c Codec, buf []byte) (*Vector, error) {
	if c == CodecV1 {
		return Decode(buf)
	}
	v := &Vector{}
	if _, err := c.DecodeFrame(buf, v); err != nil {
		return nil, err
	}
	return v, nil
}
