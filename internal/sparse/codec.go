package sparse

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// This file is what every layer above asks about the wire: which frame
// format a codec needs, how to encode and decode under it, and how the
// -wire flags spell it. There are two frame formats. v1 (encode.go) is
// the flat layout — 4 bytes per index, 4 per value — whose frames merge
// zero-copy through DecodeView. v3 (codecv3.go) delta-codes the sorted
// indices as varint gaps and names a value codec per frame; at the
// paper's densities the index stream dominates the v1 frame, and the
// gaps of a clustered gradient support fit in one or two bytes, which is
// where the lossless wire-byte reduction comes from (the same trick the
// DGC lineage uses for its index streams). Which format a mesh speaks is
// negotiated per mesh (see transport): every member offers its highest
// wire version and the mesh settles on the minimum, so one v1 peer keeps
// all frames v1-decodable.

// Codec selects the wire encoding for sparse gradient frames: CodecV1,
// or one of the v3 codecs of codecv3.go (v3 × value codec).
type Codec uint8

// CodecV1 is the flat little-endian layout: uint32 dim | uint32 nnz |
// nnz×int32 index | nnz×float32 value. Lossless, 8 bytes per entry.
const CodecV1 Codec = 1

// WireVersion returns the frame-format version a codec needs on the
// wire (the unit of mesh negotiation; the value codec is carried per
// frame, not negotiated).
func (c Codec) WireVersion() byte {
	if c >= CodecV3 {
		return 3
	}
	return 1
}

// Lossy reports whether shipping values through c changes value bits:
// whether its value codec is quantized. A lossy codec's wire transform
// rewrites the SENDER's in-memory copy too — pinning it to the
// quantization lattice points its receivers decode — so a sender that
// must conserve gradient mass snapshots its values first and folds
// original−shipped back into its residual.
func (c Codec) Lossy() bool { return c.Value().Quantized() }

// DecodeFrame parses one received frame under c on the hot path: a v1
// frame comes back as a zero-copy view aliasing buf (scratch is untouched
// and may be nil); v3 frames are materialised into scratch — delta codes
// cannot be aliased, and levels dequantize as they stream — so scratch
// can be reused across frames and buf released at once.
func (c Codec) DecodeFrame(buf []byte, scratch *Vector) (Vector, error) {
	if c == CodecV1 {
		return DecodeView(buf)
	}
	if err := DecodeV3Into(scratch, buf); err != nil {
		return Vector{}, err
	}
	return *scratch, nil
}

// String names the codec the way the -wire flags spell it.
func (c Codec) String() string {
	switch {
	case c == CodecV1:
		return "v1"
	case c == CodecV3:
		return "v3"
	case c > CodecV3 && c.Value().known():
		return "v3-" + c.Value().String()
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// ParseCodec parses the -wire flag spellings: v1, v3 and the compound
// forms v3-<value codec> (v3-qsgd8, v3-qsgd2, v3-ternary, v3-sign).
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "v1":
		return CodecV1, nil
	case "v3":
		return CodecV3, nil
	}
	if rest, ok := strings.CutPrefix(s, "v3-"); ok {
		if vc, err := ParseValueCodec(rest); err == nil && vc != ValueF32 {
			return codecForValue(vc), nil
		}
	}
	return 0, fmt.Errorf("sparse: unknown wire codec %q (want v1, v3 or v3-<value codec>)", s)
}

// EncodeCodec serialises v under the given codec into a pooled wire
// buffer (ownership passes to the caller, and onward to the transport
// when sent). CodecV1 produces exactly Encode's bytes.
func EncodeCodec(c Codec, v *Vector) []byte {
	return EncodeSlicesCodec(c, v.Dim, v.Indices, v.Values)
}

// EncodeSlicesCodec serialises one contiguous span of a sparse vector
// under the given codec — the codec-aware sibling of EncodeSlices.
// Indices must be strictly ascending (every constructor in this package
// guarantees it).
func EncodeSlicesCodec(c Codec, dim int, indices []int32, values []float32) []byte {
	if c == CodecV1 {
		return EncodeSlices(dim, indices, values)
	}
	// fp32 v3 frames only: quantized codecs need the Compressor's
	// (scale, levels) and go through EncodeSlicesV3.
	return EncodeSlicesV3(c, dim, indices, values, 0, nil)
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
