package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is wire format v3: the compound frame. Sorted indices are
// delta-coded as varint gaps — at the paper's densities the index stream
// is what dominates — and the value stream has a per-frame value codec,
// so gTop-k's surviving values can travel as raw fp32, QSGD-style
// stochastically quantized levels (8 or 2 bit), TernGrad-style ternary
// codes, or signSGD-style sign bits. Sparsification compounds
// with quantization: top-k removes entries, the value codec then shrinks
// what survives, which is the >32× regime the paper's Section VI argues
// quantization alone cannot reach.
//
// Frame layout (little-endian):
//
//	byte 0          magic 0xB3
//	byte 1          version (3)
//	byte 2          value codec (one ValueCodec byte: 0, 2, 4, 5 or 6;
//	                others, 1 and 3 included, rejected)
//	uvarint         dim
//	uvarint         nnz
//	4 bytes         float32 scale — quantized value codecs only
//	nnz × uvarint   index gaps: gap_0 = idx_0, gap_i = idx_i − idx_{i−1} − 1
//	value section   see each ValueCodec
//
// Value sections:
//
//	fp32     nnz × 4 bytes float32 (non-finite values rejected)
//	qsgd8    ⌈nnz/8⌉ sign bitmap (bit set = negative), nnz magnitude bytes
//	qsgd2    ⌈nnz/8⌉ sign bitmap, ⌈nnz/4⌉ 2-bit-packed magnitudes
//	         (entry e at bits 2·(e mod 4) of byte ⌊e/4⌋)
//	ternary  ⌈nnz/4⌉ 2-bit codes: 0 → 0, 1 → +1, 2 → −1 (3 rejected)
//	sign     ⌈nnz/8⌉ sign bitmap: bit set → +1, clear → −1
//
// The format is canonical: minimal varints only, strictly
// ascending in-range indices, exact value-section length, no trailing
// bytes, all padding bits zero, scale finite with a clear sign bit,
// zero magnitudes never carry a set sign bit, and a zero scale forces
// all-zero levels (qsgd/ternary). An accepted frame therefore re-encodes
// to the identical bytes, which FuzzDecodeV3 enforces.
//
// Dequantization is pinned: every decoder reconstructs values through
// DequantLevel, so any two ranks that decode the same frame — and the
// bcast root, which rounds its own values through the same lattice —
// hold bit-identical float32s on every platform.

// ValueCodec selects how a v3 frame's value stream is represented on
// the wire. It rides in the third header byte of every v3 frame, so a
// mesh negotiates only the frame version (v3) while each frame names
// its own value codec.
type ValueCodec uint8

// The v3 value codecs, in the order of their wire bytes; bytes 1 and 3
// name no codec.
const (
	// ValueF32 carries raw float32 values. Lossless.
	ValueF32 ValueCodec = 0
	// ValueQ8 carries QSGD-style 8-bit levels: a sign bitmap plus one
	// magnitude byte per entry, dequantized as scale·level/255.
	ValueQ8 ValueCodec = 2
	// ValueQ2 carries QSGD-style 2-bit levels, dequantized as
	// scale·level/3.
	ValueQ2 ValueCodec = 4
	// ValueTernary carries TernGrad-style codes in {0, ±1} at two bits
	// per entry, dequantized as scale·code.
	ValueTernary ValueCodec = 5
	// ValueSign carries signSGD-style sign bits (set = positive),
	// dequantized as ±scale.
	ValueSign ValueCodec = 6
)

// String names the value codec the way the -wire v3-<value codec> flags
// spell it.
func (vc ValueCodec) String() string {
	switch vc {
	case ValueF32:
		return "fp32"
	case ValueQ8:
		return "qsgd8"
	case ValueQ2:
		return "qsgd2"
	case ValueTernary:
		return "ternary"
	case ValueSign:
		return "sign"
	default:
		return fmt.Sprintf("value(%d)", uint8(vc))
	}
}

// ParseValueCodec parses the value-codec spellings fp32, qsgd8, qsgd2,
// ternary and sign.
func ParseValueCodec(s string) (ValueCodec, error) {
	switch s {
	case "fp32":
		return ValueF32, nil
	case "qsgd8":
		return ValueQ8, nil
	case "qsgd2":
		return ValueQ2, nil
	case "ternary":
		return ValueTernary, nil
	case "sign":
		return ValueSign, nil
	default:
		return 0, fmt.Errorf("sparse: unknown value codec %q (want fp32, qsgd8, qsgd2, ternary or sign)", s)
	}
}

// Quantized reports whether the value codec carries (scale, level)
// pairs rather than float32 values — whether its frames have a scale
// field and its encoder needs a Compressor's levels. Every value codec
// but the lossless fp32 does.
func (vc ValueCodec) Quantized() bool { return vc != ValueF32 }

// known reports whether vc is a value codec of this format.
func (vc ValueCodec) known() bool {
	switch vc {
	case ValueF32, ValueQ8, ValueQ2, ValueTernary, ValueSign:
		return true
	}
	return false
}

// Steps returns the number of positive quantization steps of a QSGD
// value codec (the maximum magnitude a level may take), and 1 for the
// others. It is the one count: the sender's transform pins its values
// with it and every decoder's level table is built from it.
func (vc ValueCodec) Steps() int16 {
	switch vc {
	case ValueQ8:
		return 255
	case ValueQ2:
		return 3
	default:
		return 1
	}
}

// valueSectionBytes returns the exact wire size of the value section
// for nnz entries.
func (vc ValueCodec) valueSectionBytes(nnz int) int {
	switch vc {
	case ValueF32:
		return 4 * nnz
	case ValueQ8:
		return (nnz+7)/8 + nnz
	case ValueQ2:
		return (nnz+7)/8 + (nnz+3)/4
	case ValueTernary:
		return (nnz + 3) / 4
	default: // ValueSign
		return (nnz + 7) / 8
	}
}

// scaleBytes returns the wire size of the scale field (4 for quantized
// value codecs, 0 otherwise).
func (vc ValueCodec) scaleBytes() int {
	if vc.Quantized() {
		return v3ScaleBytes
	}
	return 0
}

// DequantLevel reconstructs the float32 a quantized level stands for.
// Every v3 decoder and every Compressor.Transform MUST build values
// through this one expression: Go float32 arithmetic is exactly
// rounded, so routing all reconstructions through the same operation
// order is what pins replicas (and the bcast root) bit-identical.
func DequantLevel(vc ValueCodec, scale float32, level int16) float32 {
	switch vc {
	case ValueQ8, ValueQ2:
		return scale * float32(level) / float32(vc.Steps())
	default: // ValueTernary, ValueSign
		return scale * float32(level)
	}
}

// Compressor is the pluggable value-stream stage of the compound
// pipeline: select (top-k, in internal/core) → transform (this
// interface) → encode (this package). A Compressor maps the values of
// a selected sparse gradient onto its codec's quantization lattice so
// the encoder can pack levels instead of floats; the quantization error
// left behind is the caller's to fold into the error-feedback residual.
// Implementations live in internal/quant (see quant.NewStack).
type Compressor interface {
	// ValueCodec names the wire representation this compressor's
	// levels are encoded with.
	ValueCodec() ValueCodec
	// Transform quantizes values in place: each entry is replaced by
	// its dequantized lattice point (DequantLevel of its level), so
	// after Transform the slice holds exactly what every decoder will
	// reconstruct. It returns the frame scale plus one level per entry
	// for the encoder. The returned slice may alias internal scratch,
	// valid until the next Transform on the same Compressor.
	Transform(values []float32) (scale float32, levels []int16)
	// Fork derives an independent child compressor for a tag-isolated
	// sub-communicator. The child's randomness is a pure function of
	// the parent's seed and the stream number — never of how many
	// draws the parent has made — so concurrently launched buckets
	// stay deterministic.
	Fork(stream uint64) Compressor
	// Shared returns the compressor every rank derives for key: its
	// randomness is a pure function of the seed the rank's root compressor
	// was built from (the same on every rank) and of key — never of the
	// rank, the Fork path or earlier draws — so several ranks quantizing
	// the same values under the same key land on the same lattice points.
	// The gTop-k broadcast roots pin the global result with it. The
	// result is reused: it is valid until the next Shared call on the
	// same Compressor, and steady-state calls allocate nothing.
	Shared(key uint64) Compressor
}

// The v3 wire codecs: one Codec per value codec, numbered CodecV3 + the
// value codec's wire byte, all sharing the v3 frame format and
// negotiating as wire version 3.
const (
	// CodecV3 is delta/varint indices with raw float32 values. Lossless:
	// decodes bit-identically to the encoded vector.
	CodecV3 Codec = 2
	// CodecV3Q8 is v3 frames with QSGD 8-bit stochastic quantization.
	CodecV3Q8 = CodecV3 + Codec(ValueQ8)
	// CodecV3Q2 is v3 frames with QSGD 2-bit stochastic quantization.
	CodecV3Q2 = CodecV3 + Codec(ValueQ2)
	// CodecV3T is v3 frames with TernGrad-style ternary values.
	CodecV3T = CodecV3 + Codec(ValueTernary)
	// CodecV3S is v3 frames with signSGD-style sign-bit values.
	CodecV3S = CodecV3 + Codec(ValueSign)
)

// Value returns the value codec a wire codec carries in its frames
// (ValueF32 for v1).
func (c Codec) Value() ValueCodec {
	if c < CodecV3 {
		return ValueF32
	}
	return ValueCodec(c - CodecV3)
}

// codecForValue maps a value codec onto the v3 wire codec that carries
// it.
func codecForValue(vc ValueCodec) Codec { return CodecV3 + Codec(vc) }

// CodecForWireValue maps a negotiated wire version plus the sender's
// value-codec preference onto the codec to encode with. A mesh below v3
// is always flat lossless v1 frames, whatever the preference — v1 cannot
// carry rounded or quantized values, and the preference degrading to
// exact values means one old peer never changes what the maths computes,
// only how many bytes it costs. Unknown (future) versions speak v3.
func CodecForWireValue(version byte, vc ValueCodec) Codec {
	if version < 3 {
		return CodecV1
	}
	return codecForValue(vc)
}

// v3 frame constants.
const (
	// V3Magic is the first byte of every v3 frame. v1 frames start with
	// the low byte of dim, so receivers on a negotiated mesh never need
	// to sniff — the magic exists to make cross-version decoding fail
	// loudly instead of misparsing (see the cross-decode fuzz target for
	// the one residual blind spot).
	V3Magic = 0xB3
	// v3Version is the frame-format version byte.
	v3Version = 3
	// v3HeaderFixed is the fixed part of the header (magic + version +
	// value-codec byte).
	v3HeaderFixed = 3
	// v3ScaleBytes is the width of the scale field of quantized frames.
	v3ScaleBytes = 4
)

// maxEncodedSizeV3 bounds the v3 frame size for nnz entries, used to
// draw a pooled buffer before the exact varint widths are known.
func maxEncodedSizeV3(vc ValueCodec, nnz int) int {
	return v3HeaderFixed + 2*binary.MaxVarintLen32 + v3ScaleBytes +
		nnz*binary.MaxVarintLen32 + vc.valueSectionBytes(nnz)
}

// EncodeSlicesV3 serialises one contiguous span of a sparse vector as a
// v3 frame into a pooled wire buffer (ownership passes to the caller).
// Indices must be strictly ascending. For quantized value codecs the
// caller supplies the Compressor's (scale, levels) — one level per
// entry, |level| ≤ the codec's step count — and values is unused; for
// fp32 values is encoded and scale/levels are ignored.
func EncodeSlicesV3(c Codec, dim int, indices []int32, values []float32, scale float32, levels []int16) []byte {
	vc := c.Value()
	if vc.Quantized() && len(levels) != len(indices) {
		panic(fmt.Sprintf("sparse: EncodeSlicesV3: %s needs %d levels, have %d", vc, len(indices), len(levels)))
	}
	return encodeV3(GetBuffer(maxEncodedSizeV3(vc, len(indices))), vc, dim, indices, values, scale, levels)
}

// encodeV3 writes the v3 frame into buf (sized by maxEncodedSizeV3) and
// returns the written prefix. Bit-packed sections are zeroed before the
// sign/level bits are ORed in, so a recycled pooled buffer cannot leak
// stale bits into the padding the decoder requires to be zero.
func encodeV3(buf []byte, vc ValueCodec, dim int, indices []int32, values []float32, scale float32, levels []int16) []byte {
	nnz := len(indices)
	buf[0] = V3Magic
	buf[1] = v3Version
	buf[2] = byte(vc)
	off := v3HeaderFixed
	off += binary.PutUvarint(buf[off:], uint64(dim))
	off += binary.PutUvarint(buf[off:], uint64(nnz))
	if vc.Quantized() {
		binary.LittleEndian.PutUint32(buf[off:off+4], math.Float32bits(scale))
		off += 4
	}
	prev := int32(-1)
	for _, idx := range indices {
		off += binary.PutUvarint(buf[off:], uint64(idx-prev-1))
		prev = idx
	}
	end := off + vc.valueSectionBytes(nnz)
	switch vc {
	case ValueF32:
		for _, v := range values {
			binary.LittleEndian.PutUint32(buf[off:off+4], math.Float32bits(v))
			off += 4
		}
	case ValueQ8, ValueQ2:
		signs, mags := buf[off:off+(nnz+7)/8], buf[off+(nnz+7)/8:end]
		clear(buf[off:end])
		for i, l := range levels {
			neg := l >> 15 // −1 for a negative level, else 0
			mag := byte((l ^ neg) - neg)
			signs[i>>3] |= byte(neg&1) << (uint(i) & 7)
			if vc == ValueQ8 {
				mags[i] = mag
			} else {
				mags[i>>2] |= mag << (2 * (uint(i) & 3))
			}
		}
		off = end
	case ValueTernary:
		clear(buf[off:end])
		for i, l := range levels {
			code := byte(0)
			switch {
			case l > 0:
				code = 1
			case l < 0:
				code = 2
			}
			buf[off+i/4] |= code << (2 * (i % 4))
		}
		off = end
	default: // ValueSign
		clear(buf[off:end])
		for i, l := range levels {
			if l > 0 {
				buf[off+i/8] |= 1 << (i % 8)
			}
		}
		off = end
	}
	return buf[:off]
}

// DecodeV3Into parses a v3 frame into dst, reusing dst's capacity and
// dequantizing levels through DequantLevel as it streams — no level
// scratch is allocated. It never panics on truncated or corrupt input
// and rejects anything outside the canonical form (see the format
// comment), so accepted frames are structurally valid vectors. Unlike
// DecodeView, the result never aliases buf: delta-coded indices must be
// materialised, so the frame may be released (PutBuffer) as soon as
// DecodeV3Into returns.
func DecodeV3Into(dst *Vector, buf []byte) error {
	vc, dim, nnz, scale, off, err := parseV3Prefix(buf)
	if err != nil {
		return err
	}
	ensureVec(dst, nnz)
	dst.Dim = dim
	if off, err = parseV3Gaps(buf, off, dim, nnz, dst.Indices); err != nil {
		return err
	}
	return decodeV3Values(buf, off, vc, nnz, scale, false, dst.Values)
}

// V3Frame is the decoded representation of one v3 frame, preserving the
// quantized form (scale + levels) instead of collapsing to floats, so a
// frame can be re-encoded bit-identically — the canonical-form property
// the fuzz targets pin. Float-valued frames fill Values and leave
// Levels nil; quantized frames fill Scale and Levels and leave Values
// nil (dequantize with DequantLevel).
type V3Frame struct {
	// Value is the frame's value codec.
	Value ValueCodec
	// Dim is the dense dimension.
	Dim int
	// Indices are the strictly ascending support indices.
	Indices []int32
	// Scale is the quantization scale (quantized value codecs only).
	Scale float32
	// Levels are the quantized levels, one per index (quantized value
	// codecs only).
	Levels []int16
	// Values are the float values, one per index (fp32 only).
	Values []float32
}

// DecodeV3Frame parses a v3 frame into its canonical representation,
// enforcing exactly the same rejection rules as DecodeV3Into.
func DecodeV3Frame(buf []byte) (*V3Frame, error) {
	vc, dim, nnz, scale, off, err := parseV3Prefix(buf)
	if err != nil {
		return nil, err
	}
	f := &V3Frame{Value: vc, Dim: dim, Indices: make([]int32, nnz)}
	if off, err = parseV3Gaps(buf, off, dim, nnz, f.Indices); err != nil {
		return nil, err
	}
	vals := make([]float32, nnz)
	if err := decodeV3Values(buf, off, vc, nnz, scale, true, vals); err != nil {
		return nil, err
	}
	if !vc.Quantized() {
		f.Values = vals
		return f, nil
	}
	f.Scale, f.Levels = scale, make([]int16, nnz)
	for i, l := range vals {
		f.Levels[i] = int16(l)
	}
	return f, nil
}

// Encode re-serialises the frame into a pooled wire buffer (ownership
// passes to the caller). For a frame produced by DecodeV3Frame the
// output is byte-identical to the input — the canonical-form guarantee.
func (f *V3Frame) Encode() []byte {
	return encodeV3(GetBuffer(maxEncodedSizeV3(f.Value, len(f.Indices))),
		f.Value, f.Dim, f.Indices, f.Values, f.Scale, f.Levels)
}

// parseV3Prefix validates the fixed header, dim, nnz and (for quantized
// value codecs) the scale field, and bounds-checks the remaining buffer
// against the minimum possible frame size before any allocation.
func parseV3Prefix(buf []byte) (vc ValueCodec, dim, nnz int, scale float32, off int, err error) {
	if len(buf) < v3HeaderFixed+2 {
		return 0, 0, 0, 0, 0, fmt.Errorf("sparse: decode v3: short buffer (%d bytes)", len(buf))
	}
	if buf[0] != V3Magic || buf[1] != v3Version {
		return 0, 0, 0, 0, 0, fmt.Errorf("sparse: decode v3: not a v3 frame (header %#02x %#02x)", buf[0], buf[1])
	}
	if !ValueCodec(buf[2]).known() {
		return 0, 0, 0, 0, 0, fmt.Errorf("sparse: decode v3: unknown value codec %#02x", buf[2])
	}
	vc = ValueCodec(buf[2])
	off = v3HeaderFixed
	dim64, n, err := readUvarint(buf[off:])
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	off += n
	if dim64 > math.MaxInt32 {
		return 0, 0, 0, 0, 0, fmt.Errorf("sparse: decode v3: dim %d out of range", dim64)
	}
	nnz64, n, err := readUvarint(buf[off:])
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	off += n
	// Strictly ascending in-range indices bound nnz by dim; checking the
	// minimum frame size (scale + one gap byte per entry + the exact
	// value section) before sizing dst stops a hostile header from
	// forcing a huge allocation backed by a tiny frame.
	nnz = int(nnz64)
	if nnz64 > dim64 || vc.scaleBytes()+nnz+vc.valueSectionBytes(nnz) > len(buf)-off {
		return 0, 0, 0, 0, 0, fmt.Errorf("sparse: decode v3: nnz %d impossible for dim %d in %d bytes", nnz64, dim64, len(buf))
	}
	dim = int(dim64)
	if vc.Quantized() {
		bits := binary.LittleEndian.Uint32(buf[off : off+4])
		off += 4
		scale = math.Float32frombits(bits)
		// The scale must be finite and non-negative with a clear sign
		// bit (rejecting -0 keeps the encoding unique): every Transform
		// produces scales from magnitudes, so anything else is corrupt.
		if bits&0x7f800000 == 0x7f800000 || bits&0x80000000 != 0 {
			return 0, 0, 0, 0, 0, fmt.Errorf("sparse: decode v3: invalid scale bits %#08x", bits)
		}
	}
	return vc, dim, nnz, scale, off, nil
}

// parseV3Gaps materialises nnz delta-coded indices into indices,
// returning the offset just past the gap stream.
func parseV3Gaps(buf []byte, off, dim, nnz int, indices []int32) (int, error) {
	idx := int64(-1)
	for i := range indices[:nnz] {
		// A gap below 128 is one byte; anything longer goes through
		// readUvarint's minimal-varint check. A gap of dim or more puts
		// the index out of range wherever the walk stands, so checking it
		// first keeps the sum from overflowing.
		if off < len(buf) && buf[off] < 0x80 {
			idx += 1 + int64(buf[off])
			off++
		} else {
			gap, n, err := readUvarint(buf[off:])
			if err != nil {
				return 0, err
			}
			if gap >= uint64(dim) {
				return 0, fmt.Errorf("sparse: decode v3: gap %d out of range [0,%d)", gap, dim)
			}
			idx += 1 + int64(gap)
			off += n
		}
		if idx >= int64(dim) {
			return 0, fmt.Errorf("sparse: decode v3: index %d out of range [0,%d)", idx, dim)
		}
		indices[i] = int32(idx)
	}
	return off, nil
}

// decodeV3Values parses the value section at buf[off:] into vals. A
// quantized entry's value is read from a per-frame table of its
// magnitude m — DequantLevel(vc, scale, m) (DecodeV3Into), or m itself
// when levels is set (DecodeV3Frame keeps levels) — and takes its sign
// as a bit: IEEE rounding is symmetric in sign, so that is DequantLevel
// of the signed level bit for bit. All
// canonical-form checks — exact section length, no trailing bytes, zero
// padding bits, finite floats, no negative-zero levels, zero scale
// forcing zero levels — live here so both decoders enforce them; each
// gathers into a flag over the loop and is tested once per frame.
func decodeV3Values(buf []byte, off int, vc ValueCodec, nnz int, scale float32, levels bool, vals []float32) error {
	if len(buf)-off != vc.valueSectionBytes(nnz) {
		return fmt.Errorf("sparse: decode v3: %d value bytes for nnz=%d %s, want %d",
			len(buf)-off, nnz, vc, vc.valueSectionBytes(nnz))
	}
	var table [256]float32
	for m := range vc.Steps() + 1 {
		table[m] = DequantLevel(vc, scale, m)
		if levels {
			table[m] = float32(m)
		}
	}
	sec, vals := buf[off:], vals[:nnz]
	signed := func(m, neg uint32) float32 { return math.Float32frombits(math.Float32bits(table[uint8(m)]) | neg<<31) }
	var bad, set uint32 // a broken rule; the OR of every magnitude
	switch vc {
	case ValueF32:
		for i := range vals {
			bits := binary.LittleEndian.Uint32(sec[4*i:])
			bad |= (bits&0x7f800000 + 0x00800000) >> 31 // exponent all ones
			vals[i] = math.Float32frombits(bits)
		}
	case ValueQ8, ValueQ2:
		signs, mags := sec[:(nnz+7)/8], sec[(nnz+7)/8:]
		var sb uint32 // the sign byte of entry i, shifted down to its bit
		for i := range vals {
			if i&7 == 0 {
				sb = uint32(signs[i>>3])
			}
			var mag uint32
			if vc == ValueQ8 {
				mag = uint32(mags[i])
			} else {
				mag = uint32(mags[i>>2]>>(2*(uint(i)&3))) & 3
			}
			neg := sb & 1
			sb >>= 1
			bad |= neg & ((mag - 1) >> 31) // a negative zero
			set |= mag
			vals[i] = signed(mag, neg)
		}
		if pad := uint(nnz) % 4 * 2; vc == ValueQ2 && pad != 0 {
			bad |= uint32(mags[len(mags)-1] >> pad)
		}
		if nnz%8 != 0 {
			bad |= uint32(signs[nnz/8] >> (nnz % 8))
		}
	case ValueTernary:
		for i := range vals {
			code := uint32(sec[i>>2]>>(2*(uint(i)&3))) & 3
			bad |= code & (code >> 1) // code 3
			set |= code
			vals[i] = signed(code&1|code>>1, code>>1)
		}
		if nnz%4 != 0 {
			bad |= uint32(sec[nnz/4] >> (2 * (nnz % 4)))
		}
	default: // ValueSign
		for i := range vals {
			vals[i] = signed(1, uint32(sec[i>>3]>>(uint(i)&7))&1^1)
		}
		if nnz%8 != 0 {
			bad |= uint32(sec[nnz/8] >> (nnz % 8))
		}
	}
	switch {
	case bad != 0:
		return fmt.Errorf("sparse: decode v3: %s value section breaks the canonical form (non-finite value, negative zero, invalid code or set padding bit)", vc)
	case scale == 0 && set != 0:
		return fmt.Errorf("sparse: decode v3: nonzero level under zero scale")
	}
	return nil
}
