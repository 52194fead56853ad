package sparse

import (
	"bytes"
	"math"
	"testing"
)

// fuzzBuildVector constructs a structurally valid vector from fuzzed raw
// material: each 8-byte chunk of raw proposes one (index delta, value)
// entry, with strictly ascending indices enforced by construction. The
// delta is raw[off] mod 7, plus 128·raw[off+1] − 2 when raw[off+1] is
// set, so a chunk can put its v3 gap on either side of each varint
// width (127/128, 16 383/16 384).
func fuzzBuildVector(dim16 uint16, raw []byte) *Vector {
	dim := int(dim16)
	if dim == 0 {
		dim = 1
	}
	v := &Vector{Dim: dim}
	next := int32(0)
	for off := 0; off+8 <= len(raw) && int(next) < dim; off += 8 {
		delta := int32(raw[off])%7 + max(int32(raw[off+1])<<7-2, 0)
		idx := next + delta
		if int(idx) >= dim {
			break
		}
		bits := uint32(raw[off+4]) | uint32(raw[off+5])<<8 |
			uint32(raw[off+6])<<16 | uint32(raw[off+7])<<24
		v.Indices = append(v.Indices, idx)
		v.Values = append(v.Values, math.Float32frombits(bits))
		next = idx + 1
	}
	return v
}

// FuzzDecode feeds arbitrary bytes to Decode. The decoder must never
// panic (transport payloads are untrusted at this layer), and anything it
// accepts must re-encode to the exact same bytes — the wire format is
// canonical.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(Encode(&Vector{Dim: 4, Indices: []int32{1, 3}, Values: []float32{-2, 0.5}}))
	f.Add(Encode(&Vector{Dim: 1, Indices: []int32{0}, Values: []float32{float32(math.Inf(1))}}))
	f.Add(v2Frame)
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		if err != nil {
			return
		}
		if err := v.Validate(); err != nil {
			t.Fatalf("Decode accepted an invalid vector: %v", err)
		}
		if !bytes.Equal(Encode(v), data) {
			t.Fatalf("re-encode of accepted payload differs from input")
		}
	})
}

// FuzzEncodeDecodeRoundTrip builds structurally valid vectors from fuzzed
// raw material and asserts Encode→Decode is the identity (bit-exact
// values, identical indices), including NaN and infinity payloads.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint16(8), []byte{1, 0, 0, 0, 63, 2, 128, 191})
	f.Add(uint16(1), []byte{})
	f.Add(uint16(300), []byte{0, 0, 192, 127, 10, 0, 128, 255, 20, 1, 2, 3})
	f.Fuzz(func(t *testing.T, dim16 uint16, raw []byte) {
		v := fuzzBuildVector(dim16, raw)
		if err := v.Validate(); err != nil {
			t.Fatalf("constructed vector invalid: %v", err)
		}
		got, err := Decode(Encode(v))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if got.Dim != v.Dim || got.NNZ() != v.NNZ() {
			t.Fatalf("round trip shape: dim %d nnz %d, want dim %d nnz %d",
				got.Dim, got.NNZ(), v.Dim, v.NNZ())
		}
		for i := range v.Indices {
			if got.Indices[i] != v.Indices[i] {
				t.Fatalf("index %d: %d != %d", i, got.Indices[i], v.Indices[i])
			}
			if math.Float32bits(got.Values[i]) != math.Float32bits(v.Values[i]) {
				t.Fatalf("value %d: %x != %x", i,
					math.Float32bits(got.Values[i]), math.Float32bits(v.Values[i]))
			}
		}
	})
}

// fuzzV3Levels derives a valid (scale, levels) pair for a quantized v3
// value codec from a vector's value bits: magnitudes stay within the
// codec's step count, sign frames never carry a zero level, and the
// fixed nonzero scale keeps the zero-scale-forces-zero-levels rule out
// of the way.
func fuzzV3Levels(vc ValueCodec, v *Vector) (float32, []int16) {
	levels := make([]int16, v.NNZ())
	for i, val := range v.Values {
		bits := math.Float32bits(val)
		l := int16(bits % uint32(vc.Steps()+1))
		switch {
		case vc == ValueSign:
			l = 1
			if bits&1 == 0 {
				l = -1
			}
		case bits&0x80000000 != 0 && l != 0:
			l = -l
		}
		levels[i] = l
	}
	return 0.5, levels
}

// fuzzEncodeV3 encodes a vector under any v3 codec, deriving levels from
// the value bits for quantized value codecs.
func fuzzEncodeV3(c Codec, v *Vector) []byte {
	if vc := c.Value(); vc.Quantized() {
		scale, levels := fuzzV3Levels(vc, v)
		return EncodeSlicesV3(c, v.Dim, v.Indices, nil, scale, levels)
	}
	return EncodeSlicesV3(c, v.Dim, v.Indices, v.Values, 0, nil)
}

// FuzzDecodeV3 feeds arbitrary bytes to the v3 decoders. They must never
// panic (transport payloads are untrusted), must agree with each other on
// accept/reject, and anything accepted must re-encode to the exact same
// bytes through V3Frame.Encode — the compound wire format is canonical,
// which is what lets replicas compare frames byte-for-byte. A frame whose
// value byte names no codec (1 and 3 among them) is always refused.
func FuzzDecodeV3(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{V3Magic, 3, 0, 1, 0})
	f.Add(v2Frame)
	f.Add(EncodeSlicesV3(CodecV3, 4, []int32{1, 3}, []float32{-2, 0.5}, 0, nil))
	f.Add(EncodeSlicesV3(CodecV3Q8, 8, []int32{0, 2, 7}, nil, 1.5, []int16{-3, 0, 255}))
	// Value byte 1 with two binary16 values, and value byte 3 with a
	// scale, a sign bitmap and nibble-packed magnitudes.
	f.Add([]byte{V3Magic, 3, 1, 0xac, 0x02, 2, 0, 0xaa, 0x02, 0x00, 0x34, 0x8f, 0x06})
	f.Add([]byte{V3Magic, 3, 3, 9, 3, 0, 0, 0x40, 0x3f, 1, 2, 3, 0x02, 0x1f, 0x00})
	f.Add(EncodeSlicesV3(CodecV3Q2, 5, []int32{0, 1, 2, 3, 4}, nil, 2, []int16{3, -3, 0, 1, -2}))
	f.Add(EncodeSlicesV3(CodecV3T, 5, []int32{1, 4}, nil, 0.25, []int16{1, -1}))
	f.Add(EncodeSlicesV3(CodecV3S, 9, []int32{0, 8}, nil, 2, []int16{1, -1}))
	truncated := EncodeSlicesV3(CodecV3Q8, 8, []int32{0, 7}, nil, 1, []int16{4, -4})
	f.Add(truncated[:len(truncated)-1])
	flipped := bytes.Clone(truncated)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	for _, e := range v3EdgeFrames() {
		f.Add(e.frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v := &Vector{}
		if err := DecodeV3Into(v, data); err != nil {
			if _, err2 := DecodeV3Frame(data); err2 == nil {
				t.Fatalf("DecodeV3Frame accepted what DecodeV3Into rejected: %v", err)
			}
			return
		}
		if vc := ValueCodec(data[2]); !vc.known() {
			t.Fatalf("DecodeV3Into accepted value codec byte %d", vc)
		}
		if err := v.Validate(); err != nil {
			t.Fatalf("DecodeV3Into accepted an invalid vector: %v", err)
		}
		fr, err := DecodeV3Frame(data)
		if err != nil {
			t.Fatalf("DecodeV3Frame rejected what DecodeV3Into accepted: %v", err)
		}
		if !bytes.Equal(fr.Encode(), data) {
			t.Fatalf("re-encode of accepted v3 payload differs from input (%s)", fr.Value)
		}
		if fr.Dim != v.Dim || len(fr.Indices) != v.NNZ() {
			t.Fatalf("frame shape dim %d nnz %d, vector dim %d nnz %d",
				fr.Dim, len(fr.Indices), v.Dim, v.NNZ())
		}
		for i := range v.Indices {
			if fr.Indices[i] != v.Indices[i] {
				t.Fatalf("index %d: frame %d, vector %d", i, fr.Indices[i], v.Indices[i])
			}
			want := fr.Values
			var wantBits uint32
			if fr.Value.Quantized() {
				wantBits = math.Float32bits(DequantLevel(fr.Value, fr.Scale, fr.Levels[i]))
			} else {
				wantBits = math.Float32bits(want[i])
			}
			if math.Float32bits(v.Values[i]) != wantBits {
				t.Fatalf("value %d: DecodeV3Into %x, frame dequant %x", i,
					math.Float32bits(v.Values[i]), wantBits)
			}
		}
	})
}

// FuzzV3RoundTrip builds structurally valid vectors from fuzzed raw
// material and asserts the v3 encode→decode round trip for every value
// codec: bit-exact for fp32, the DequantLevel lattice point for
// quantized codecs.
func FuzzV3RoundTrip(f *testing.F) {
	f.Add(uint16(8), []byte{1, 0, 0, 0, 63, 2, 128, 191})
	f.Add(uint16(1), []byte{})
	f.Add(uint16(300), []byte{0, 0, 192, 127, 10, 0, 128, 255, 20, 1, 2, 3})
	// Gaps 1, 127, 128, 16 383 and 16 384: both sides of the one-byte
	// gap path and of the two-byte varint; then four entries of negative
	// levels, so one sits at the last bit of the first sign byte and one
	// in the second.
	f.Add(uint16(40000), []byte{
		1, 0, 0, 0, 0, 0, 128, 63, 1, 1, 0, 0, 0, 0, 128, 191,
		2, 1, 0, 0, 0, 0, 0, 64, 1, 128, 0, 0, 0, 0, 0, 0,
		2, 128, 0, 0, 0, 0, 0, 192, 1, 0, 0, 0, 3, 0, 128, 191,
		1, 0, 0, 0, 5, 0, 128, 191, 1, 0, 0, 0, 7, 0, 128, 191,
		1, 0, 0, 0, 9, 0, 128, 191})
	f.Fuzz(func(t *testing.T, dim16 uint16, raw []byte) {
		v := fuzzBuildVector(dim16, raw)
		// v3 float sections reject non-finite values (they never occur in
		// gradients), so clamp the fuzzed bits to finite floats.
		for i, val := range v.Values {
			v.Values[i] = math.Float32frombits(math.Float32bits(val) & 0xBFFFFFFF)
		}
		for _, codec := range []Codec{CodecV3, CodecV3Q8, CodecV3Q2, CodecV3T, CodecV3S} {
			buf := fuzzEncodeV3(codec, v)
			got, err := decodeCodec(codec, buf)
			if err != nil {
				t.Fatalf("codec %s round trip failed: %v", codec, err)
			}
			if got.Dim != v.Dim || got.NNZ() != v.NNZ() {
				t.Fatalf("codec %s shape: dim %d nnz %d, want dim %d nnz %d",
					codec, got.Dim, got.NNZ(), v.Dim, v.NNZ())
			}
			var scale float32
			var levels []int16
			if codec.Value().Quantized() {
				scale, levels = fuzzV3Levels(codec.Value(), v)
			}
			for i := range v.Indices {
				if got.Indices[i] != v.Indices[i] {
					t.Fatalf("codec %s index %d: %d != %d", codec, i, got.Indices[i], v.Indices[i])
				}
				want := v.Values[i]
				if codec.Value().Quantized() {
					want = DequantLevel(codec.Value(), scale, levels[i])
				}
				if math.Float32bits(got.Values[i]) != math.Float32bits(want) {
					t.Fatalf("codec %s value %d: %x != %x", codec, i,
						math.Float32bits(got.Values[i]), math.Float32bits(want))
				}
			}
		}
	})
}

// FuzzV3CrossDecode asserts version isolation between the two frame
// formats: the v3 decoder rejects v1 frames (whenever the v1 header
// cannot be mistaken for the v3 magic), while v3 frames of every value
// codec are rejected by both v1 decoders.
func FuzzV3CrossDecode(f *testing.F) {
	f.Add(uint16(8), []byte{1, 0, 0, 0, 63, 2, 128, 191})
	f.Add(uint16(0xB3), []byte{}) // dim low byte == magic: the sniffing blind spot
	f.Add(uint16(0x3B3), []byte{0, 0, 192, 127, 10, 0, 128, 255})
	f.Add(uint16(300), []byte{0, 0, 192, 127, 10, 0, 128, 255})
	f.Fuzz(func(t *testing.T, dim16 uint16, raw []byte) {
		v := fuzzBuildVector(dim16, raw)
		v1buf := Encode(v)
		if v1buf[0] != V3Magic {
			if err := DecodeV3Into(&Vector{}, v1buf); err == nil {
				t.Fatalf("v3 decoder accepted a v1 frame (dim=%d nnz=%d)", v.Dim, v.NNZ())
			}
		}
		for _, codec := range []Codec{CodecV3, CodecV3Q8, CodecV3Q2, CodecV3T, CodecV3S} {
			v3buf := fuzzEncodeV3(codec, v)
			if _, err := Decode(v3buf); err == nil {
				t.Fatalf("v1 decoder accepted a %s frame (dim=%d nnz=%d)", codec, v.Dim, v.NNZ())
			}
			if _, err := DecodeView(v3buf); err == nil {
				t.Fatalf("v1 DecodeView accepted a %s frame (dim=%d nnz=%d)", codec, v.Dim, v.NNZ())
			}
		}
	})
}
