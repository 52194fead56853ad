package sparse

import (
	"bytes"
	"math"
	"testing"

	"gtopkssgd/internal/prng"
)

// decodeCodec parses buf under the given codec into a fresh vector.
func decodeCodec(c Codec, buf []byte) (*Vector, error) {
	if c == CodecV1 {
		return Decode(buf)
	}
	v := &Vector{}
	if err := DecodeV3Into(v, buf); err != nil {
		return nil, err
	}
	return v, nil
}

// codecTestVectors builds a spread of shapes: empty support, singletons,
// dense-ish, clustered, adversarial values (zeros, ±Inf, NaN, subnormals).
func codecTestVectors() []*Vector {
	src := prng.New(99)
	vecs := []*Vector{
		{Dim: 1},
		{Dim: 7, Indices: []int32{0}, Values: []float32{-1.5}},
		{Dim: 5, Indices: []int32{0, 1, 2, 3, 4}, Values: []float32{0, 1, -2, 3.5, -0.25}},
		{Dim: 1 << 20, Indices: []int32{0, 1, 1 << 19, 1<<20 - 1}, Values: []float32{1, 2, 3, 4}},
		{Dim: 3, Indices: []int32{1, 2}, Values: []float32{float32(math.Inf(1)), float32(math.NaN())}},
		{Dim: 4, Indices: []int32{2}, Values: []float32{1.1754944e-38 / 2}}, // float32 subnormal
	}
	// Random clustered support, the workload shape delta coding is built for.
	for _, dim := range []int{300, 100_000} {
		g := make([]float32, dim)
		for i := 0; i < dim/50; i++ {
			g[src.Uint64()%uint64(dim/10)] = float32(src.NormFloat64())
			g[src.Uint64()%uint64(dim)] = float32(src.NormFloat64())
		}
		vecs = append(vecs, FromDense(g))
	}
	return vecs
}

// finite reports whether every value of v is a finite float32 — what the
// v3 float sections require (non-finite values never occur in gradients,
// and v3 rejects them at decode).
func finite(v *Vector) bool {
	for _, x := range v.Values {
		if math.IsInf(float64(x), 0) || math.IsNaN(float64(x)) {
			return false
		}
	}
	return true
}

// v2Frame is a well-formed frame of the retired wire format v2 (magic
// 0xA7, version 2, flags 0, dim 4, nnz 2, gaps 1 and 1, two fp32 values):
// input from outside the program may still carry one, and both remaining
// decoders must fail loudly on it.
var v2Frame = []byte{0xA7, 2, 0, 4, 2, 1, 1, 0, 0, 0, 0xC0, 0, 0, 0, 0x3F}

// TestCodecRoundTrip: encode→decode is the identity for CodecV1 and
// CodecV3 (bit-exact values). CodecV3 rejects the non-finite test vector
// at decode instead.
func TestCodecRoundTrip(t *testing.T) {
	for vi, v := range codecTestVectors() {
		for _, c := range []Codec{CodecV1, CodecV3} {
			buf := EncodeCodec(c, v)
			got, err := decodeCodec(c, buf)
			if c != CodecV1 && !finite(v) {
				if err == nil {
					t.Fatalf("vec %d codec %s: accepted non-finite values", vi, c)
				}
				continue
			}
			if err != nil {
				t.Fatalf("vec %d codec %s: decode: %v", vi, c, err)
			}
			if got.Dim != v.Dim || got.NNZ() != v.NNZ() {
				t.Fatalf("vec %d codec %s: shape dim %d/%d nnz %d/%d", vi, c, v.Dim, got.Dim, v.NNZ(), got.NNZ())
			}
			for i := range v.Indices {
				if got.Indices[i] != v.Indices[i] {
					t.Fatalf("vec %d codec %s: index %d: %d != %d", vi, c, i, got.Indices[i], v.Indices[i])
				}
				if math.Float32bits(got.Values[i]) != math.Float32bits(v.Values[i]) {
					t.Fatalf("vec %d codec %s: value %d: %x != %x", vi, c, i,
						math.Float32bits(got.Values[i]), math.Float32bits(v.Values[i]))
				}
			}
			// Accepted frames re-encode byte-identically (minimal
			// varints, exact length).
			if !bytes.Equal(EncodeCodec(c, got), buf) {
				t.Fatalf("vec %d codec %s: re-encode differs", vi, c)
			}
		}
	}
}

// TestCodecV1BytesUnchanged pins that CodecV1 through the codec-aware
// entry points produces exactly the legacy Encode bytes — v1 peers
// decode frames from a v1-negotiated mesh with the pre-codec decoder.
func TestCodecV1BytesUnchanged(t *testing.T) {
	for vi, v := range codecTestVectors() {
		if !bytes.Equal(EncodeCodec(CodecV1, v), Encode(v)) {
			t.Fatalf("vec %d: EncodeCodec(CodecV1) differs from Encode", vi)
		}
	}
}

// TestCodecCrossVersionRejection: each decoder rejects the other
// version's frames, and both reject a frame of the retired format v2.
func TestCodecCrossVersionRejection(t *testing.T) {
	for vi, v := range codecTestVectors() {
		v1buf := Encode(v)
		if v1buf[0] != V3Magic { // dim low byte may coincide with the magic
			if err := DecodeV3Into(&Vector{}, v1buf); err == nil {
				t.Fatalf("vec %d: v3 decoder accepted a v1 frame", vi)
			}
		}
		if _, err := Decode(EncodeCodec(CodecV3, v)); err == nil {
			t.Fatalf("vec %d: v1 decoder accepted a v3 frame", vi)
		}
		if _, err := DecodeView(EncodeCodec(CodecV3, v)); err == nil {
			t.Fatalf("vec %d: v1 DecodeView accepted a v3 frame", vi)
		}
	}
	if _, err := Decode(v2Frame); err == nil {
		t.Fatal("v1 decoder accepted a v2 frame")
	}
	for _, c := range []Codec{CodecV1, CodecV3} {
		if _, err := c.DecodeFrame(v2Frame, &Vector{}); err == nil {
			t.Fatalf("%s hot-path decoder accepted a v2 frame", c)
		}
	}
}

// TestCodecV3RejectsCorruption walks systematic corruptions of a valid
// frame: truncation at every length, value codec bytes that name no
// codec (1 and 3 among them), padded varints, trailing bytes,
// out-of-range indices; then the frames at the edges of the reader's
// fast paths (v3EdgeFrames), accepted or refused as the format says.
func TestCodecV3RejectsCorruption(t *testing.T) {
	v := &Vector{Dim: 1000, Indices: []int32{3, 250, 999}, Values: []float32{1, -2, 3}}
	buf := EncodeCodec(CodecV3, v)
	for cut := 0; cut < len(buf); cut++ {
		if err := DecodeV3Into(&Vector{}, buf[:cut]); err == nil {
			t.Fatalf("accepted truncation to %d of %d bytes", cut, len(buf))
		}
	}
	for _, vc := range []byte{1, 3, 7, 0xff} {
		bad := append([]byte(nil), buf...)
		bad[2] = vc
		if err := DecodeV3Into(&Vector{}, bad); err == nil {
			t.Fatalf("accepted value codec byte %d", vc)
		}
	}
	// Padded (non-minimal) varint for dim: 0x80 0x00 still means 0.
	padded := append([]byte{V3Magic, v3Version, 0, 0x80, 0x00}, buf[4:]...)
	if err := DecodeV3Into(&Vector{}, padded); err == nil {
		t.Fatal("accepted non-minimal varint")
	}
	// Trailing garbage.
	if err := DecodeV3Into(&Vector{}, append(append([]byte(nil), buf...), 0)); err == nil {
		t.Fatal("accepted trailing byte")
	}
	// Index beyond dim: bump the last gap.
	oob := &Vector{Dim: 10, Indices: []int32{9}, Values: []float32{1}}
	oobBuf := EncodeCodec(CodecV3, oob)
	oobBuf[5]++ // gap varint (dim=10 and nnz=1 are single-byte varints)
	if err := DecodeV3Into(&Vector{}, oobBuf); err == nil {
		t.Fatal("accepted out-of-range index")
	}
	// The fast paths' edges: both decoders accept or refuse each frame
	// as the format says, and an accepted one re-encodes to its bytes.
	for _, e := range v3EdgeFrames() {
		err := DecodeV3Into(&Vector{}, e.frame)
		fr, errFrame := DecodeV3Frame(e.frame)
		switch {
		case (err == nil) != e.accept:
			t.Errorf("%s: DecodeV3Into error %v, want accepted %v", e.name, err, e.accept)
		case (errFrame == nil) != e.accept:
			t.Errorf("%s: DecodeV3Frame error %v, want accepted %v", e.name, errFrame, e.accept)
		case e.accept && !bytes.Equal(fr.Encode(), e.frame):
			t.Errorf("%s: re-encode differs from the frame", e.name)
		}
	}
}

// v3EdgeFrame is a frame at an edge of the v3 reader's fast paths and
// whether the format accepts it.
type v3EdgeFrame struct {
	name   string
	frame  []byte
	accept bool
}

// v3EdgeFrames builds frames at the edges of the one-byte gap path, the
// per-frame level table and the once-per-frame canonical-form flags.
func v3EdgeFrames() []v3EdgeFrame {
	// Gaps 127, 128, 16 383 and 16 384.
	gaps := []int32{127, 256, 16640, 33025}
	levels := func(nnz int, zeros ...int) []int16 {
		l := make([]int16, nnz)
		for i := range l {
			l[i] = int16(i%5 + 1)
			if i%3 == 0 {
				l[i] = -l[i]
			}
		}
		for _, z := range zeros {
			l[z] = 0
		}
		return l
	}
	ascending := func(nnz int) []int32 {
		idx := make([]int32, nnz)
		for i := range idx {
			idx[i] = int32(3 * i)
		}
		return idx
	}
	q8 := func(nnz int, scale float32, l []int16) []byte {
		return EncodeSlicesV3(CodecV3Q8, 3*nnz, ascending(nnz), nil, scale, l)
	}
	// signBit sets entry e's sign bit in a qsgd8 frame of nnz entries.
	signBit := func(frame []byte, nnz, e int) []byte {
		frame = bytes.Clone(frame)
		frame[len(frame)-nnz-(nnz+7)/8+e/8] |= 1 << (e % 8)
		return frame
	}
	oneLevel := make([]int16, 10)
	oneLevel[9] = 1
	frames := []v3EdgeFrame{
		{"gaps 127/128/16383/16384 fp32", EncodeSlicesV3(CodecV3, 40000, gaps, []float32{1, -2, 3, -4}, 0, nil), true},
		{"gaps 127/128/16383/16384 qsgd8", EncodeSlicesV3(CodecV3Q8, 40000, gaps, nil, 1, []int16{255, -1, 0, 7}), true},
		// dim 10, nnz 1, gap 5 as the padded two bytes 0x85 0x00.
		{"gap below 128 as two bytes", []byte{V3Magic, v3Version, 0, 10, 1, 0x85, 0x00, 0, 0, 0x80, 0x3f}, false},
		{"nnz 8 qsgd8", q8(8, 2, levels(8)), true},
		{"nnz 16 qsgd8", q8(16, 2, levels(16)), true},
		{"nnz 9 qsgd8", q8(9, 2, levels(9)), true},
		{"nnz 10 qsgd2", EncodeSlicesV3(CodecV3Q2, 30, ascending(10), nil, 2, []int16{3, -3, 0, 1, -2, 2, -1, 0, 3, -3}), true},
		{"negative zero at the last entry", signBit(q8(10, 2, levels(10, 9)), 10, 9), false},
		{"negative zero inside the second sign byte", signBit(q8(20, 2, levels(20, 12)), 20, 12), false},
		{"negative zero at the last entry, nnz 16", signBit(q8(16, 2, levels(16, 15)), 16, 15), false},
		{"zero scale, one nonzero level at entry nnz-1", q8(10, 0, oneLevel), false},
		{"zero scale, all levels zero", q8(10, 0, make([]int16, 10)), true},
		{"sign padding bit set, nnz 9", signBit(q8(9, 2, levels(9)), 9, 12), false},
	}
	// A set magnitude padding bit: nnz 5 qsgd2 leaves six bits of the
	// last magnitude byte unused.
	q2 := EncodeSlicesV3(CodecV3Q2, 15, ascending(5), nil, 2, []int16{3, -3, 1, 1, -2})
	q2 = bytes.Clone(q2)
	q2[len(q2)-1] |= 0x80
	return append(frames, v3EdgeFrame{"qsgd2 magnitude padding bit set", q2, false})
}

// TestCodecV3CompressionWins quantifies the point of delta/varint index
// coding: on a clustered 0.1%-density support the lossless v3 frame is
// at least 1.4x smaller than v1 (the bench harness measures the precise
// ratios on the realistic workload).
func TestCodecV3CompressionWins(t *testing.T) {
	src := prng.New(5)
	const dim = 1 << 20
	g := make([]float32, dim)
	// Winners clustered into the first ~10% of coordinates plus scattered
	// stragglers, the layered-gradient shape real models produce.
	for i := 0; i < dim/1000; i++ {
		g[src.Uint64()%uint64(dim/10)] = float32(src.NormFloat64()) + 3
	}
	v := FromDense(g)
	v1 := len(Encode(v))
	v3 := len(EncodeCodec(CodecV3, v))
	if r := float64(v1) / float64(v3); r < 1.4 {
		t.Errorf("lossless v3 ratio %.2f < 1.4 (v1=%d v3=%d nnz=%d)", r, v1, v3, v.NNZ())
	}
}

// TestParseCodecSpellings: every codec's String parses back to itself,
// and the spellings of no codec — v2's, the fp16 and 4-bit value codecs'
// — are rejected with the list of what is.
func TestParseCodecSpellings(t *testing.T) {
	for _, c := range []Codec{CodecV1, CodecV3, CodecV3Q8, CodecV3Q2, CodecV3T, CodecV3S} {
		got, err := ParseCodec(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCodec(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
	}
	for _, s := range []string{"v2", "v2-fp16", "v3-fp32", "v3-fp16", "v3-qsgd4", ""} {
		if _, err := ParseCodec(s); err == nil {
			t.Errorf("ParseCodec(%q) accepted", s)
		}
	}
}
