package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"gtopkssgd/internal/prng"
)

func sampleState(seed uint64, n int) *State {
	src := prng.New(seed)
	vec := func() []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(src.NormFloat64())
		}
		return v
	}
	return &State{
		Iter:     12345,
		Weights:  vec(),
		Velocity: vec(),
		Residual: vec(),
		Meta: map[string]string{
			"model": "resnet20sim",
			"algo":  "gtopk",
			"rho":   "0.001",
		},
	}
}

func statesEqual(a, b *State) bool {
	if a.Iter != b.Iter || len(a.Meta) != len(b.Meta) {
		return false
	}
	for k, v := range a.Meta {
		if b.Meta[k] != v {
			return false
		}
	}
	vecs := [][2][]float32{{a.Weights, b.Weights}, {a.Velocity, b.Velocity}, {a.Residual, b.Residual}}
	for _, pair := range vecs {
		if len(pair[0]) != len(pair[1]) {
			return false
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				return false
			}
		}
	}
	return true
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := sampleState(1, 100)
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(s, got) {
		t.Fatal("round trip altered the state")
	}
}

func TestEmptyVectorsAndMeta(t *testing.T) {
	s := &State{Iter: 0}
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 0 || len(got.Weights) != 0 || len(got.Meta) != 0 {
		t.Fatalf("empty state round trip: %+v", got)
	}
}

// TestEmptyVelocityRoundTrip: a trainer without momentum holds no
// velocity, and its snapshot carries an empty one between full weights
// and residual.
func TestEmptyVelocityRoundTrip(t *testing.T) {
	s := sampleState(3, 64)
	s.Velocity = nil
	got, err := Load(bytes.NewReader(saved(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Velocity) != 0 || !statesEqual(s, got) {
		t.Fatalf("round trip of an empty velocity: %d entries back, state equal %v", len(got.Velocity), statesEqual(s, got))
	}
}

func saved(t *testing.T, s *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDeterministicBytes(t *testing.T) {
	// Same state must serialise to identical bytes (metadata sorted).
	s := sampleState(2, 50)
	var b1, b2 bytes.Buffer
	if err := Save(&b1, s); err != nil {
		t.Fatal(err)
	}
	if err := Save(&b2, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("serialisation not deterministic")
	}
}

func TestCorruptionDetected(t *testing.T) {
	s := sampleState(3, 64)
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip one byte in the middle: checksum must catch it.
	for _, pos := range []int{8, len(raw) / 2, len(raw) - 5} {
		corrupted := append([]byte(nil), raw...)
		corrupted[pos] ^= 0x40
		if _, err := Load(bytes.NewReader(corrupted)); err == nil {
			t.Errorf("corruption at byte %d not detected", pos)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	s := sampleState(4, 32)
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{0, 3, 10, len(raw) - 1} {
		if _, err := Load(bytes.NewReader(raw[:n])); err == nil {
			t.Errorf("truncation to %d bytes not detected", n)
		}
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("XXXX0000"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Valid magic, absurd version.
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.Write([]byte{99, 0, 0, 0})
	if _, err := Load(&buf); err == nil {
		t.Error("bad version accepted")
	}
}

func TestSaveLoadFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	s := sampleState(5, 20)
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(s, got) {
		t.Fatal("file round trip altered the state")
	}
	// No temp file left behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	// Overwrite with new state is atomic & loadable.
	s2 := sampleState(6, 20)
	if err := SaveFile(path, s2); err != nil {
		t.Fatal(err)
	}
	got2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(s2, got2) {
		t.Fatal("overwrite round trip altered the state")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// Property: save/load is the identity for arbitrary small states.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint8, iter uint64) bool {
		s := sampleState(seed, int(nRaw%64))
		s.Iter = iter
		var buf bytes.Buffer
		if err := Save(&buf, s); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		return statesEqual(s, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
