package sparse

import (
	"fmt"
	"math"
	"testing"

	"gtopkssgd/internal/prng"
)

// setCandMinN moves the candidate path's size gate for the rest of the
// test: 1 sends every (n, k) with k <= n/candMaxShare through the path,
// math.MaxInt none. Tests that move it must not run in parallel.
func setCandMinN(t testing.TB, n int) {
	t.Helper()
	prev := candMinN
	candMinN = n
	t.Cleanup(func() { candMinN = prev })
}

// bothCandGates runs body under the default gate — where the suite's
// small oracle inputs take the radix/quickselect path — and again with
// the gate lowered to 1, so the same oracle pins the candidate path.
func bothCandGates(t *testing.T, body func()) {
	t.Helper()
	body()
	setCandMinN(t, 1)
	body()
}

// fullPathTopK is TopK with the candidate path switched off: the
// radix/quickselect reference every candidate result is compared with.
func fullPathTopK(x []float32, k int) *Vector {
	prev := candMinN
	candMinN = math.MaxInt
	defer func() { candMinN = prev }()
	return TopK(x, k)
}

// candCase is one input of the candidate-path wall; taken says whether
// the path must accept it (true) or decline and fall back (false).
type candCase struct {
	name  string
	x     []float32
	k     int
	taken bool
}

func candidateWall(n int) []candCase {
	src := prng.New(uint64(n))
	gauss := randDense(src, n)
	k := n / 100

	// 6% of the entries share the magnitude the threshold lands on, and a
	// few sit strictly above it: the tie quota goes to the lowest indices.
	ties := make([]float32, n)
	for i := range ties {
		ties[i] = float32(src.NormFloat64()) * 0.01
		switch {
		case i%97 == 5:
			ties[i] = 3
		case i%16 == 3:
			ties[i] = float32(2 - 4*(i/16%2)) // ±2
		}
	}

	zeros := make([]float32, n) // > 99% zeros: tau == 0
	for i := 0; i < n/200; i++ {
		zeros[src.Uint64()%uint64(n)] = float32(src.NormFloat64())
	}

	inf := append([]float32(nil), gauss...)
	for i := 0; i < k/2; i++ {
		inf[src.Uint64()%uint64(n)] = float32(math.Inf(1 - 2*(i%2)))
	}

	nan := append([]float32(nil), gauss...)
	nan[n/2+1] = float32(math.NaN()) // off the sample grid: found by the scan

	// Every entry ties at the threshold: the candidate cap overflows.
	flat := make([]float32, n)
	for i := range flat {
		flat[i] = float32(1 - 2*(i%2))
	}

	// The sample sees 30 large entries, x holds no others: tau lands on
	// them and fewer than k entries reach it.
	few := make([]float32, n)
	for i := range few {
		few[i] = float32(src.NormFloat64()) * 0.001
	}
	stride, _, _ := candPlan(n, k)
	for i := 0; i < 30; i++ {
		few[i*stride] = 10
	}

	return []candCase{
		{"gauss", gauss, k, true},
		{"gauss/k=1", gauss, 1, true},
		{"gauss/k=n/32", gauss, n / candMaxShare, true},
		{"gauss/k=n/32+1", gauss, n/candMaxShare + 1, false},
		{"ties", ties, n / 50, true},
		{"zeros", zeros, k, false},
		{"inf", inf, k, true},
		{"nan", nan, k, false},
		{"cap-overflow", flat, k, false},
		{"too-few", few, k, false},
	}
}

// TestCandidatePathBitIdentical is the candidate path's acceptance wall:
// on every input family and both slice alignments, TopKInto with the
// path on returns the same indices and value bits as the radix/quickselect
// path alone — and the path really was taken, or really declined, where
// the case says so.
func TestCandidatePathBitIdentical(t *testing.T) {
	for _, n := range []int{candMinN, 3*candMinN + 7} {
		for _, tc := range candidateWall(n) {
			for _, off := range []int{0, 1} { // 8-byte aligned, and not
				buf := make([]float32, n+off)
				x := buf[off:]
				copy(x, tc.x)
				label := fmt.Sprintf("n=%d %s off=%d", n, tc.name, off)
				want := fullPathTopK(x, tc.k)
				got := TopK(x, tc.k)
				if !vectorsEqualBits(want, got) {
					t.Fatalf("%s: candidate path differs from the full path", label)
				}
				if taken := topKCandidates(&Vector{}, x, tc.k); taken != tc.taken {
					t.Fatalf("%s: candidate path taken=%v, want %v", label, taken, tc.taken)
				}
			}
		}
	}
}

// TestCandidatePathSizeGate pins the lower edge of the gate: one element
// under candMinN declines, candMinN itself is taken.
func TestCandidatePathSizeGate(t *testing.T) {
	x := randDense(prng.New(5), candMinN)
	if !topKCandidates(&Vector{}, x, 10) {
		t.Fatalf("n=%d declined", len(x))
	}
	if topKCandidates(&Vector{}, x[1:], 10) {
		t.Fatalf("n=%d taken, gate is %d", len(x)-1, candMinN)
	}
}

// TestCandidatePath1M is the benchmark's sel-inproc shape, deterministic:
// n = 10^6, k = 1000, candidate path against full path and against the
// O(n log n) specification.
func TestCandidatePath1M(t *testing.T) {
	x := randDense(prng.New(42), 1_000_000)
	const k = 1000
	if !topKCandidates(&Vector{}, x, k) {
		t.Fatal("candidate path declined a Gaussian 10^6-vector")
	}
	got := TopK(x, k)
	if want := fullPathTopK(x, k); !vectorsEqualBits(want, got) {
		t.Fatal("candidate path differs from the full path")
	}
	want := referenceTopK(x, k)
	if got.NNZ() != len(want) {
		t.Fatalf("got %d entries, want %d", got.NNZ(), len(want))
	}
	for i, idx := range got.Indices {
		if v, ok := want[idx]; !ok || v != got.Values[i] {
			t.Fatalf("entry %d (index %d) is not in the reference top-k", i, idx)
		}
	}
}
