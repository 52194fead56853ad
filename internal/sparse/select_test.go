package sparse

import (
	"math"
	"sort"
	"testing"

	"gtopkssgd/internal/prng"
)

// referenceTopKSparse is the original sort-based selection, kept here as
// the oracle the quickselect implementation must match bit for bit
// (including deterministic tie-breaking toward lower dense indices).
func referenceTopKSparse(v *Vector, k int) *Vector {
	if k <= 0 {
		return &Vector{Dim: v.Dim}
	}
	if k >= v.NNZ() {
		return v.Clone()
	}
	pos := make([]int, v.NNZ())
	for i := range pos {
		pos[i] = i
	}
	sort.Slice(pos, func(a, b int) bool {
		ma, mb := abs32(v.Values[pos[a]]), abs32(v.Values[pos[b]])
		if ma != mb {
			return ma > mb
		}
		return v.Indices[pos[a]] < v.Indices[pos[b]]
	})
	pos = pos[:k]
	sort.Slice(pos, func(a, b int) bool { return v.Indices[pos[a]] < v.Indices[pos[b]] })
	out := &Vector{Dim: v.Dim, Indices: make([]int32, k), Values: make([]float32, k)}
	for i, p := range pos {
		out.Indices[i] = v.Indices[p]
		out.Values[i] = v.Values[p]
	}
	return out
}

func randomSparse(seed uint64, dim, nnz int, ties bool) *Vector {
	src := prng.New(seed)
	perm := make([]int32, dim)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := dim - 1; i > 0; i-- {
		j := int(src.Uint64() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	idx := append([]int32(nil), perm[:nnz]...)
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	v := &Vector{Dim: dim, Indices: idx, Values: make([]float32, nnz)}
	for i := range v.Values {
		if ties {
			// Quantize magnitudes hard so many exact ties exist.
			v.Values[i] = float32(int(src.Uint64()%5)) - 2
		} else {
			v.Values[i] = float32(src.NormFloat64())
		}
	}
	return v
}

// TestTopKSparseMatchesSortReference checks the quickselect path against
// the sort-based oracle across sizes, densities and tie-heavy inputs.
func TestTopKSparseMatchesSortReference(t *testing.T) {
	for _, ties := range []bool{false, true} {
		for _, dim := range []int{1, 7, 64, 501} {
			for _, nnzFrac := range []float64{0.1, 0.5, 1.0} {
				nnz := int(float64(dim) * nnzFrac)
				if nnz < 1 {
					nnz = 1
				}
				v := randomSparse(uint64(dim*7+nnz), dim, nnz, ties)
				for _, k := range []int{1, 2, nnz / 2, nnz - 1, nnz, nnz + 5} {
					if k < 1 {
						continue
					}
					want := referenceTopKSparse(v, k)
					got := TopKSparse(v, k)
					if want.NNZ() != got.NNZ() {
						t.Fatalf("dim=%d nnz=%d k=%d ties=%v: nnz %d vs %d",
							dim, nnz, k, ties, want.NNZ(), got.NNZ())
					}
					for i := range want.Indices {
						if want.Indices[i] != got.Indices[i] ||
							math.Float32bits(want.Values[i]) != math.Float32bits(got.Values[i]) {
							t.Fatalf("dim=%d nnz=%d k=%d ties=%v: entry %d: (%d,%v) vs (%d,%v)",
								dim, nnz, k, ties, i,
								want.Indices[i], want.Values[i], got.Indices[i], got.Values[i])
						}
					}
				}
			}
		}
	}
}

// TestTopKConcurrent hammers the pooled-scratch selection from many
// goroutines; run with -race in CI to verify pool safety. Under the
// default gate the 2000-element inputs pool the full path's magnitude
// scratch, under the lowered one the candidate vectors.
func TestTopKConcurrent(t *testing.T) {
	bothCandGates(t, func() {
		const workers = 8
		doneCh := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				src := prng.New(uint64(w) + 9)
				for rep := 0; rep < 100; rep++ {
					x := make([]float32, 2000)
					for i := range x {
						x[i] = float32(src.NormFloat64())
					}
					v := TopK(x, 10)
					if err := v.Validate(); err != nil {
						doneCh <- err
						return
					}
					if v.NNZ() != 10 {
						doneCh <- ErrDimension
						return
					}
				}
				doneCh <- nil
			}(w)
		}
		for w := 0; w < workers; w++ {
			if err := <-doneCh; err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestEncodeToRoundTrip covers the zero-allocation encode entry point.
func TestEncodeToRoundTrip(t *testing.T) {
	v := randomSparse(11, 100, 20, false)
	buf := EncodeTo(make([]byte, EncodedSize(v.NNZ())), v)
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != v.Dim || got.NNZ() != v.NNZ() {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, v)
	}
	for i := range v.Indices {
		if got.Indices[i] != v.Indices[i] || math.Float32bits(got.Values[i]) != math.Float32bits(v.Values[i]) {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestEncodeToWrongSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeTo with a short buffer should panic")
		}
	}()
	v := randomSparse(12, 50, 10, false)
	EncodeTo(make([]byte, 4), v)
}

// TestBufferPoolReuse checks the Get/Put contract (length, capacity
// reuse, nil tolerance).
func TestBufferPoolReuse(t *testing.T) {
	b := GetBuffer(64)
	if len(b) != 64 {
		t.Fatalf("GetBuffer(64) returned len %d", len(b))
	}
	PutBuffer(b)
	PutBuffer(nil) // no-op, must not panic
	c := GetBuffer(16)
	if len(c) != 16 {
		t.Fatalf("GetBuffer(16) returned len %d", len(c))
	}
}
