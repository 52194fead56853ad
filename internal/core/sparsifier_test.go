package core

import (
	"math"
	"testing"
	"testing/quick"

	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
)

func TestSparsifierSelectBasic(t *testing.T) {
	sp := NewSparsifier(6)
	grad := []float32{0.1, -5, 0.2, 3, -0.3, 0.4}
	sel, err := sp.Select(grad, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sel.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", sel.NNZ())
	}
	// Largest magnitudes are -5 (idx 1) and 3 (idx 3).
	if sel.Indices[0] != 1 || sel.Indices[1] != 3 {
		t.Fatalf("indices = %v, want [1 3]", sel.Indices)
	}
	// Selected positions must be zeroed in the residual; others kept.
	res := sp.Residual()
	if res[1] != 0 || res[3] != 0 {
		t.Fatalf("selected entries not cleared: %v", res)
	}
	if res[0] != 0.1 || res[4] != -0.3 {
		t.Fatalf("unselected entries lost: %v", res)
	}
}

func TestSparsifierAccumulatesResidual(t *testing.T) {
	// A small gradient repeated builds up in the residual until it wins
	// selection — the error-feedback property Top-k convergence relies on.
	sp := NewSparsifier(2)
	grad := []float32{1.0, 0.4}
	for i := 0; i < 2; i++ {
		sel, err := sp.Select(grad, 1)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Indices[0] != 0 {
			t.Fatalf("step %d selected %v", i, sel.Indices)
		}
	}
	// Residual at index 1 is now 0.8; next gradient makes it 1.2 > 1.0.
	sel, err := sp.Select(grad, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Indices[0] != 1 {
		t.Fatalf("accumulated small gradient never selected: %v", sel.Indices)
	}
	if math.Abs(float64(sel.Values[0])-1.2) > 1e-6 {
		t.Fatalf("accumulated value = %v, want 1.2", sel.Values[0])
	}
}

func TestSparsifierMassConservation(t *testing.T) {
	// residual_before + grad == residual_after + selected, exactly.
	src := prng.New(3)
	sp := NewSparsifier(100)
	for step := 0; step < 10; step++ {
		grad := make([]float32, 100)
		for i := range grad {
			grad[i] = float32(src.NormFloat64())
		}
		before := append([]float32(nil), sp.Residual()...)
		sel, err := sp.Select(grad, 7)
		if err != nil {
			t.Fatal(err)
		}
		after := append([]float32(nil), sp.Residual()...)
		sel.ScatterAdd(after)
		for i := range after {
			if want := before[i] + grad[i]; after[i] != want {
				t.Fatalf("step %d elem %d: mass not conserved: %v vs %v", step, i, after[i], want)
			}
		}
	}
}

func TestSparsifierDimMismatch(t *testing.T) {
	sp := NewSparsifier(4)
	if _, err := sp.Select(make([]float32, 5), 1); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := sp.Select(make([]float32, 4), 5); err == nil {
		t.Error("k > dim accepted")
	}
	if _, err := sp.Select(make([]float32, 4), -1); err == nil {
		t.Error("negative k accepted")
	}
}

// TestSelectMomentum pins the accumulate-and-select entry: the fused pass
// leaves the velocity, the residual and the selection exactly where the
// two separate passes (fold, then Select over the velocity) leave them,
// a velocity of the wrong length is an error, and the result vector is
// the sparsifier's own — the next select overwrites it without allocating.
func TestSelectMomentum(t *testing.T) {
	const dim, k, mu = 200, 9, 0.9
	fused, split := NewSparsifier(dim), NewSparsifier(dim)
	fv, sv := make([]float32, dim), make([]float32, dim)
	src := prng.New(77)
	grad := make([]float32, dim)
	var last *sparse.Vector
	for step := 0; step < 20; step++ {
		for i := range grad {
			grad[i] = float32(src.NormFloat64())
		}
		got, err := fused.SelectMomentum(mu, fv, grad, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range grad {
			sv[i] = mu*sv[i] + g
		}
		want, err := split.Select(sv, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Indices {
			if want.Indices[i] != got.Indices[i] || math.Float32bits(want.Values[i]) != math.Float32bits(got.Values[i]) {
				t.Fatalf("step %d entry %d: fused (%d,%v), split (%d,%v)", step, i, got.Indices[i], got.Values[i], want.Indices[i], want.Values[i])
			}
		}
		for i := range sv {
			if math.Float32bits(sv[i]) != math.Float32bits(fv[i]) ||
				math.Float32bits(split.Residual()[i]) != math.Float32bits(fused.Residual()[i]) {
				t.Fatalf("step %d index %d: velocity or residual diverged", step, i)
			}
		}
		if last != nil && last != got {
			t.Fatalf("step %d: select returned a fresh vector; it must reuse the sparsifier's", step)
		}
		last = got
	}
	if _, err := fused.SelectMomentum(mu, fv[:dim-1], grad, k); err == nil {
		t.Error("short velocity accepted")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := fused.SelectMomentum(mu, fv, grad, k); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 && !poolDropsPuts() {
		t.Errorf("SelectMomentum allocates %v times per call, want 0", allocs)
	}
}

func TestPutBack(t *testing.T) {
	sp := NewSparsifier(8)
	local := &sparse.Vector{
		Dim:     8,
		Indices: []int32{1, 3, 5},
		Values:  []float32{10, 20, 30},
	}
	// Global selection kept only index 3.
	sp.PutBack(local, []int32{3})
	res := sp.Residual()
	if res[1] != 10 || res[5] != 30 {
		t.Fatalf("dropped values not returned: %v", res)
	}
	if res[3] != 0 {
		t.Fatalf("surviving value returned to residual: %v", res)
	}
}

func TestPutBackEmptyGlobal(t *testing.T) {
	sp := NewSparsifier(4)
	local := &sparse.Vector{Dim: 4, Indices: []int32{0, 2}, Values: []float32{1, 2}}
	sp.PutBack(local, nil)
	if sp.Residual()[0] != 1 || sp.Residual()[2] != 2 {
		t.Fatalf("all values should return: %v", sp.Residual())
	}
}

func TestSparsifierReset(t *testing.T) {
	sp := NewSparsifier(3)
	if _, err := sp.Select([]float32{1, 2, 3}, 1); err != nil {
		t.Fatal(err)
	}
	sp.Reset()
	if sp.ResidualNorm() != 0 {
		t.Fatalf("Reset left residual norm %v", sp.ResidualNorm())
	}
}

func TestDensityToK(t *testing.T) {
	cases := []struct {
		dim  int
		rho  float64
		want int
	}{
		{1000, 0.001, 1},
		{25000000, 0.001, 25000},
		{100, 0.5, 50},
		{10, 0.0001, 1}, // clamped up
		{10, 2.0, 10},   // clamped down
		{2000, 0.005, 10},
	}
	for _, tt := range cases {
		if got := DensityToK(tt.dim, tt.rho); got != tt.want {
			t.Errorf("DensityToK(%d, %v) = %d, want %d", tt.dim, tt.rho, got, tt.want)
		}
	}
}

// Property: selection + residual always reconstruct the accumulated
// gradient exactly, for any k.
func TestQuickSelectConservation(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		const dim = 64
		k := int(kRaw%64) + 1
		src := prng.New(seed)
		sp := NewSparsifier(dim)
		grad := make([]float32, dim)
		for i := range grad {
			grad[i] = float32(src.NormFloat64())
		}
		sel, err := sp.Select(grad, k)
		if err != nil || sel.NNZ() != k {
			return false
		}
		recon := append([]float32(nil), sp.Residual()...)
		sel.ScatterAdd(recon)
		for i := range recon {
			if recon[i] != grad[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSparsifierShardedSelectBitIdentical: a sharded sparsifier must
// walk the exact same residual/selection trajectory as a serial one
// across iterations, for several shard counts.
func TestSparsifierShardedSelectBitIdentical(t *testing.T) {
	// dim must comfortably exceed the engine's minimum per-shard span
	// (32768 elements) times the largest tested shard count, or the
	// selector silently clamps to the serial fallback and the test
	// compares serial against serial.
	const dim, k, iters = 4 * 32768, 131, 4
	for _, shards := range []int{0, 2, 4} {
		serial := NewSparsifier(dim)
		sharded := NewSparsifier(dim)
		sharded.SetShards(shards)
		src := prng.New(321)
		grad := make([]float32, dim)
		for it := 0; it < iters; it++ {
			for i := range grad {
				grad[i] = float32(src.NormFloat64())
			}
			want, err := serial.Select(grad, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.Select(grad, k)
			if err != nil {
				t.Fatal(err)
			}
			if want.NNZ() != got.NNZ() {
				t.Fatalf("shards=%d iter %d: nnz %d vs %d", shards, it, want.NNZ(), got.NNZ())
			}
			for i := range want.Indices {
				if want.Indices[i] != got.Indices[i] ||
					math.Float32bits(want.Values[i]) != math.Float32bits(got.Values[i]) {
					t.Fatalf("shards=%d iter %d entry %d differs", shards, it, i)
				}
			}
			for i := range serial.Residual() {
				if math.Float32bits(serial.Residual()[i]) != math.Float32bits(sharded.Residual()[i]) {
					t.Fatalf("shards=%d iter %d: residual diverged at %d", shards, it, i)
				}
			}
		}
	}
}
