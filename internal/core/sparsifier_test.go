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
	sel, err := sp.SelectMomentum(0, nil, grad, 2)
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
		sel, err := sp.SelectMomentum(0, nil, grad, 1)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Indices[0] != 0 {
			t.Fatalf("step %d selected %v", i, sel.Indices)
		}
	}
	// Residual at index 1 is now 0.8; next gradient makes it 1.2 > 1.0.
	sel, err := sp.SelectMomentum(0, nil, grad, 1)
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
		sel, err := sp.SelectMomentum(0, nil, grad, 7)
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
	if _, err := sp.SelectMomentum(0, nil, make([]float32, 5), 1); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := sp.SelectMomentum(0, nil, make([]float32, 4), 5); err == nil {
		t.Error("k > dim accepted")
	}
	if _, err := sp.SelectMomentum(0, nil, make([]float32, 4), -1); err == nil {
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
		want, err := split.SelectMomentum(0, nil, sv, k)
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
		sel, err := sp.SelectMomentum(0, nil, grad, k)
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

// momentumAddRef is the accumulate loop SelectMomentum fused into its
// candidate scan, kept as the reference: v = mu·vel[i] + x[i];
// vel[i] = v; dst[i] += v.
func momentumAddRef(dst, vel []float32, mu float32, x []float32) {
	for i, g := range x {
		v := mu*vel[i] + g
		vel[i] = v
		dst[i] += v
	}
}

// TestSelectMomentumMatchesReference trains 200 steps of a noisy
// quadratic through SelectMomentum and through the reference select —
// momentumAddRef (or the plain add at mu = 0), sparse.TopKInto, zero the
// selected entries — with a k that shrinks from dim/32 to 4: weights,
// residual, velocity and every selection stay bit-identical.
func TestSelectMomentumMatchesReference(t *testing.T) {
	const dim, steps, lr = 3*4096 + 5, 200, 0.05
	for _, mu := range []float32{0, 0.9} {
		sp := NewSparsifier(dim)
		vel, refVel := make([]float32, dim), make([]float32, dim)
		refRes := make([]float32, dim)
		w, refW := make([]float32, dim), make([]float32, dim)
		src := prng.New(99)
		target := make([]float32, dim)
		for i := range target {
			target[i] = float32(src.NormFloat64())
		}
		grad, refGrad := make([]float32, dim), make([]float32, dim)
		var want sparse.Vector
		for step := 0; step < steps; step++ {
			k := max(dim/32-2*step, 4)
			for i := range grad {
				noise := 0.1 * float32(src.NormFloat64())
				grad[i] = w[i] - target[i] + noise
				refGrad[i] = refW[i] - target[i] + noise
			}
			got, err := sp.SelectMomentum(mu, vel, grad, k)
			if err != nil {
				t.Fatal(err)
			}
			if mu > 0 {
				momentumAddRef(refRes, refVel, mu, refGrad)
			} else {
				for i, g := range refGrad {
					refRes[i] += g
				}
			}
			sparse.TopKInto(&want, refRes, k)
			for _, idx := range want.Indices {
				refRes[idx] = 0
			}
			if got.NNZ() != want.NNZ() {
				t.Fatalf("mu=%v step %d: nnz %d, want %d", mu, step, got.NNZ(), want.NNZ())
			}
			for i, idx := range want.Indices {
				if got.Indices[i] != idx || math.Float32bits(got.Values[i]) != math.Float32bits(want.Values[i]) {
					t.Fatalf("mu=%v step %d entry %d: (%d,%v), want (%d,%v)", mu, step, i, got.Indices[i], got.Values[i], idx, want.Values[i])
				}
				w[got.Indices[i]] -= lr * got.Values[i]
				refW[idx] -= lr * want.Values[i]
			}
			for i := range w {
				if math.Float32bits(w[i]) != math.Float32bits(refW[i]) ||
					math.Float32bits(sp.Residual()[i]) != math.Float32bits(refRes[i]) ||
					math.Float32bits(vel[i]) != math.Float32bits(refVel[i]) {
					t.Fatalf("mu=%v step %d index %d: weights, residual or velocity diverged", mu, step, i)
				}
			}
		}
	}
}
