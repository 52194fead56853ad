package quant

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

func TestPackUnpackSignsRoundTrip(t *testing.T) {
	src := prng.New(1)
	for _, n := range []int{1, 7, 8, 9, 63, 64, 100} {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(src.NormFloat64())
		}
		packed := PackSigns(x)
		if len(packed) != (n+7)/8 {
			t.Fatalf("n=%d: packed %d bytes", n, len(packed))
		}
		got, err := UnpackSigns(packed, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			want := float32(1)
			if x[i] < 0 {
				want = -1
			}
			if got[i] != want {
				t.Fatalf("n=%d elem %d: got %v want %v", n, i, got[i], want)
			}
		}
	}
	if _, err := UnpackSigns([]byte{0}, 100); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestTernaryUnbiased(t *testing.T) {
	// E[quantized] == x for the stochastic ternary scheme.
	x := []float32{0.5, -0.25, 1.0, 0}
	rng := prng.New(7)
	const trials = 20000
	sums := make([]float64, len(x))
	for trial := 0; trial < trials; trial++ {
		scale, levels := Ternary(x, rng)
		for i, l := range levels {
			sums[i] += float64(scale) * float64(l)
		}
	}
	for i, want := range x {
		mean := sums[i] / trials
		if math.Abs(mean-float64(want)) > 0.02 {
			t.Errorf("elem %d: mean %v, want %v", i, mean, want)
		}
	}
}

func TestTernaryZeroVector(t *testing.T) {
	scale, levels := Ternary(make([]float32, 5), prng.New(1))
	if scale != 0 {
		t.Fatalf("scale = %v", scale)
	}
	for _, l := range levels {
		if l != 0 {
			t.Fatal("nonzero level for zero input")
		}
	}
}

// runAggCluster trains the separable quadratic with the given aggregator
// factory and returns first/last losses plus final weights of rank 0.
func runAggCluster(t *testing.T, p, dim, steps int, lr float32,
	factory func(rank int, comm *collective.Comm) (core.Aggregator, error)) []*core.WorkerResult {
	t.Helper()
	src := prng.New(99)
	target := make([]float32, dim)
	for i := range target {
		target[i] = float32(src.NormFloat64())
	}
	results, err := core.RunCluster(context.Background(),
		core.ClusterConfig{Workers: p, Steps: steps},
		func(rank int, comm *collective.Comm) (*core.Trainer, error) {
			agg, err := factory(rank, comm)
			if err != nil {
				return nil, err
			}
			gradFn := func(_ int, weights, grad []float32) float64 {
				var loss float64
				for i := range weights {
					d := weights[i] - target[i]
					grad[i] = d
					loss += 0.5 * float64(d) * float64(d)
				}
				return loss / float64(dim)
			}
			return core.NewTrainer(core.TrainConfig{LR: lr}, agg, make([]float32, dim), gradFn)
		})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestSignSGDConvergesOnQuadratic(t *testing.T) {
	results := runAggCluster(t, 4, 32, 200, 0.02,
		func(_ int, comm *collective.Comm) (core.Aggregator, error) {
			return NewSignSGDAggregator(comm, 32), nil
		})
	first, last := results[0].Losses[0], results[0].Losses[199]
	if last > first/5 {
		t.Fatalf("signSGD did not converge: %v -> %v", first, last)
	}
	for r := 1; r < 4; r++ {
		for i := range results[0].FinalWeights {
			if results[r].FinalWeights[i] != results[0].FinalWeights[i] {
				t.Fatalf("signSGD replicas diverged at %d", i)
			}
		}
	}
}

func TestTernGradConvergesOnQuadratic(t *testing.T) {
	results := runAggCluster(t, 4, 32, 300, 0.3,
		func(_ int, comm *collective.Comm) (core.Aggregator, error) {
			return NewTernGradAggregator(comm, 32, 11), nil
		})
	first, last := results[0].Losses[0], results[0].Losses[299]
	if last > first/5 {
		t.Fatalf("TernGrad did not converge: %v -> %v", first, last)
	}
}

func TestTernGradDifferentSeedsPerRank(t *testing.T) {
	// Stochastic rounding must differ across ranks (independence) even
	// with the same base seed.
	f, err := transport.NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a0 := NewTernGradAggregator(collective.New(f.Conn(0)), 8, 5)
	a1 := NewTernGradAggregator(collective.New(f.Conn(1)), 8, 5)
	// Magnitudes strictly below the max so Bernoulli rounding is actually
	// stochastic (p < 1) for most elements.
	x := []float32{0.5, 0.3, -0.4, 0.2, 1.0, -0.6, 0.45, 0.15}
	same := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		_, l0 := Ternary(x, a0.rng)
		_, l1 := Ternary(x, a1.rng)
		equal := true
		for j := range l0 {
			if l0[j] != l1[j] {
				equal = false
				break
			}
		}
		if equal {
			same++
		}
	}
	if same == trials {
		t.Fatal("rank rngs identical; stochastic rounding correlated")
	}
}

// Property: pack/unpack round trip preserves every sign.
func TestQuickPackSignsRoundTrip(t *testing.T) {
	fn := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		src := prng.New(seed)
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(src.NormFloat64())
		}
		got, err := UnpackSigns(PackSigns(x), n)
		if err != nil {
			return false
		}
		for i := range x {
			want := float32(1)
			if x[i] < 0 {
				want = -1
			}
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the QSGD transform never moves a value by more than one
// level step, scale/steps, at any of its bit widths.
func TestQuickUniformErrorBound(t *testing.T) {
	fn := func(seed uint64, codec uint8) bool {
		vc := []sparse.ValueCodec{sparse.ValueQ8, sparse.ValueQ4, sparse.ValueQ2}[codec%3]
		src := prng.New(seed)
		x := make([]float32, 50)
		for i := range x {
			x[i] = float32(src.NormFloat64())
		}
		vals := append([]float32(nil), x...)
		s := NewStack(vc, seed+1)
		scale, _ := s.Transform(vals)
		bound := float64(scale)/float64(s.steps()) + 1e-5
		for i := range x {
			if math.Abs(float64(vals[i]-x[i])) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregatorNames(t *testing.T) {
	f, err := transport.NewInProc(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	comm := collective.New(f.Conn(0))
	if got := NewSignSGDAggregator(comm, 4).Name(); got != "signsgd" {
		t.Errorf("name = %q", got)
	}
	if got := NewTernGradAggregator(comm, 4, 1).Name(); got != "terngrad" {
		t.Errorf("name = %q", got)
	}
}

func TestDimValidation(t *testing.T) {
	f, err := transport.NewInProc(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	comm := collective.New(f.Conn(0))
	ctx := context.Background()
	if _, err := NewSignSGDAggregator(comm, 4).Aggregate(ctx, make([]float32, 5)); err == nil {
		t.Error("signsgd dim mismatch accepted")
	}
	if _, err := NewTernGradAggregator(comm, 4, 1).Aggregate(ctx, make([]float32, 5)); err == nil {
		t.Error("terngrad dim mismatch accepted")
	}
}
