package quant

import (
	"context"
	"math"
	"runtime"
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
		packed := PackSigns(nil, x)
		if len(packed) != (n+7)/8 {
			t.Fatalf("n=%d: packed %d bytes", n, len(packed))
		}
		got := make([]float32, n)
		if err := addSigns(got, packed); err != nil {
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
	if err := addSigns(make([]float32, 100), []byte{0}); err == nil {
		t.Fatal("short buffer accepted")
	}
}

// splitTernary reads the scale and the n levels of a Ternary frame.
func splitTernary(frame []byte, n int) (float32, []int8) {
	levels := make([]int8, n)
	for i := range levels {
		code := frame[4+i/4] >> (2 * (i % 4)) & 3
		levels[i] = int8(code&1) - int8(code>>1)
	}
	return getF32(frame), levels
}

func TestTernaryUnbiased(t *testing.T) {
	// E[quantized] == x for the stochastic ternary scheme.
	x := []float32{0.5, -0.25, 1.0, 0}
	rng := prng.New(7)
	const trials = 20000
	sums := make([]float64, len(x))
	var frame []byte
	for trial := 0; trial < trials; trial++ {
		frame = Ternary(frame, x, rng)
		scale, levels := splitTernary(frame, len(x))
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
	scale, levels := splitTernary(Ternary([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9}, make([]float32, 5), prng.New(1)), 5)
	if scale != 0 {
		t.Fatalf("scale = %v", scale)
	}
	for _, l := range levels {
		if l != 0 {
			t.Fatal("nonzero level for zero input")
		}
	}
}

// TestTernaryFrameFold folds a Ternary frame with padding back into a
// zero vector as s·level, and refuses the frame with a level code 3 or a
// padding bit set.
func TestTernaryFrameFold(t *testing.T) {
	x := []float32{0.5, -1.5, 1.0, -0.25, 1.5}
	frame := Ternary(nil, x, prng.New(3))
	if len(frame) != 4+2 {
		t.Fatalf("frame %d bytes for 5 levels, want 6", len(frame))
	}
	scale, levels := splitTernary(frame, len(x))
	acc := make([]float32, len(x))
	if err := addTernary(acc, frame); err != nil {
		t.Fatal(err)
	}
	for i, l := range levels {
		if acc[i] != scale*float32(l) {
			t.Fatalf("entry %d folded to %v, want %v·%d", i, acc[i], scale, l)
		}
	}
	for _, bad := range []struct {
		at   int
		bits byte
	}{{4, 3}, {5, 1 << 2}} {
		planted := append([]byte(nil), frame...)
		planted[bad.at] |= bad.bits
		if err := addTernary(make([]float32, len(x)), planted); err == nil {
			t.Errorf("byte %d |= %#x accepted", bad.at, bad.bits)
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
		_, l0 := splitTernary(Ternary(nil, x, a0.rng), len(x))
		_, l1 := splitTernary(Ternary(nil, x, a1.rng), len(x))
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
		got := make([]float32, n)
		if err := addSigns(got, PackSigns(nil, x)); err != nil {
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
		vc := []sparse.ValueCodec{sparse.ValueQ8, sparse.ValueQ2}[codec%2]
		src := prng.New(seed)
		x := make([]float32, 50)
		for i := range x {
			x[i] = float32(src.NormFloat64())
		}
		vals := append([]float32(nil), x...)
		s := NewStack(vc, seed+1)
		scale, _ := s.Transform(vals)
		bound := float64(scale)/float64(s.vc.Steps()) + 1e-5
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

// TestAggregateAllocFree holds each quantized baseline's steady-state
// Aggregate (P=1) to no dim-length allocation: the rank's frame is
// reused and every gathered frame folds straight into grad. What is left
// is the AllGather's list of per-rank frames.
func TestAggregateAllocFree(t *testing.T) {
	const dim, steps = 1 << 16, 50
	for _, tc := range []struct {
		name  string
		build func(c *collective.Comm) core.Aggregator
	}{
		{"signsgd", func(c *collective.Comm) core.Aggregator { return NewSignSGDAggregator(c, dim) }},
		{"terngrad", func(c *collective.Comm) core.Aggregator { return NewTernGradAggregator(c, dim, 3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := transport.NewInProc(1)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			agg := tc.build(collective.New(f.Conn(0)))
			src := prng.New(8)
			grad := make([]float32, dim)
			step := func() {
				for i := range grad {
					grad[i] = float32(src.NormFloat64())
				}
				if _, err := agg.Aggregate(context.Background(), grad); err != nil {
					t.Fatal(err)
				}
			}
			step() // the frame grows once
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < steps; i++ {
				step()
			}
			runtime.ReadMemStats(&after)
			perStep := (after.TotalAlloc - before.TotalAlloc) / steps
			t.Logf("%s: %d bytes allocated per step at dim %d", tc.name, perStep, dim)
			if perStep >= dim/8 {
				t.Errorf("%s allocates %d bytes per step, a dim-length buffer (dim/8 = %d)", tc.name, perStep, dim/8)
			}
		})
	}
}

// FuzzFrameFolds feeds the sign and ternary frame folds arbitrary bytes
// at an arbitrary length and at the lengths the frame fits: a frame that
// does not fit ends in an error, a sign frame that fits folds to ±1 per
// entry, and neither fold panics.
func FuzzFrameFolds(f *testing.F) {
	f.Add(uint16(8), []byte{0xb5})
	f.Add(uint16(3), []byte{0, 0, 0xc0, 0x3f, 0x19})
	f.Add(uint16(0), []byte{})
	f.Add(uint16(1000), []byte{0, 0, 0xc0, 0x7f, 0xff})
	f.Fuzz(func(t *testing.T, n uint16, frame []byte) {
		for _, m := range []int{int(n), 8*len(frame) - int(n%8), 4*(len(frame)-4) - int(n%4)} {
			if m < 0 {
				continue
			}
			signs, levels := make([]float32, m), make([]float32, m)
			if err := addSigns(signs, frame); (err == nil) != (len(frame) == (m+7)/8) {
				t.Fatalf("addSigns(%d entries, %d bytes): err = %v", m, len(frame), err)
			} else if err == nil {
				for i, v := range signs {
					if v != 1 && v != -1 {
						t.Fatalf("addSigns: entry %d = %v, want ±1", i, v)
					}
				}
			}
			if err := addTernary(levels, frame); err == nil && len(frame) != 4+(m+3)/4 {
				t.Fatalf("addTernary(%d entries, %d bytes) accepted a frame that does not fit", m, len(frame))
			}
		}
	})
}
