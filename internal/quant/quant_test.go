package quant

import (
	"context"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

func TestSignBasics(t *testing.T) {
	got := Sign([]float32{-3, 0, 2.5})
	want := []float32{-1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sign = %v, want %v", got, want)
		}
	}
}

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
	deq := Dequantize(scale, levels)
	for _, v := range deq {
		if v != 0 {
			t.Fatal("nonzero dequantized value")
		}
	}
}

func TestUniformQuantizationErrorBound(t *testing.T) {
	// 8-bit quantization error per element is at most scale/(2^8-1).
	src := prng.New(3)
	x := make([]float32, 500)
	for i := range x {
		x[i] = float32(src.NormFloat64())
	}
	scale, levels, err := Uniform(x, 8, prng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	deq := DequantizeUniform(scale, levels, 8)
	bound := float64(scale) / 255
	for i := range x {
		if diff := math.Abs(float64(deq[i] - x[i])); diff > bound+1e-6 {
			t.Fatalf("elem %d: error %v exceeds bound %v", i, diff, bound)
		}
	}
}

func TestUniformValidatesBits(t *testing.T) {
	if _, _, err := Uniform([]float32{1}, 0, prng.New(1)); err == nil {
		t.Error("bits=0 accepted")
	}
	if _, _, err := Uniform([]float32{1}, 16, prng.New(1)); err == nil {
		t.Error("bits=16 accepted")
	}
}

func TestQuantizeSparsePreservesIndices(t *testing.T) {
	v := &sparse.Vector{Dim: 100, Indices: []int32{3, 50, 99}, Values: []float32{1, -2, 0.5}}
	q, wire, err := QuantizeSparse(v, prng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Indices {
		if q.Indices[i] != v.Indices[i] {
			t.Fatal("indices changed by quantization")
		}
	}
	if wire >= sparse.EncodedSize(v.NNZ()) {
		t.Fatalf("quantized wire %d not smaller than raw %d", wire, sparse.EncodedSize(v.NNZ()))
	}
}

func TestCompressionRatio(t *testing.T) {
	// Dense m=1000 floats = 4000 bytes; 40-byte wire -> 100x.
	if got := CompressionRatio(1000, 40); got != 100 {
		t.Fatalf("ratio = %v", got)
	}
	if CompressionRatio(10, 0) != 0 {
		t.Fatal("zero wire bytes should yield 0")
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

func TestQuantizedGTopKConvergesAndCompresses(t *testing.T) {
	const dim = 64
	var wireBytes int64
	var mu sync.Mutex
	results := runAggCluster(t, 4, dim, 400, 0.05,
		func(rank int, comm *collective.Comm) (core.Aggregator, error) {
			agg, err := NewQuantizedGTopKAggregator(comm, dim, 6, 13)
			if err != nil {
				return nil, err
			}
			if rank == 0 {
				// Capture rank 0's wire accounting after training via a
				// wrapper that updates the shared counter per step.
				return aggregatorFunc{agg: agg, after: func() {
					mu.Lock()
					wireBytes = agg.WireBytes
					mu.Unlock()
				}}, nil
			}
			return agg, nil
		})
	first, last := results[0].Losses[0], results[0].Losses[399]
	if last > first/5 {
		t.Fatalf("quantized gTop-k did not converge: %v -> %v", first, last)
	}
	mu.Lock()
	defer mu.Unlock()
	if wireBytes == 0 {
		t.Fatal("no wire bytes recorded")
	}
	perStep := wireBytes / 400
	ratio := CompressionRatio(dim, int(perStep))
	if ratio < 5 {
		t.Fatalf("combined compression ratio %v too low (per-step wire %d)", ratio, perStep)
	}
	for r := 1; r < 4; r++ {
		for i := range results[0].FinalWeights {
			if results[r].FinalWeights[i] != results[0].FinalWeights[i] {
				t.Fatalf("quantized replicas diverged at %d", i)
			}
		}
	}
}

// aggregatorFunc wraps an aggregator with a post-step hook.
type aggregatorFunc struct {
	agg   core.Aggregator
	after func()
}

func (a aggregatorFunc) Name() string { return a.agg.Name() }
func (a aggregatorFunc) Aggregate(ctx context.Context, grad []float32) ([]float32, error) {
	out, err := a.agg.Aggregate(ctx, grad)
	if a.after != nil {
		a.after()
	}
	return out, err
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

// Property: uniform quantization never exceeds its error bound.
func TestQuickUniformErrorBound(t *testing.T) {
	fn := func(seed uint64, bitsRaw uint8) bool {
		bits := int(bitsRaw%8) + 1
		src := prng.New(seed)
		x := make([]float32, 50)
		for i := range x {
			x[i] = float32(src.NormFloat64())
		}
		scale, levels, err := Uniform(x, bits, prng.New(seed+1))
		if err != nil {
			return false
		}
		deq := DequantizeUniform(scale, levels, bits)
		bound := float64(scale)/float64(int(1)<<bits-1) + 1e-5
		for i := range x {
			if math.Abs(float64(deq[i]-x[i])) > bound {
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
	q, err := NewQuantizedGTopKAggregator(comm, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name() != "gtopk-quant8" {
		t.Errorf("name = %q", q.Name())
	}
	if _, err := NewQuantizedGTopKAggregator(comm, 4, 0, 1); err == nil {
		t.Error("k=0 accepted")
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

// TestQuantizeSparseF16 pins the half-precision compressor: exact
// indices, values equal to the binary16 round trip (idempotent), and a
// wire cost matching the v3-fp16 codec's actual frame.
func TestQuantizeSparseF16(t *testing.T) {
	v := &sparse.Vector{
		Dim:     1000,
		Indices: []int32{1, 40, 41, 999},
		Values:  []float32{0.333333, -1e-9, 70000, -2.5},
	}
	q, wire := QuantizeSparseF16(v)
	if wire != len(sparse.EncodeCodec(sparse.CodecV3F16, v)) {
		t.Fatalf("reported wire %d bytes, actual v3-fp16 frame %d", wire, len(sparse.EncodeCodec(sparse.CodecV3F16, v)))
	}
	for i, idx := range v.Indices {
		if q.Indices[i] != idx {
			t.Fatalf("index %d changed: %d -> %d", i, idx, q.Indices[i])
		}
		want := Float16(v.Values[i])
		if math.Float32bits(q.Values[i]) != math.Float32bits(want) {
			t.Fatalf("value %d: got %v want %v", i, q.Values[i], want)
		}
		if math.Float32bits(Float16(q.Values[i])) != math.Float32bits(q.Values[i]) {
			t.Fatalf("value %d not idempotent under Float16", i)
		}
	}
	if v.Values[0] == q.Values[0] {
		t.Fatal("0.333333 should not be exactly representable in binary16")
	}
	// RoundTripF16 matches element-wise application.
	xs := append([]float32(nil), v.Values...)
	RoundTripF16(xs)
	for i := range xs {
		if math.Float32bits(xs[i]) != math.Float32bits(q.Values[i]) {
			t.Fatalf("RoundTripF16 element %d differs from QuantizeSparseF16", i)
		}
	}
}
