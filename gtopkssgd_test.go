package gtopkssgd

import (
	"context"
	"testing"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// TestPublicAPIEndToEnd exercises the whole public surface the way the
// README shows: build a fabric, run a 4-worker gTop-k training job on a
// toy objective, and verify convergence and replica consistency.
func TestPublicAPIEndToEnd(t *testing.T) {
	// With density 0.1 each coordinate waits ~10 steps in the residual
	// before being applied, so the stable learning rate is ~10x smaller
	// than dense SGD's (lr·staleness < 2 for a unit-curvature quadratic).
	const (
		workers = 4
		dim     = 64
		steps   = 400
	)
	src := prng.New(1)
	target := make([]float32, dim)
	for i := range target {
		target[i] = float32(src.NormFloat64())
	}
	gradFn := func(_ int, weights, grad []float32) float64 {
		var loss float64
		for i := range weights {
			d := weights[i] - target[i]
			grad[i] = d
			loss += 0.5 * float64(d) * float64(d)
		}
		return loss / dim
	}

	results, err := RunCluster(context.Background(),
		ClusterConfig{Workers: workers, Steps: steps},
		func(rank int, comm *Comm) (*Trainer, error) {
			k := DensityToK(dim, 0.1)
			agg, err := NewGTopKAggregator(comm, dim, k)
			if err != nil {
				return nil, err
			}
			return NewTrainer(TrainConfig{LR: 0.05}, agg, make([]float32, dim), gradFn)
		})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Losses[steps-1] > results[0].Losses[0]/10 {
		t.Fatalf("no convergence: %v -> %v", results[0].Losses[0], results[0].Losses[steps-1])
	}
	for r := 1; r < workers; r++ {
		for i := range results[0].FinalWeights {
			if results[r].FinalWeights[i] != results[0].FinalWeights[i] {
				t.Fatalf("replica %d diverged at %d", r, i)
			}
		}
	}
}

func TestPublicCollectives(t *testing.T) {
	const p, dim, k = 4, 100, 5
	fabric, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()

	locals := make([]*sparse.Vector, p)
	for r := range locals {
		src := prng.New(uint64(r + 10))
		g := make([]float32, dim)
		for i := range g {
			g[i] = float32(src.NormFloat64())
		}
		locals[r] = sparse.TopK(g, k)
	}

	type result struct {
		vec *sparse.Vector
		err error
	}
	results := make([]result, p)
	done := make(chan int, p)
	for r := 0; r < p; r++ {
		go func(rank int) {
			v := &sparse.Vector{}
			err := core.GTopKInto(context.Background(), collective.New(fabric.Conn(rank)), nil, locals[rank].Clone(), k, v)
			results[rank] = result{v, err}
			done <- rank
		}(r)
	}
	for i := 0; i < p; i++ {
		<-done
	}
	for r, res := range results {
		if res.err != nil {
			t.Fatalf("rank %d: %v", r, res.err)
		}
		if res.vec.NNZ() > k {
			t.Fatalf("rank %d: %d entries > k", r, res.vec.NNZ())
		}
	}
}

func TestPublicMergeAndSelect(t *testing.T) {
	a := sparse.TopK([]float32{5, 0, -3, 1}, 2)
	bv := sparse.TopK([]float32{0, 4, -3, 0}, 2)
	m, err := sparse.Merge(a, bv, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Sums: idx0=5, idx1=4, idx2=-6 -> top-2 by magnitude: idx2 (-6), idx0 (5).
	if m.NNZ() != 2 || m.Indices[0] != 0 || m.Indices[1] != 2 {
		t.Fatalf("merge = %v %v", m.Indices, m.Values)
	}
}

func TestPublicNetModel(t *testing.T) {
	model := Paper1GbE()
	if model.GTopKAllReduce(32, 25000) >= model.TopKAllReduce(32, 25000) {
		t.Fatal("gTopK should beat TopK at P=32")
	}
}

func TestPublicAggregatorConstructorsValidate(t *testing.T) {
	fabric, err := transport.NewInProc(1)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	comm := collective.New(fabric.Conn(0))
	if _, err := NewGTopKAggregator(comm, 10, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if agg, err := NewGTopKAggregator(comm, 10, 11); err == nil || agg != nil {
		t.Errorf("k>dim: got (%v, %v), want an error and an untyped nil Aggregator", agg, err)
	}
	if _, err := NewBucketedAggregator(comm, []int{0, 5, 3}, 0.1); err == nil {
		t.Error("bad bounds accepted")
	}
	if _, err := NewBucketedAggregator(comm, GroupBounds([]int{0, 4, 10}, 2), 0.2); err != nil {
		t.Errorf("valid bucketed aggregator rejected: %v", err)
	}
	if agg := NewDenseAggregator(comm, 10); agg.Name() != "dense" {
		t.Errorf("dense aggregator name %q", agg.Name())
	}
}

func TestPublicSparsifier(t *testing.T) {
	fabric, err := transport.NewInProc(1)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	agg, err := NewGTopKAggregator(collective.New(fabric.Conn(0)), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The same interface examples/faulttolerant reaches the residual by.
	hs, ok := agg.(interface{ Sparsifier() *Sparsifier })
	if !ok {
		t.Fatal("the gTop-k aggregator exposes no Sparsifier")
	}
	sel, err := hs.Sparsifier().SelectMomentum(0, nil, []float32{1, -9, 2, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sel.NNZ() != 1 || sel.Indices[0] != 1 {
		t.Fatalf("selection = %v", sel.Indices)
	}
}
