package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

func newInProcFabric(n int) (*transport.InProcFabric, error) {
	return transport.NewInProc(n)
}

func TestPSGTopKMatchesNaive(t *testing.T) {
	// The star topology computes the exact global top-k of the sum, so it
	// must agree with the naive gTop-k bit for bit.
	const p, dim, k = 4, 150, 8
	_, vecs := makeWorkerVectors(321, p, dim, k)
	sumDense := make([]float32, dim)
	for _, v := range vecs {
		v.ScatterAdd(sumDense)
	}
	want := sparse.TopK(sumDense, k)
	spmd(t, p, func(c *collective.Comm) error {
		got := &sparse.Vector{}
		if err := BaselineInto(context.Background(), c, "gtopk-ps", vecs[c.Rank()].Clone(), k, got); err != nil {
			return err
		}
		if got.NNZ() != want.NNZ() {
			return fmt.Errorf("nnz %d want %d", got.NNZ(), want.NNZ())
		}
		for i := range want.Indices {
			if got.Indices[i] != want.Indices[i] {
				return fmt.Errorf("idx %d: %d want %d", i, got.Indices[i], want.Indices[i])
			}
			if math.Abs(float64(got.Values[i]-want.Values[i])) > 1e-5 {
				return fmt.Errorf("val %d: %v want %v", i, got.Values[i], want.Values[i])
			}
		}
		return nil
	})
}

func TestPSGTopKWorksOnNonPow2(t *testing.T) {
	// Unlike the tree, the star topology has no power-of-two restriction.
	const p, dim, k = 3, 60, 5
	_, vecs := makeWorkerVectors(55, p, dim, k)
	spmd(t, p, func(c *collective.Comm) error {
		got := &sparse.Vector{}
		if err := BaselineInto(context.Background(), c, "gtopk-ps", vecs[c.Rank()].Clone(), k, got); err != nil {
			return err
		}
		if got.NNZ() > k {
			return fmt.Errorf("nnz %d > k", got.NNZ())
		}
		return got.Validate()
	})
}

func TestPSAggregatorTrainsQuadratic(t *testing.T) {
	const dim, p, steps = 40, 4, 120
	target := makeTarget(dim)
	results, err := RunCluster(context.Background(), ClusterConfig{Workers: p, Steps: steps},
		func(rank int, comm *collective.Comm) (*Trainer, error) {
			agg, err := NewPSGTopKAggregator(comm, dim, 6)
			if err != nil {
				return nil, err
			}
			return NewTrainer(TrainConfig{LR: 0.3}, agg, make([]float32, dim),
				quadGrad(target, uint64(rank)))
		})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < p; r++ {
		for i := range results[0].FinalWeights {
			if results[r].FinalWeights[i] != results[0].FinalWeights[i] {
				t.Fatalf("PS replicas diverged at %d", i)
			}
		}
	}
	if results[0].Losses[steps-1] > results[0].Losses[0]/5 {
		t.Fatalf("PS-mode did not converge: %v -> %v",
			results[0].Losses[0], results[0].Losses[steps-1])
	}
}

func TestLayerwiseBoundsValidation(t *testing.T) {
	f := func(bounds []int) error {
		fab := newSingleRankComm(t)
		_, err := NewBucketedAggregator(fab, bounds, 0.1)
		return err
	}
	if err := f([]int{0, 10, 30}); err != nil {
		t.Errorf("valid bounds rejected: %v", err)
	}
	for _, bad := range [][]int{{}, {0}, {1, 5}, {0, 5, 5}, {0, 10, 5}} {
		if err := f(bad); err == nil {
			t.Errorf("bounds %v accepted", bad)
		}
	}
	fab := newSingleRankComm(t)
	if _, err := NewBucketedAggregator(fab, []int{0, 10}, 0); err == nil {
		t.Error("zero density accepted")
	}
}

func newSingleRankComm(t *testing.T) *collective.Comm {
	t.Helper()
	f, err := newInProcFabric(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return collective.New(f.Conn(0))
}

func TestLayerwiseAggregatorConvergesAndAgreesAcrossRanks(t *testing.T) {
	const p, steps = 4, 150
	bounds := []int{0, 20, 50, 64}
	dim := bounds[len(bounds)-1]
	target := makeTarget(dim)
	results, err := RunCluster(context.Background(), ClusterConfig{Workers: p, Steps: steps},
		func(rank int, comm *collective.Comm) (*Trainer, error) {
			agg, err := NewBucketedAggregator(comm, bounds, 0.1)
			if err != nil {
				return nil, err
			}
			return NewTrainer(TrainConfig{LR: 0.3}, agg, make([]float32, dim),
				quadGrad(target, uint64(rank)))
		})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < p; r++ {
		for i := range results[0].FinalWeights {
			if results[r].FinalWeights[i] != results[0].FinalWeights[i] {
				t.Fatalf("layerwise replicas diverged at %d", i)
			}
		}
	}
	if results[0].Losses[steps-1] > results[0].Losses[0]/5 {
		t.Fatalf("layerwise gTop-k did not converge: %v -> %v",
			results[0].Losses[0], results[0].Losses[steps-1])
	}
}

func TestLayerwiseEveryLayerRepresented(t *testing.T) {
	// With per-layer selection, every layer contributes at least one
	// coordinate to every update — the property motivating the extension.
	bounds := []int{0, 30, 60, 90}
	const p = 2
	var mu sync.Mutex
	layerHit := make([]bool, 3)
	spmd(t, p, func(c *collective.Comm) error {
		agg, err := NewBucketedAggregator(c, bounds, 0.05)
		if err != nil {
			return err
		}
		grad := make([]float32, 90)
		// Make layer 0 gradients huge so a global top-k would starve
		// layers 1 and 2 entirely.
		for i := 0; i < 30; i++ {
			grad[i] = 100
		}
		for i := 30; i < 90; i++ {
			grad[i] = 0.01
		}
		u, err := agg.Aggregate(context.Background(), grad)
		if err != nil {
			return err
		}
		update := DenseUpdate(u, len(grad))
		mu.Lock()
		defer mu.Unlock()
		for l := 0; l < 3; l++ {
			for i := bounds[l]; i < bounds[l+1]; i++ {
				if update[i] != 0 {
					layerHit[l] = true
					break
				}
			}
		}
		return nil
	})
	for l, hit := range layerHit {
		if !hit {
			t.Errorf("layer %d received no update", l)
		}
	}
}

// nearestQ8 is a deterministic stand-in for quant.NewStack(ValueQ8, …)
// (quant imports core, so the real stack is out of reach here):
// round-to-nearest onto QSGD-8's 255 magnitude steps, values pinned to
// the decoder's lattice in place through sparse.DequantLevel as the
// Compressor contract demands.
type nearestQ8 struct{ levels []int16 }

func (q *nearestQ8) ValueCodec() sparse.ValueCodec { return sparse.ValueQ8 }

func (q *nearestQ8) Fork(uint64) sparse.Compressor { return &nearestQ8{} }

func (q *nearestQ8) Shared(uint64) sparse.Compressor { return q }

func (q *nearestQ8) Transform(values []float32) (float32, []int16) {
	var scale float32
	for _, v := range values {
		scale = max(scale, float32(math.Abs(float64(v))))
	}
	q.levels = append(q.levels[:0], make([]int16, len(values))...)
	for i, v := range values {
		if scale > 0 {
			q.levels[i] = int16(math.RoundToEven(float64(v / scale * 255)))
		}
		values[i] = sparse.DequantLevel(sparse.ValueQ8, scale, q.levels[i])
	}
	return scale, q.levels
}

// TestLayerwiseQuantizedResidualConservation: under a lossy v3 codec the
// tree's wire transform rewrites a sending rank's selected values in
// place, so the layer-wise aggregator must fold the quantization error
// into the residual before putting dropped values back — on every rank,
// every coordinate the update left at zero still holds its whole
// gradient (one rounding each of orig−sent and +sent apart).
func TestLayerwiseQuantizedResidualConservation(t *testing.T) {
	const p, dim = 2, 100
	bounds := []int{0, 40, dim}
	grads, _ := makeWorkerVectors(17, p, dim, dim)
	fab, err := transport.NewInProcWire(p, sparse.CodecV3Q8.WireVersion())
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close() //nolint:errcheck // in-process close never fails
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = func() error {
				comm := collective.New(fab.Conn(rank))
				comm.SetCompressor(&nearestQ8{})
				if got := comm.WireCodec(); got != sparse.CodecV3Q8 {
					return fmt.Errorf("mesh codec %s, want v3-qsgd8", got)
				}
				agg, err := NewBucketedAggregator(comm, bounds, 0.1)
				if err != nil {
					return err
				}
				grad := grads[rank]
				u, err := agg.Aggregate(context.Background(), append([]float32(nil), grad...))
				if err != nil {
					return err
				}
				update := DenseUpdate(u, dim)
				for _, b := range agg.buckets {
					for i, res := range b.sp.Residual() {
						g := grad[b.lo+i]
						if update[b.lo+i] != 0 {
							continue
						}
						if diff := math.Abs(float64(res - g)); diff > 1e-5*(1+math.Abs(float64(g))) {
							return fmt.Errorf("coordinate %d leaked: residual %v, gradient %v", b.lo+i, res, g)
						}
					}
				}
				return nil
			}()
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

func TestScheduleChangesK(t *testing.T) {
	// A schedule stepping k from 3 to 1 must change the nnz of the
	// aggregated update accordingly.
	const dim = 16
	f, err := newInProcFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	nnzByStep := make([][]int, 2)
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm := collective.New(f.Conn(rank))
			agg, err := NewGTopKAggregator(comm, dim, 3)
			if err != nil {
				errs[rank] = err
				return
			}
			agg.SetSchedule(func(step int) int {
				if step == 0 {
					return 3
				}
				return 1
			})
			grad := make([]float32, dim)
			for i := range grad {
				grad[i] = float32(i + 1)
			}
			for step := 0; step < 2; step++ {
				update, err := agg.Aggregate(context.Background(), grad)
				if err != nil {
					errs[rank] = err
					return
				}
				nnz := 0
				for _, v := range update.Values {
					if v != 0 {
						nnz++
					}
				}
				nnzByStep[rank] = append(nnzByStep[rank], nnz)
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if nnzByStep[0][0] != 3 || nnzByStep[0][1] != 1 {
		t.Fatalf("schedule not applied: nnz per step = %v", nnzByStep[0])
	}
}
