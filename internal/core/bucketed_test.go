package core

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/prng"
)

// gradStream returns a deterministic per-rank gradient generator: the
// same (rank, iter) always yields the same dense gradient.
func gradStream(dim int) func(rank, iter int) []float32 {
	return func(rank, iter int) []float32 {
		src := prng.New(uint64(rank)*100003 + uint64(iter)*17 + 5)
		g := make([]float32, dim)
		for i := range g {
			g[i] = float32(src.NormFloat64())
		}
		return g
	}
}

// runAggStream drives build's aggregator over iters iterations of the
// gradient stream on p ranks and returns rank 0's per-iteration updates.
func runAggStream(t *testing.T, p, dim, iters int, build func(c *collective.Comm) (Aggregator, error)) [][]float32 {
	t.Helper()
	stream := gradStream(dim)
	updates := make([][]float32, iters)
	spmd(t, p, func(c *collective.Comm) error {
		agg, err := build(c)
		if err != nil {
			return err
		}
		for it := 0; it < iters; it++ {
			upd, err := agg.Aggregate(context.Background(), stream(c.Rank(), it))
			if err != nil {
				return fmt.Errorf("iter %d: %w", it, err)
			}
			if c.Rank() == 0 {
				updates[it] = DenseUpdate(upd, dim)
			}
		}
		return nil
	})
	return updates
}

func requireBitwiseEqual(t *testing.T, want, got [][]float32, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d iterations", label, len(want), len(got))
	}
	for it := range want {
		if len(want[it]) != len(got[it]) {
			t.Fatalf("%s: iter %d: dim %d vs %d", label, it, len(want[it]), len(got[it]))
		}
		for i := range want[it] {
			if math.Float32bits(want[it][i]) != math.Float32bits(got[it][i]) {
				t.Fatalf("%s: iter %d: element %d differs: %v vs %v",
					label, it, i, want[it][i], got[it][i])
			}
		}
	}
}

// TestBucketedSingleBucketMatchesGTopK: with one bucket spanning the
// whole gradient, the pipeline must be bitwise-identical to the plain
// GTopKAggregator on the same gradient stream.
func TestBucketedSingleBucketMatchesGTopK(t *testing.T) {
	const p, dim, iters = 4, 257, 6
	const density = 0.05
	k := DensityToK(dim, density)

	ref := runAggStream(t, p, dim, iters, func(c *collective.Comm) (Aggregator, error) {
		return NewGTopKAggregator(c, dim, k)
	})
	got := runAggStream(t, p, dim, iters, func(c *collective.Comm) (Aggregator, error) {
		return NewBucketedAggregator(c, []int{0, dim}, density)
	})
	requireBitwiseEqual(t, ref, got, "single-bucket vs gtopk")
}

// TestBucketedMatchesPerBucketComposition: with >= 2 buckets the
// concurrent pipeline must be bitwise-identical to running an
// independent single-bucket GTopKAggregator over each bucket's slice of
// the same gradient stream, serially.
func TestBucketedMatchesPerBucketComposition(t *testing.T) {
	const p, dim, iters = 4, 300, 6
	const density = 0.05
	bounds := []int{0, 90, 170, 300}

	ref := runAggStream(t, p, dim, iters, func(c *collective.Comm) (Aggregator, error) {
		return newPerBucketReference(c, bounds, density)
	})
	got := runAggStream(t, p, dim, iters, func(c *collective.Comm) (Aggregator, error) {
		return NewBucketedAggregator(c, bounds, density)
	})
	requireBitwiseEqual(t, ref, got, "bucketed vs per-bucket composition")
}

// perBucketReference is the serial reference the pipeline is verified
// against: one plain GTopKAggregator per bucket, run back to back.
type perBucketReference struct {
	bounds []int
	aggs   []*GTopKAggregator
	dense  []float32
}

func newPerBucketReference(c *collective.Comm, bounds []int, density float64) (*perBucketReference, error) {
	ref := &perBucketReference{bounds: bounds, dense: make([]float32, bounds[len(bounds)-1])}
	for i := 0; i+1 < len(bounds); i++ {
		size := bounds[i+1] - bounds[i]
		agg, err := NewGTopKAggregator(c, size, DensityToK(size, density))
		if err != nil {
			return nil, err
		}
		ref.aggs = append(ref.aggs, agg)
	}
	return ref, nil
}

func (r *perBucketReference) Name() string { return "per-bucket-reference" }

func (r *perBucketReference) Aggregate(ctx context.Context, grad []float32) (Update, error) {
	for i, agg := range r.aggs {
		lo, hi := r.bounds[i], r.bounds[i+1]
		upd, err := agg.Aggregate(ctx, grad[lo:hi])
		if err != nil {
			return Update{}, err
		}
		copy(r.dense[lo:hi], DenseUpdate(upd, hi-lo))
	}
	return Update{Values: r.dense}, nil
}

// TestBucketedMomentumCorrectionMatchesComposition: DGC momentum
// correction must also be bitwise-identical to the per-bucket
// GTopKAggregator composition with the same coefficient.
func TestBucketedMomentumCorrectionMatchesComposition(t *testing.T) {
	const p, dim, iters = 4, 300, 6
	const density, mu = 0.05, 0.9
	bounds := []int{0, 90, 170, 300}

	ref := runAggStream(t, p, dim, iters, func(c *collective.Comm) (Aggregator, error) {
		r, err := newPerBucketReference(c, bounds, density)
		if err != nil {
			return nil, err
		}
		for _, agg := range r.aggs {
			agg.SetMomentumCorrection(mu)
		}
		return r, nil
	})
	got := runAggStream(t, p, dim, iters, func(c *collective.Comm) (Aggregator, error) {
		a, err := NewBucketedAggregator(c, bounds, density)
		if err != nil {
			return nil, err
		}
		a.SetMomentumCorrection(mu)
		return a, nil
	})
	requireBitwiseEqual(t, ref, got, "bucketed momentum correction vs composition")
}

// TestBucketedStreamedMatchesSerial: handing buckets to the pipeline
// mid-backward (in reverse order, in layer-sized fragments) must produce
// exactly the bits of the serial Aggregate facade.
func TestBucketedStreamedMatchesSerial(t *testing.T) {
	const p, dim, iters = 4, 300, 5
	const density = 0.05
	bounds := []int{0, 90, 170, 300}
	// Layer fragments deliberately finer than buckets, announced tail
	// first like a backward pass would.
	layers := []int{0, 40, 90, 120, 170, 220, 300}

	serial := runAggStream(t, p, dim, iters, func(c *collective.Comm) (Aggregator, error) {
		return NewBucketedAggregator(c, bounds, density)
	})

	stream := gradStream(dim)
	streamed := make([][]float32, iters)
	spmd(t, p, func(c *collective.Comm) error {
		agg, err := NewBucketedAggregator(c, bounds, density)
		if err != nil {
			return err
		}
		for it := 0; it < iters; it++ {
			grad := stream(c.Rank(), it)
			if err := agg.Begin(context.Background(), grad); err != nil {
				return err
			}
			for l := len(layers) - 2; l >= 0; l-- {
				agg.Ready(layers[l], layers[l+1])
			}
			upd, err := agg.Finish()
			if err != nil {
				return fmt.Errorf("iter %d: %w", it, err)
			}
			if c.Rank() == 0 {
				streamed[it] = DenseUpdate(upd, dim)
			}
		}
		return nil
	})
	requireBitwiseEqual(t, serial, streamed, "streamed vs serial facade")
}

// TestBucketedOverlapClock: with >= 2 buckets on a timed communicator,
// one iteration must advance the parent clock by the slowest bucket (the
// overlapped schedule), strictly less than the serialized sum.
func TestBucketedOverlapClock(t *testing.T) {
	const p, dim = 4, 400
	bounds := []int{0, 200, 400}
	stream := gradStream(dim)
	spmd(t, p, func(c *collective.Comm) error {
		var clock netsim.Clock
		c.WithClock(&clock, netsim.Paper1GbE())
		agg, err := NewBucketedAggregator(c, bounds, 0.05)
		if err != nil {
			return err
		}
		if _, err := agg.Aggregate(context.Background(), stream(c.Rank(), 0)); err != nil {
			return err
		}
		times := agg.LastBucketTimes()
		var sum, slowest time.Duration
		for _, d := range times {
			sum += d
			if d > slowest {
				slowest = d
			}
		}
		if slowest == 0 {
			return fmt.Errorf("no simulated bucket time recorded: %v", times)
		}
		if clock.Now() != slowest {
			return fmt.Errorf("clock %v, want slowest bucket %v", clock.Now(), slowest)
		}
		if clock.Now() >= sum {
			return fmt.Errorf("overlapped time %v not below serialized sum %v", clock.Now(), sum)
		}
		return nil
	})
}

// TestBucketedStatsFoldIntoParent: traffic through the forked
// sub-communicators must surface in the parent's counters.
func TestBucketedStatsFoldIntoParent(t *testing.T) {
	const p, dim = 4, 300
	stream := gradStream(dim)
	spmd(t, p, func(c *collective.Comm) error {
		agg, err := NewBucketedAggregator(c, []int{0, 150, 300}, 0.05)
		if err != nil {
			return err
		}
		if _, err := agg.Aggregate(context.Background(), stream(c.Rank(), 0)); err != nil {
			return err
		}
		st := c.Stats()
		if st.BytesSent == 0 && st.BytesRecv == 0 {
			return fmt.Errorf("no traffic folded into parent stats: %+v", st)
		}
		if st.Rounds == 0 {
			return fmt.Errorf("no rounds folded into parent stats: %+v", st)
		}
		return nil
	})
}

func TestGroupBounds(t *testing.T) {
	layer := []int{0, 10, 30, 60, 100}
	for _, tc := range []struct{ n int }{{1}, {2}, {3}, {10}} {
		got := GroupBounds(layer, tc.n)
		if len(got) < 2 || got[0] != 0 || got[len(got)-1] != 100 {
			t.Fatalf("GroupBounds(n=%d) = %v: does not span [0,100]", tc.n, got)
		}
		if len(got)-1 > tc.n {
			t.Fatalf("GroupBounds(n=%d) = %v: more than %d buckets", tc.n, got, tc.n)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("GroupBounds(n=%d) = %v: not strictly increasing", tc.n, got)
			}
		}
	}
	if got := GroupBounds(layer, 10); len(got) != len(layer) {
		t.Fatalf("GroupBounds with n >= layers should keep every layer: %v", got)
	}
}

// TestTrainerStreamedCluster runs a full streamed training cluster and
// checks replica consistency plus agreement with the serial path.
func TestTrainerStreamedCluster(t *testing.T) {
	const p, dim, steps = 4, 300, 8
	bounds := []int{0, 90, 170, 300}
	layers := []int{0, 40, 90, 120, 170, 220, 300}
	stream := gradStream(dim)

	run := func(streamed bool) [][]float32 {
		t.Helper()
		model := netsim.Paper1GbE()
		results, err := RunCluster(context.Background(), ClusterConfig{
			Workers: p, Steps: steps, Model: &model,
		}, func(rank int, comm *collective.Comm) (*Trainer, error) {
			agg, err := NewBucketedAggregator(comm, bounds, 0.05)
			if err != nil {
				return nil, err
			}
			weights := make([]float32, dim)
			gradFn := func(iter int, w, g []float32) float64 {
				copy(g, stream(rank, iter))
				return 1
			}
			tr, err := NewTrainer(TrainConfig{LR: 0.1}, agg, weights, gradFn)
			if err != nil {
				return nil, err
			}
			if streamed {
				streamFn := func(iter int, w, g []float32, ready func(lo, hi int)) float64 {
					loss := gradFn(iter, w, g)
					for l := len(layers) - 2; l >= 0; l-- {
						ready(layers[l], layers[l+1])
					}
					return loss
				}
				if err := tr.SetStreamGradFn(streamFn); err != nil {
					return nil, err
				}
			}
			return tr, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		weights := make([][]float32, p)
		for r, res := range results {
			weights[r] = res.FinalWeights
		}
		return weights
	}

	serial := run(false)
	streamed := run(true)
	for r := 1; r < p; r++ {
		requireBitwiseEqual(t, [][]float32{streamed[0]}, [][]float32{streamed[r]},
			fmt.Sprintf("streamed replica %d vs 0", r))
	}
	requireBitwiseEqual(t, serial, streamed, "streamed cluster vs serial cluster")
}

// TestTrainerStreamRequiresStreamer ensures SetStreamGradFn rejects
// aggregators without pipeline support.
func TestTrainerStreamRequiresStreamer(t *testing.T) {
	spmd(t, 1, func(c *collective.Comm) error {
		agg := NewDenseAggregator(c, 8)
		tr, err := NewTrainer(TrainConfig{LR: 0.1}, agg, make([]float32, 8),
			func(iter int, w, g []float32) float64 { return 0 })
		if err != nil {
			return err
		}
		if err := tr.SetStreamGradFn(func(int, []float32, []float32, func(int, int)) float64 { return 0 }); err == nil {
			return fmt.Errorf("expected error installing stream fn on dense aggregator")
		}
		return nil
	})
}
