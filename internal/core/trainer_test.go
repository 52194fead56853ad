package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/tensor"
	"gtopkssgd/internal/transport"
)

// quadGrad builds a GradFn for the separable quadratic
// L(w) = 0.5 Σ c_i (w_i - t_i)^2 with per-worker curvature/target noise,
// whose exact mean gradient drives every replica toward t.
func quadGrad(target []float32, noiseSeed uint64) GradFn {
	src := prng.New(noiseSeed)
	noise := make([]float32, len(target))
	for i := range noise {
		noise[i] = float32(src.NormFloat64()) * 0.01
	}
	return func(_ int, weights, grad []float32) float64 {
		var loss float64
		for i := range weights {
			d := weights[i] - target[i] + noise[i]
			grad[i] = d
			loss += 0.5 * float64(d) * float64(d)
		}
		return loss / float64(len(weights))
	}
}

func makeTarget(dim int) []float32 {
	src := prng.New(424242)
	t := make([]float32, dim)
	for i := range t {
		t[i] = float32(src.NormFloat64())
	}
	return t
}

func TestTrainConfigValidate(t *testing.T) {
	good := TrainConfig{LR: 0.1, Momentum: 0.9}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, bad := range []TrainConfig{
		{LR: 0},
		{LR: -1},
		{LR: 0.1, Momentum: 1},
		{LR: 0.1, Momentum: -0.1},
		{LR: 0.1, GradClip: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

func TestNewTrainerRejectsNil(t *testing.T) {
	cfg := TrainConfig{LR: 0.1}
	if _, err := NewTrainer(cfg, nil, make([]float32, 2), nil); err == nil {
		t.Error("nil aggregator/gradfn accepted")
	}
}

func TestClusterDenseConvergesOnQuadratic(t *testing.T) {
	const dim, p, steps = 64, 4, 120
	target := makeTarget(dim)
	results, err := RunCluster(context.Background(), ClusterConfig{Workers: p, Steps: steps},
		func(rank int, comm *collective.Comm) (*Trainer, error) {
			agg := NewDenseAggregator(comm, dim)
			return NewTrainer(TrainConfig{LR: 0.5}, agg, make([]float32, dim),
				quadGrad(target, uint64(rank)))
		})
	if err != nil {
		t.Fatal(err)
	}
	last := results[0].Losses[steps-1]
	first := results[0].Losses[0]
	if last > first/100 {
		t.Fatalf("dense S-SGD did not converge: first %v last %v", first, last)
	}
}

func TestClusterReplicasStayIdentical(t *testing.T) {
	const dim, p, steps = 50, 4, 30
	target := makeTarget(dim)
	for _, algo := range []string{"dense", "topk", "gtopk", "gtopk-naive"} {
		t.Run(algo, func(t *testing.T) {
			results, err := RunCluster(context.Background(), ClusterConfig{Workers: p, Steps: steps},
				func(rank int, comm *collective.Comm) (*Trainer, error) {
					agg, err := buildAggregator(algo, comm, dim, 5)
					if err != nil {
						return nil, err
					}
					return NewTrainer(TrainConfig{LR: 0.3, Momentum: 0.9}, agg,
						make([]float32, dim), quadGrad(target, uint64(rank)))
				})
			if err != nil {
				t.Fatal(err)
			}
			for r := 1; r < p; r++ {
				for i := range results[0].FinalWeights {
					if results[r].FinalWeights[i] != results[0].FinalWeights[i] {
						t.Fatalf("rank %d weight %d diverged: %v vs %v",
							r, i, results[r].FinalWeights[i], results[0].FinalWeights[i])
					}
				}
			}
		})
	}
}

func buildAggregator(algo string, comm *collective.Comm, dim, k int) (Aggregator, error) {
	switch algo {
	case "dense":
		return NewDenseAggregator(comm, dim), nil
	case "topk":
		return NewTopKAggregator(comm, dim, k)
	case "gtopk":
		return NewGTopKAggregator(comm, dim, k)
	case "gtopk-naive":
		return NewNaiveGTopKAggregator(comm, dim, k)
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
}

func TestClusterGTopKTracksDense(t *testing.T) {
	// gTop-k with modest sparsity must reach a loss in the same regime as
	// dense on the quadratic (the paper's convergence claim, Fig. 5).
	const dim, p, steps = 64, 4, 300
	target := makeTarget(dim)
	finals := make(map[string]float64)
	for _, algo := range []string{"dense", "gtopk"} {
		results, err := RunCluster(context.Background(), ClusterConfig{Workers: p, Steps: steps},
			func(rank int, comm *collective.Comm) (*Trainer, error) {
				agg, err := buildAggregator(algo, comm, dim, 8)
				if err != nil {
					return nil, err
				}
				return NewTrainer(TrainConfig{LR: 0.3}, agg, make([]float32, dim),
					quadGrad(target, uint64(rank)))
			})
		if err != nil {
			t.Fatal(err)
		}
		finals[algo] = results[0].Losses[steps-1]
	}
	if finals["gtopk"] > 50*finals["dense"]+1e-3 {
		t.Fatalf("gtopk final loss %v too far from dense %v", finals["gtopk"], finals["dense"])
	}
}

func TestClusterSimulatedTimeOrdering(t *testing.T) {
	// On the paper's 1GbE model with a large-ish model, dense must charge
	// more simulated time per step than gtopk (the premise of Fig. 10).
	const dim, p, steps = 20000, 4, 3
	target := makeTarget(dim)
	model := netsim.Paper1GbE()
	times := make(map[string]int64)
	for _, algo := range []string{"dense", "gtopk"} {
		results, err := RunCluster(context.Background(),
			ClusterConfig{Workers: p, Steps: steps, Model: &model},
			func(rank int, comm *collective.Comm) (*Trainer, error) {
				agg, err := buildAggregator(algo, comm, dim, DensityToK(dim, 0.001))
				if err != nil {
					return nil, err
				}
				return NewTrainer(TrainConfig{LR: 0.1}, agg, make([]float32, dim),
					quadGrad(target, uint64(rank)))
			})
		if err != nil {
			t.Fatal(err)
		}
		times[algo] = int64(results[0].SimulatedTime)
	}
	if times["gtopk"] >= times["dense"] {
		t.Fatalf("simulated comm time: gtopk %v >= dense %v", times["gtopk"], times["dense"])
	}
}

func TestClusterErrorPropagation(t *testing.T) {
	_, err := RunCluster(context.Background(), ClusterConfig{Workers: 2, Steps: 1},
		func(rank int, comm *collective.Comm) (*Trainer, error) {
			if rank == 1 {
				return nil, fmt.Errorf("boom")
			}
			agg := NewDenseAggregator(comm, 4)
			return NewTrainer(TrainConfig{LR: 0.1}, agg, make([]float32, 4),
				func(_ int, _, grad []float32) float64 { return 0 })
		})
	if err == nil {
		t.Fatal("setup failure not propagated")
	}
}

func TestClusterRejectsBadConfig(t *testing.T) {
	setup := func(rank int, comm *collective.Comm) (*Trainer, error) { return nil, nil }
	if _, err := RunCluster(context.Background(), ClusterConfig{Workers: 0, Steps: 1}, setup); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := RunCluster(context.Background(), ClusterConfig{Workers: 2, Steps: -1}, setup); err == nil {
		t.Error("negative steps accepted")
	}
}

func TestClusterOverTCPFabricMatchesInProc(t *testing.T) {
	const dim, p, steps = 32, 4, 10
	target := makeTarget(dim)
	setup := func(rank int, comm *collective.Comm) (*Trainer, error) {
		agg, err := NewGTopKAggregator(comm, dim, 4)
		if err != nil {
			return nil, err
		}
		return NewTrainer(TrainConfig{LR: 0.2}, agg, make([]float32, dim),
			quadGrad(target, uint64(rank)))
	}
	inproc, err := RunCluster(context.Background(), ClusterConfig{Workers: p, Steps: steps}, setup)
	if err != nil {
		t.Fatal(err)
	}
	tcpFab, err := transport.NewTCP(p)
	if err != nil {
		t.Fatal(err)
	}
	defer tcpFab.Close()
	tcp, err := RunCluster(context.Background(),
		ClusterConfig{Workers: p, Steps: steps, Fabric: tcpFab}, setup)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inproc[0].FinalWeights {
		if inproc[0].FinalWeights[i] != tcp[0].FinalWeights[i] {
			t.Fatalf("weight %d differs across fabrics: %v vs %v",
				i, inproc[0].FinalWeights[i], tcp[0].FinalWeights[i])
		}
	}
}

func TestMomentumMatchesHandComputed(t *testing.T) {
	// Single worker, fixed gradient 1.0: with mu=0.5, lr=0.1 the velocity
	// sequence is 1, 1.5, 1.75 and weights decrease accordingly.
	f, err := transport.NewInProc(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	agg := NewDenseAggregator(collective.New(f.Conn(0)), 1)
	tr, err := NewTrainer(TrainConfig{LR: 0.1, Momentum: 0.5}, agg, []float32{0},
		func(_ int, _, grad []float32) float64 { grad[0] = 1; return 0 })
	if err != nil {
		t.Fatal(err)
	}
	wantW := []float64{-0.1, -0.25, -0.425}
	for i, want := range wantW {
		if _, err := tr.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := float64(tr.Weights()[0]); math.Abs(got-want) > 1e-6 {
			t.Fatalf("step %d: w = %v, want %v", i, got, want)
		}
	}
	if tr.Iter() != 3 {
		t.Fatalf("Iter = %d, want 3", tr.Iter())
	}
}

func TestGradClip(t *testing.T) {
	f, err := transport.NewInProc(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	agg := NewDenseAggregator(collective.New(f.Conn(0)), 1)
	tr, err := NewTrainer(TrainConfig{LR: 1, GradClip: 0.5}, agg, []float32{0},
		func(_ int, _, grad []float32) float64 { grad[0] = 100; return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := tr.Weights()[0]; got != -0.5 {
		t.Fatalf("clipped update moved weight to %v, want -0.5", got)
	}
}

// fixedAggregator hands the trainer a fresh copy of the same update on
// every step.
type fixedAggregator struct{ u Update }

func (a *fixedAggregator) Name() string { return "fixed" }

func (a *fixedAggregator) Aggregate(context.Context, []float32) (Update, error) {
	return Update{At: a.u.At, Values: append([]float32(nil), a.u.Values...)}, nil
}

// TestTrainerRefusesCompactUpdateUnderItsMomentum: trainer momentum runs
// over dense updates only. A compact update from an aggregator the
// trainer could not lend its velocity to — one outside this package, or
// a wrapper hiding a sparse aggregator of this package — fails the step
// with the aggregator's name and leaves weights and velocity untouched;
// the same sparse aggregator built in directly borrows the velocity and
// steps.
func TestTrainerRefusesCompactUpdateUnderItsMomentum(t *testing.T) {
	const dim = 6
	c := newSingleRankComm(t)
	inner, err := NewGTopKAggregator(c, dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	grad := func(_ int, _, g []float32) float64 {
		for i := range g {
			g[i] = float32(i + 1)
		}
		return 0
	}
	for name, agg := range map[string]Aggregator{
		"fixed": &fixedAggregator{Update{At: []int32{1, 3}, Values: []float32{2, -1}}},
		"gtopk": struct{ Aggregator }{inner},
	} {
		tr, err := NewTrainer(TrainConfig{LR: 0.1, Momentum: 0.9}, agg, make([]float32, dim), grad)
		if err != nil {
			t.Fatal(err)
		}
		_, err = tr.Step(context.Background())
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s: step error %v, want a refusal naming the aggregator", name, err)
		}
		if tensor.L2Norm(tr.Weights()) != 0 || tensor.L2Norm(tr.Velocity()) != 0 {
			t.Fatalf("%s: a refused step moved weights %v or velocity %v", name, tr.Weights(), tr.Velocity())
		}
	}
	tr, err := NewTrainer(TrainConfig{LR: 0.1, Momentum: 0.9}, inner, make([]float32, dim), grad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(context.Background()); err != nil {
		t.Fatalf("the sparse aggregator itself: %v", err)
	}
	if tr.Velocity()[dim-1] != dim {
		t.Fatalf("velocity %v after one step: the select did not accumulate the gradient into it", tr.Velocity())
	}
}

func TestAggregatorNames(t *testing.T) {
	f, err := transport.NewInProc(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	comm := collective.New(f.Conn(0))
	if got := NewDenseAggregator(comm, 4).Name(); got != "dense" {
		t.Errorf("dense name = %q", got)
	}
	tk, err := NewTopKAggregator(comm, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tk.Name() != "topk" {
		t.Errorf("topk name = %q", tk.Name())
	}
	gt, err := NewGTopKAggregator(comm, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gt.Name() != "gtopk" {
		t.Errorf("gtopk name = %q", gt.Name())
	}
	ng, err := NewNaiveGTopKAggregator(comm, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ng.Name() != "gtopk-naive" {
		t.Errorf("naive name = %q", ng.Name())
	}
}

func TestAggregatorKValidation(t *testing.T) {
	f, err := transport.NewInProc(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	comm := collective.New(f.Conn(0))
	if _, err := NewTopKAggregator(comm, 4, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewGTopKAggregator(comm, 4, 5); err == nil {
		t.Error("k>dim accepted")
	}
	gt, err := NewGTopKAggregator(comm, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := gt.SetK(0); err == nil {
		t.Error("SetK(0) accepted")
	}
	if err := gt.SetK(3); err != nil {
		t.Errorf("SetK(3) rejected: %v", err)
	}
}

// TestRestoreWithoutMomentum pins the checkpoint face of a trainer that
// applies no momentum: it holds no velocity, resumes from an empty one
// or from the dim-length zeros such a trainer used to save, and refuses
// a velocity it could only drop — non-zero or of the wrong length —
// instead of resuming wrongly. A momentum trainer still wants dim
// entries.
func TestRestoreWithoutMomentum(t *testing.T) {
	const dim = 8
	c := newSingleRankComm(t)
	agg, err := NewGTopKAggregator(c, dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(TrainConfig{LR: 0.1}, agg, make([]float32, dim), quadGrad(makeTarget(dim), 1))
	if err != nil {
		t.Fatal(err)
	}
	if v := tr.Velocity(); len(v) != 0 {
		t.Fatalf("a trainer without momentum holds a %d-entry velocity", len(v))
	}
	zeros := make([]float32, dim)
	zeros[3] = float32(math.Copysign(0, -1))
	for i, ok := range [][]float32{nil, {}, zeros} {
		if err := tr.Restore(10+i, ok); err != nil {
			t.Fatalf("restore from a %d-entry zero velocity: %v", len(ok), err)
		}
		if tr.Iter() != 10+i || len(tr.Velocity()) != 0 {
			t.Fatalf("after restore: iter %d, %d-entry velocity", tr.Iter(), len(tr.Velocity()))
		}
	}
	nonZero := make([]float32, dim)
	nonZero[dim-1] = 1e-30
	notANumber := make([]float32, dim)
	notANumber[0] = float32(math.NaN())
	for name, bad := range map[string][]float32{
		"non-zero": nonZero, "NaN": notANumber, "short zeros": make([]float32, dim-1), "long zeros": make([]float32, dim+1),
	} {
		if err := tr.Restore(20, bad); err == nil {
			t.Fatalf("restore from a %s velocity accepted", name)
		}
		if tr.Iter() != 12 {
			t.Fatalf("a rejected %s restore moved the iteration to %d", name, tr.Iter())
		}
	}

	mom, err := NewTrainer(TrainConfig{LR: 0.1, Momentum: 0.9}, NewDenseAggregator(c, dim), make([]float32, dim), quadGrad(makeTarget(dim), 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := mom.Restore(1, nil); err == nil {
		t.Fatal("a momentum trainer restored from an empty velocity")
	}
	if err := mom.Restore(1, nonZero); err != nil || mom.Velocity()[dim-1] != 1e-30 {
		t.Fatalf("momentum trainer restore: %v, velocity %v", err, mom.Velocity())
	}
}
