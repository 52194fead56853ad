// Benchmarks regenerating the paper's tables and figures, one benchmark
// per artifact. Run all of them with:
//
//	go test -bench=. -benchmem
//
// Analytic artifacts (Tables I/IV, Figs 8-11) benchmark the cost-model
// evaluation plus, where meaningful, the REAL collective execution whose
// simulated-time accounting backs the numbers. Training artifacts
// (Figs 1, 5-7, 12-14) benchmark one full distributed S-SGD iteration of
// the workload in question; full curves are regenerated by
// cmd/gtopk-bench (see "Results and how to regenerate them" in README.md).
package gtopkssgd

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"gtopkssgd/internal/algo"
	"gtopkssgd/internal/bench"
	"gtopkssgd/internal/checkpoint"
	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/data"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/nn/models"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/quant"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// BenchmarkTable1CostModels evaluates the three Table I time-cost models
// across the paper's worker range.
func BenchmarkTable1CostModels(b *testing.B) {
	model := netsim.Paper1GbE()
	const m = 25_000_000
	k := m / 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range []int{4, 8, 16, 32, 64, 128} {
			_ = model.DenseAllReduce(p, m)
			_ = model.TopKAllReduce(p, k)
			_ = model.GTopKAllReduce(p, k)
		}
	}
}

// BenchmarkFig8PointToPoint samples the jittered link used for the
// Fig. 8 "measured" series.
func BenchmarkFig8PointToPoint(b *testing.B) {
	link := netsim.NewLink(netsim.Paper1GbE(), 0.05, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = link.Transfer(1_000_000)
	}
}

// BenchmarkFig9AllReduceScaling executes Algorithm 1's collective
// (core.TopKUnionInto) and gTopKAllReduce (core.GTopKInto) for real over an in-process cluster at the worker
// counts of Fig. 9's x-axis (m scaled to 1e5 so a laptop iteration stays
// sub-second; the simulated clock, not wall time, carries the 1GbE
// numbers).
func BenchmarkFig9AllReduceScaling(b *testing.B) {
	const m = 100_000
	k := core.DensityToK(m, 0.001)
	for _, p := range []int{4, 8, 16} {
		vecs := benchWorkerVectors(p, m, k)
		for _, algo := range []string{"topk", "gtopk"} {
			b.Run(fmt.Sprintf("%s/P=%d", algo, p), func(b *testing.B) {
				fab, err := transport.NewInProc(p)
				if err != nil {
					b.Fatal(err)
				}
				defer fab.Close()
				comms := make([]*collective.Comm, p)
				for r := range comms {
					comms[r] = collective.New(fab.Conn(r))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runCollective(b, comms, vecs, algo, k)
				}
			})
		}
	}
}

func benchWorkerVectors(p, m, k int) []*sparse.Vector {
	vecs := make([]*sparse.Vector, p)
	for r := 0; r < p; r++ {
		src := prng.New(uint64(r + 1))
		g := make([]float32, m)
		for i := range g {
			g[i] = float32(src.NormFloat64())
		}
		vecs[r] = sparse.TopK(g, k)
	}
	return vecs
}

func runCollective(b *testing.B, comms []*collective.Comm, vecs []*sparse.Vector, algo string, k int) {
	b.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(comms))
	for r := range comms {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var err error
			if algo == "topk" {
				err = core.TopKUnionInto(context.Background(), comms[rank], vecs[rank].Clone(), &sparse.Vector{})
			} else {
				err = core.GTopKInto(context.Background(), comms[rank], nil, vecs[rank].Clone(), k, &sparse.Vector{})
			}
			errs[rank] = err
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10ScalingEfficiency regenerates the full Fig. 10 grid
// (4 models x 4 worker counts x 3 algorithms) from the calibrated
// iteration model.
func BenchmarkFig10ScalingEfficiency(b *testing.B) {
	model := netsim.Paper1GbE()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = bench.Fig10(model)
	}
}

// BenchmarkTable4Throughput regenerates Table IV.
func BenchmarkTable4Throughput(b *testing.B) {
	model := netsim.Paper1GbE()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = bench.Table4(model)
	}
}

// BenchmarkFig11Breakdown regenerates the Fig. 11 time breakdown.
func BenchmarkFig11Breakdown(b *testing.B) {
	model := netsim.Paper1GbE()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = bench.Fig11(model)
	}
}

// trainingStepBench benchmarks one distributed S-SGD iteration of the
// named model/algorithm on 4 workers — the unit of work behind the
// convergence figures.
func trainingStepBench(b *testing.B, modelName, algoName string, density float64) {
	b.Helper()
	const workers, batch = 4, 8
	spec := bench.TrainSpec{
		Spec:  algo.Spec{Algo: algoName, Density: density, ItersPerEpoch: 1, Seed: 1},
		Model: modelName, Workers: workers, Batch: batch,
		Epochs: 1, LR: 0.05, Momentum: 0.9,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTraining(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1NaiveGTopK benchmarks the Fig. 1 workload: ResNet-20 with
// the naive (AllGather) global top-k.
func BenchmarkFig1NaiveGTopK(b *testing.B) {
	trainingStepBench(b, "resnet20sim", "gtopk-naive", 0.001)
}

// BenchmarkFig5Convergence benchmarks the Fig. 5 workloads (VGG-16 and
// ResNet-20, dense vs gTop-k).
func BenchmarkFig5Convergence(b *testing.B) {
	for _, model := range []string{"vgg16sim", "resnet20sim"} {
		for _, algo := range []string{"dense", "gtopk"} {
			b.Run(model+"/"+algo, func(b *testing.B) {
				trainingStepBench(b, model, algo, 0.001)
			})
		}
	}
}

// BenchmarkFig6Convergence benchmarks the Fig. 6 workloads (AlexNet and
// ResNet-50 analogues).
func BenchmarkFig6Convergence(b *testing.B) {
	for _, model := range []string{"alexnetsim", "resnet50sim"} {
		b.Run(model, func(b *testing.B) {
			trainingStepBench(b, model, "gtopk", 0.001)
		})
	}
}

// BenchmarkFig7LSTM benchmarks the Fig. 7 workload: the LSTM language
// model with gTop-k at the paper's rho=0.005.
func BenchmarkFig7LSTM(b *testing.B) {
	trainingStepBench(b, "lstm", "gtopk", 0.005)
}

// BenchmarkFig12DensitySweep benchmarks local top-k selection at the
// Fig. 12 densities (the dominant per-density cost).
func BenchmarkFig12DensitySweep(b *testing.B) {
	const m = 1 << 20
	src := prng.New(3)
	g := make([]float32, m)
	for i := range g {
		g[i] = float32(src.NormFloat64())
	}
	for _, rho := range []float64{0.001, 0.0005, 0.0001} {
		k := core.DensityToK(m, rho)
		b.Run(fmt.Sprintf("rho=%g", rho), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = sparse.TopK(g, k)
			}
		})
	}
}

// BenchmarkFig13BatchSizes benchmarks the Fig. 13/14 contrast: one
// iteration at small and large per-worker batch sizes.
func BenchmarkFig13BatchSizes(b *testing.B) {
	for _, batch := range []int{4, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			spec := bench.TrainSpec{
				Spec:  algo.Spec{Algo: "gtopk", Density: 0.001, ItersPerEpoch: 1, Seed: 1},
				Model: "resnet20sim", Workers: 4, Batch: batch,
				Epochs: 1, LR: 0.05, Momentum: 0.9,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunTraining(context.Background(), spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuantizers benchmarks the related-work compressors on a
// 1M-element gradient (paper Section VI baselines).
func BenchmarkQuantizers(b *testing.B) {
	const m = 1 << 20
	src := prng.New(7)
	g := make([]float32, m)
	for i := range g {
		g[i] = float32(src.NormFloat64())
	}
	b.Run("signs-pack", func(b *testing.B) {
		var packed []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			packed = quant.PackSigns(packed, g)
		}
	})
	b.Run("ternary", func(b *testing.B) {
		rng := prng.New(1)
		var frame []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame = quant.Ternary(frame, g, rng)
		}
	})
}

// BenchmarkCheckpoint measures snapshot serialisation of a
// ResNet-50-sim-sized training state.
func BenchmarkCheckpoint(b *testing.B) {
	const dim = 100_000
	src := prng.New(9)
	vec := func() []float32 {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(src.NormFloat64())
		}
		return v
	}
	s := &checkpoint.State{Iter: 1, Weights: vec(), Velocity: vec(), Residual: vec()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := checkpoint.Save(&buf, s); err != nil {
			b.Fatal(err)
		}
		if _, err := checkpoint.Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalAccuracy benchmarks the held-out evaluation used by
// Figs 13/14.
func BenchmarkEvalAccuracy(b *testing.B) {
	ds, err := data.NewImages(1, 10, 3, 8, 8, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	cls := models.ResNet20Sim()
	cls.Net.Init(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = models.EvalAccuracy(cls, ds, 1, 32)
	}
}
