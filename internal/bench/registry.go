package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"gtopkssgd/internal/metrics"
	"gtopkssgd/internal/netsim"
)

// Options tunes experiment execution.
type Options struct {
	// Quick shrinks training-based experiments to smoke-test size
	// (seconds instead of minutes). Analytic experiments are unaffected.
	Quick bool
	// Seed drives all randomness; the default 42 reproduces the committed
	// BENCH_gtopk.json and the README's results ledger.
	Seed uint64
	// JSONPath overrides where the artifact experiments (codec-bytes,
	// hierarchy, quorum, quorum_hier) write their sections (default
	// BENCH_gtopk.json in the working directory — run from the repo root
	// to refresh the committed artifact). A Quick or HierGroup run writes
	// only when this is set (see updateArtifact).
	JSONPath string
	// HierGroup, when > 1, overrides the hierarchy experiment's group
	// sweep with just {HierGroup}.
	HierGroup int
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// scale returns quick-profile or full-profile epochs/iterations.
func (o Options) scale(fullEpochs, fullIters int) (epochs, iters int) {
	if o.Quick {
		e := fullEpochs / 4
		if e < 2 {
			e = 2
		}
		i := fullIters / 4
		if i < 4 {
			i = 4
		}
		return e, i
	}
	return fullEpochs, fullIters
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID          string
	Description string
	Run         func(ctx context.Context, opt Options) (string, error)
}

// Experiments returns all registered experiments sorted by ID.
func Experiments() []Experiment {
	exps := []Experiment{
		{
			ID:          "table1",
			Description: "Table I: communication complexity and time-cost models",
			Run: func(_ context.Context, _ Options) (string, error) {
				return Table1(netsim.Paper1GbE()), nil
			},
		},
		{
			ID:          "fig8",
			Description: "Fig 8: point-to-point time vs message size (alpha-beta fit)",
			Run: func(_ context.Context, opt Options) (string, error) {
				return Fig8(netsim.Paper1GbE(), 5, opt.seed()), nil
			},
		},
		{
			ID:          "fig9",
			Description: "Fig 9: TopKAllReduce vs gTopKAllReduce time (workers / model size)",
			Run: func(_ context.Context, _ Options) (string, error) {
				return Fig9(netsim.Paper1GbE()), nil
			},
		},
		{
			ID:          "fig10",
			Description: "Fig 10: scaling efficiency of dense/Top-k/gTop-k S-SGD",
			Run: func(_ context.Context, _ Options) (string, error) {
				return Fig10(netsim.Paper1GbE()), nil
			},
		},
		{
			ID:          "table4",
			Description: "Table IV: training throughput on 32 workers with speedups",
			Run: func(_ context.Context, _ Options) (string, error) {
				return Table4(netsim.Paper1GbE()), nil
			},
		},
		{
			ID:          "fig11",
			Description: "Fig 11: compute/compression/communication breakdown",
			Run: func(_ context.Context, _ Options) (string, error) {
				return Fig11(netsim.Paper1GbE()), nil
			},
		},
		{ID: "fig1", Description: "Fig 1: 'select k from kP' convergence vs dense (ResNet-20)", Run: fig1},
		{ID: "fig5", Description: "Fig 5: VGG-16 and ResNet-20 convergence, dense vs gTop-k, P=4", Run: fig5},
		{ID: "fig6", Description: "Fig 6: AlexNet and ResNet-50 convergence, dense vs gTop-k, P=4", Run: fig6},
		{ID: "fig7", Description: "Fig 7: LSTM-PTB convergence, rho=0.005, P=4", Run: fig7},
		{ID: "fig12", Description: "Fig 12: convergence sensitivity to density rho", Run: fig12},
		{ID: "fig13", Description: "Fig 13/14: Top-k vs gTop-k accuracy vs mini-batch size", Run: fig13},
		{
			ID:          "ablation-tree",
			Description: "Ablation: tree gTop-k vs exact (AllGather) global top-k during training",
			Run:         ablationTree,
		},
		{
			ID:          "ablation-residual",
			Description: "Ablation: gTop-k with and without residual put-back",
			Run:         ablationResidual,
		},
		{
			ID:          "ablation-layerwise",
			Description: "Extension: layer-wise gTop-k sparsification (paper future work)",
			Run:         ablationLayerwise,
		},
		{
			ID:          "ps-mode",
			Description: "Extension: parameter-server gTop-k vs tree (cost + convergence)",
			Run:         psMode,
		},
		{
			ID:          "ablation-bandwidth",
			Description: "Ablation: gTop-k advantage on 1GbE vs 10GbE",
			Run: func(_ context.Context, _ Options) (string, error) {
				return AblationBandwidth(), nil
			},
		},
		{
			ID:          "ablation-quant",
			Description: "Baseline family: gTop-k vs signSGD/TernGrad/quantized-gTop-k (paper Sec. VI)",
			Run:         ablationQuant,
		},
		{
			ID:          "ablation-pipeline",
			Description: "Extension: comm/compute pipelining headroom (paper future work)",
			Run: func(_ context.Context, _ Options) (string, error) {
				return AblationPipeline(netsim.Paper1GbE()), nil
			},
		},
		{
			ID:          "bucketed-overlap",
			Description: "Extension: bucketed gTop-k pipeline, overlapped vs serialized (analytic WFBP schedule)",
			Run: func(_ context.Context, _ Options) (string, error) {
				return BucketedOverlap(netsim.Paper1GbE()), nil
			},
		},
		{
			ID:          "bucketed-convergence",
			Description: "Extension: bucketed overlapped gTop-k convergence vs single-bucket gTop-k",
			Run:         bucketedConvergence,
		},
		{
			ID:          "codec-bytes",
			Description: "Wire bytes per round for every codec (v1, v3, v3 x value codec); counts; updates BENCH_gtopk.json",
			Run:         codecBytes,
		},
		{
			ID:          "hierarchy",
			Description: "Extension: two-level hierarchical gTop-k vs flat tree crossover sweep; modelled; updates BENCH_gtopk.json",
			Run:         artifactExperiment(Hierarchy, func(a *artifact, s *HierarchySection) { a.Hierarchy = s }),
		},
		{
			ID:          "quorum",
			Description: "Extension: straggler-tolerant quorum gTop-k under a WAN straggler; modelled; updates BENCH_gtopk.json",
			Run:         artifactExperiment(Quorum, func(a *artifact, s *QuorumSection) { a.Quorum = s }),
		},
		{
			ID:          "quorum_hier",
			Description: "Extension: hierarchical quorum with per-level deadline budgets at P=64; modelled; updates BENCH_gtopk.json",
			Run:         artifactExperiment(QuorumHier, func(a *artifact, s *QuorumHierSection) { a.QuorumHier = s }),
		},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (try: %s)", id, strings.Join(ids(), ", "))
}

// ids returns every experiment ID in sorted order — the listing the
// unknown -exp error prints must not depend on registration order.
func ids() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

func fig1(ctx context.Context, opt Options) (string, error) {
	epochs, iters := opt.scale(16, 20)
	base := TrainSpec{
		Model: "resnet20sim", Workers: 4, Batch: 16,
		Epochs: epochs, ItersPerEpoch: iters,
		Density: 0.001, LR: 0.02, Momentum: 0.9, GradClip: 1, Seed: opt.seed(),
	}
	curves, err := runAlgos(ctx, base, "dense", "gtopk-naive")
	if err != nil {
		return "", err
	}
	return CurveTable("Fig 1: ResNet-20, P=4, select k from kxP (naive gTop-k) vs dense", curves), nil
}

func fig5(ctx context.Context, opt Options) (string, error) {
	epochs, iters := opt.scale(16, 20)
	var out []string
	for _, model := range []string{"vgg16sim", "resnet20sim"} {
		base := TrainSpec{
			Model: model, Workers: 4, Batch: 16,
			Epochs: epochs, ItersPerEpoch: iters,
			Density: 0.001, WarmupDensities: PaperWarmup(),
			LR: modelLR(model), Momentum: 0.9, GradClip: 1, Seed: opt.seed(),
		}
		curves, err := runAlgos(ctx, base, "dense", "gtopk")
		if err != nil {
			return "", err
		}
		out = append(out, CurveTable(
			fmt.Sprintf("Fig 5: %s, P=4, dense vs gTop-k (warmup + rho=0.001)", model), curves))
	}
	return strings.Join(out, "\n"), nil
}

func fig6(ctx context.Context, opt Options) (string, error) {
	epochs, iters := opt.scale(12, 16)
	var out []string
	for _, model := range []string{"alexnetsim", "resnet50sim"} {
		base := TrainSpec{
			Model: model, Workers: 4, Batch: 8,
			Epochs: epochs, ItersPerEpoch: iters,
			Density: 0.001, WarmupDensities: PaperWarmup(),
			LR: 0.02, Momentum: 0.9, GradClip: 1, Seed: opt.seed(),
		}
		curves, err := runAlgos(ctx, base, "dense", "gtopk")
		if err != nil {
			return "", err
		}
		out = append(out, CurveTable(
			fmt.Sprintf("Fig 6: %s, P=4, dense vs gTop-k (warmup + rho=0.001)", model), curves))
	}
	return strings.Join(out, "\n"), nil
}

func fig7(ctx context.Context, opt Options) (string, error) {
	epochs, iters := opt.scale(12, 16)
	base := TrainSpec{
		Model: "lstm", Workers: 4, Batch: 8,
		Epochs: epochs, ItersPerEpoch: iters,
		Density: 0.005, LR: 1.0, GradClip: 0.25, Seed: opt.seed(),
	}
	curves, err := runAlgos(ctx, base, "dense", "gtopk")
	if err != nil {
		return "", err
	}
	return CurveTable("Fig 7: LSTM-PTB, P=4, rho=0.005, dense vs gTop-k", curves), nil
}

func fig12(ctx context.Context, opt Options) (string, error) {
	epochs, iters := opt.scale(16, 20)
	var out []string
	for _, model := range []string{"vgg16sim", "resnet20sim"} {
		var curves []*TrainCurve
		for _, rho := range []float64{0.001, 0.0005, 0.0001} {
			spec := TrainSpec{
				Model: model, Workers: 4, Batch: 16,
				Epochs: epochs, ItersPerEpoch: iters,
				Density: rho, Algo: "gtopk",
				// Very low densities defer coordinates for thousands of
				// steps in the residual; the effective step grows with the
				// staleness, so fig12 trains with a smaller LR plus the
				// DGC-style gradient clipping the paper cites [12].
				LR: modelLR(model) / 2, Momentum: 0.9, GradClip: 1, Seed: opt.seed(),
			}
			curve, err := RunTraining(ctx, spec)
			if err != nil {
				return "", err
			}
			curve.Spec.Algo = fmt.Sprintf("rho=%g", rho)
			curves = append(curves, curve)
		}
		out = append(out, CurveTable(
			fmt.Sprintf("Fig 12: %s, P=4, gTop-k under different densities", model), curves))
	}
	return strings.Join(out, "\n"), nil
}

func fig13(ctx context.Context, opt Options) (string, error) {
	// Scaled from the paper's P=32 / B in {128, 1024, 4096} to P=8 /
	// per-worker batch in {4, 32}: the contrast of interest is the number
	// of weight updates per epoch.
	epochs, iters := opt.scale(12, 16)
	tb := metrics.NewTable("model", "batch/worker", "algo", "final loss", "final accuracy")
	for _, model := range []string{"resnet20sim", "vgg16sim"} {
		for _, batch := range []int{4, 32} {
			for _, algo := range []string{"topk", "gtopk"} {
				spec := TrainSpec{
					Model: model, Workers: 8, Batch: batch,
					Epochs: epochs, ItersPerEpoch: iters,
					Density: 0.001, Algo: algo,
					LR: modelLR(model), Momentum: 0.9, GradClip: 1, Seed: opt.seed(),
					EvalBatches: 4,
				}
				curve, err := RunTraining(ctx, spec)
				if err != nil {
					return "", err
				}
				acc := ""
				if len(curve.EpochAcc) > 0 {
					acc = fmt.Sprintf("%.3f", curve.EpochAcc[len(curve.EpochAcc)-1])
				}
				tb.AddRow(model, fmt.Sprintf("%d", batch), algo,
					fmt.Sprintf("%.4f", curve.EpochLoss[len(curve.EpochLoss)-1]), acc)
			}
		}
	}
	return "Fig 13/14: Top-k vs gTop-k across mini-batch sizes (P=8)\n\n" + tb.String(), nil
}

func ablationTree(ctx context.Context, opt Options) (string, error) {
	epochs, iters := opt.scale(12, 16)
	base := TrainSpec{
		Model: "resnet20sim", Workers: 4, Batch: 16,
		Epochs: epochs, ItersPerEpoch: iters,
		Density: 0.001, LR: 0.02, Momentum: 0.9, GradClip: 1, Seed: opt.seed(),
	}
	curves, err := runAlgos(ctx, base, "gtopk", "gtopk-naive")
	if err != nil {
		return "", err
	}
	note := "\nNote: the tree computes a greedy approximation of the exact global\n" +
		"top-k (coordinates dropped at inner merge levels cannot resurface);\n" +
		"matching loss curves show the approximation is benign.\n"
	return CurveTable("Ablation: tree gTop-k vs exact global top-k (ResNet-20, P=4)", curves) + note, nil
}

func ablationResidual(ctx context.Context, opt Options) (string, error) {
	epochs, iters := opt.scale(12, 16)
	var curves []*TrainCurve
	for _, putBack := range []bool{true, false} {
		spec := TrainSpec{
			Model: "resnet20sim", Workers: 4, Batch: 16,
			Epochs: epochs, ItersPerEpoch: iters,
			Density: 0.001, Algo: "gtopk",
			LR: 0.02, Momentum: 0.9, GradClip: 1, Seed: opt.seed(),
		}
		spec.DisablePutBack = !putBack
		curve, err := RunTraining(ctx, spec)
		if err != nil {
			return "", err
		}
		if putBack {
			curve.Spec.Algo = "with put-back"
		} else {
			curve.Spec.Algo = "without put-back"
		}
		curves = append(curves, curve)
	}
	return CurveTable("Ablation: residual put-back of globally-dropped values (Alg. 4 line 10)", curves), nil
}

func ablationQuant(ctx context.Context, opt Options) (string, error) {
	epochs, iters := opt.scale(12, 16)
	base := TrainSpec{
		Model: "mlp", Workers: 4, Batch: 16,
		Epochs: epochs, ItersPerEpoch: iters,
		Density: 0.01, LR: 0.05, Momentum: 0.9, GradClip: 1, Seed: opt.seed(),
	}
	curves, err := runAlgos(ctx, base, "dense", "gtopk", "gtopk-quant8", "terngrad")
	if err != nil {
		return "", err
	}
	// signSGD's fixed-magnitude steps need a much smaller LR and no
	// momentum to avoid oscillating around the optimum.
	signSpec := base
	signSpec.Algo = "signsgd"
	signSpec.LR, signSpec.Momentum = 0.005, 0
	signCurve, err := RunTraining(ctx, signSpec)
	if err != nil {
		return "", err
	}
	curves = append(curves, signCurve)
	note := "\nCompression per iteration (m parameters, rho=0.01):\n" +
		"  dense          4m bytes          (1x)\n" +
		"  terngrad       ~m/4 bytes + scale (~16x; caps at 32x for 1-bit)\n" +
		"  signsgd        m/8 bytes          (32x, the quantization ceiling)\n" +
		"  gtopk          8*rho*m bytes      (~50x at rho=0.01, ~500x at 0.001)\n" +
		"  gtopk-quant8   gtopk over the v3-qsgd8 codec: counted bytes in the\n" +
		"                 codec-bytes experiment's gtopk/.../v3-qsgd8 rows\n"
	return CurveTable("Baselines: sparsification vs quantization families (MLP, P=4)", curves) + note, nil
}

func ablationLayerwise(ctx context.Context, opt Options) (string, error) {
	epochs, iters := opt.scale(12, 16)
	base := TrainSpec{
		Model: "vgg16sim", Workers: 4, Batch: 16,
		Epochs: epochs, ItersPerEpoch: iters,
		Density: 0.001, LR: 0.05, Momentum: 0.9, GradClip: 1, Seed: opt.seed(),
	}
	curves, err := runAlgos(ctx, base, "gtopk", "gtopk-layerwise")
	if err != nil {
		return "", err
	}
	return CurveTable("Extension: layer-wise gTop-k (VGG-16-sim, P=4)", curves), nil
}

func psMode(ctx context.Context, opt Options) (string, error) {
	epochs, iters := opt.scale(12, 16)
	base := TrainSpec{
		Model: "mlp", Workers: 4, Batch: 16,
		Epochs: epochs, ItersPerEpoch: iters,
		Density: 0.01, LR: 0.1, Momentum: 0.9, Seed: opt.seed(),
	}
	curves, err := runAlgos(ctx, base, "gtopk", "gtopk-ps")
	if err != nil {
		return "", err
	}
	cost := AblationPSMode(netsim.Paper1GbE())
	return CurveTable("Extension: PS-mode gTop-k convergence (MLP, P=4)", curves) + "\n" + cost, nil
}

// modelLR returns the tuned learning rate per CPU-scaled model (the
// compute-light ResNet analogues need smaller steps than the fc-heavy
// models at these batch sizes).
func modelLR(model string) float32 {
	switch model {
	case "resnet20sim", "resnet50sim":
		return 0.02
	default:
		return 0.05
	}
}

// runAlgos runs base once per algorithm and returns the curves in order.
func runAlgos(ctx context.Context, base TrainSpec, algos ...string) ([]*TrainCurve, error) {
	curves := make([]*TrainCurve, 0, len(algos))
	for _, algo := range algos {
		spec := base
		spec.Algo = algo
		curve, err := RunTraining(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("algo %s: %w", algo, err)
		}
		curves = append(curves, curve)
	}
	return curves, nil
}
