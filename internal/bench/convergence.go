package bench

import (
	"context"
	"fmt"
	"time"

	"gtopkssgd/internal/algo"
	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/data"
	"gtopkssgd/internal/metrics"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/nn"
	"gtopkssgd/internal/nn/models"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// TrainSpec configures one distributed-training run of a convergence
// experiment. Worker counts, densities, warmup schedules and momentum
// follow the paper; model sizes and epoch lengths are CPU-scaled so a
// full curve runs in CPU-minutes (the *Sim models of internal/nn/models
// keep each paper model's fc- or conv-dominated character at ~100-1000x
// fewer parameters; an epoch is a fixed ItersPerEpoch).
type TrainSpec struct {
	Model string // vgg16sim | resnet20sim | alexnetsim | resnet50sim | lstm | mlp
	Algo  string // one of algo.Names()

	Workers       int
	Batch         int
	Epochs        int
	ItersPerEpoch int

	Density float64
	// WarmupDensities are per-epoch densities applied before Density
	// takes over (the paper uses [0.25, 0.0725, 0.015, 0.004]).
	WarmupDensities []float64

	LR       float32
	Momentum float32
	GradClip float32

	Seed uint64
	// EvalBatches > 0 evaluates held-out accuracy after every epoch
	// (classifier models only).
	EvalBatches int
	// DisablePutBack turns off Algorithm 4 line 10 for the residual
	// ablation.
	DisablePutBack bool
	// HierGroup is the gTop-k hierarchy's group size (see
	// algo.Spec.HierGroup).
	HierGroup int
	// Wire, when non-zero, selects the sparse wire codec the simulated
	// cluster's fabric negotiates (e.g. sparse.CodecV3Q8 trains through
	// the compound quantized pipeline, its error folded into the
	// residual). Zero keeps the v1 default.
	Wire sparse.Codec
	// Quorum, when > 0, runs the gtopk algorithm in straggler-tolerant
	// quorum mode: each round closes after Quorum of Workers
	// contributions under the RoundTimeout deadline, and a straggler's
	// block is refunded to its residual. Under gtopk-hier, Quorum is the
	// intra-group quorum q_g over each group of HierGroup members and
	// LeaderQuorum the leader-level quorum q_l over the group aggregates
	// (0 waits for every group); the RoundTimeout budget splits across
	// the levels per core.QuorumConfig.SplitLevels.
	Quorum       int
	LeaderQuorum int
	RoundTimeout time.Duration
	// FaultDelay, when > 0, wraps the cluster's fabric in a seeded
	// FaultInjector that delays SlowRank's outgoing frames by FaultDelay
	// — the straggler the quorum rides out.
	FaultDelay time.Duration
	SlowRank   int
}

// Validate rejects malformed specifications.
func (s TrainSpec) Validate() error {
	if s.Workers < 1 || s.Batch < 1 || s.Epochs < 1 || s.ItersPerEpoch < 1 {
		return fmt.Errorf("bench: non-positive workers/batch/epochs/iters in %+v", s)
	}
	if s.Algo != "dense" && (s.Density <= 0 || s.Density > 1) {
		return fmt.Errorf("bench: density %v out of (0,1]", s.Density)
	}
	return nil
}

// TrainCurve is the result of one training run.
type TrainCurve struct {
	Spec      TrainSpec
	EpochLoss []float64
	EpochAcc  []float64     // per-epoch held-out accuracy (empty unless requested)
	SimTime   time.Duration // simulated communication time on rank 0
}

// PaperWarmup returns the paper's warmup density schedule.
func PaperWarmup() []float64 { return []float64{0.25, 0.0725, 0.015, 0.004} }

// Models lists the model names RunTraining accepts — the authoritative
// registry CLI validation must consult (the switch in RunTraining is
// its implementation).
func Models() []string {
	return []string{"vgg16sim", "resnet20sim", "alexnetsim", "resnet50sim", "lstm", "mlp"}
}

// RunTraining executes the distributed training run described by spec and
// returns its loss (and optionally accuracy) curves.
func RunTraining(ctx context.Context, spec TrainSpec) (*TrainCurve, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	steps := spec.Epochs * spec.ItersPerEpoch
	simModel := netsim.Paper1GbE()

	// Rank 0's model is shared with the evaluation hook. Classifier
	// construction must happen inside the worker goroutine for all other
	// ranks, so the setup closure builds per-rank state.
	type rankState struct {
		cls  *models.Classifier
		lstm *nn.LSTMLM
	}
	states := make([]*rankState, spec.Workers)

	var imgDS *data.Images
	var txtDS *data.Text
	var err error
	if spec.Model == "lstm" {
		txtDS, err = data.NewText(spec.Seed+1000, 64)
	} else {
		c, h, w := 3, 8, 8
		if spec.Model == "alexnetsim" {
			h, w = 16, 16
		}
		imgDS, err = data.NewImages(spec.Seed+1000, 10, c, h, w, 0.4)
	}
	if err != nil {
		return nil, err
	}

	setup := func(rank int, comm *collective.Comm) (*core.Trainer, error) {
		st := &rankState{}
		states[rank] = st
		var (
			dim    int
			params []float32
			gradFn core.GradFn
			bounds []int
		)
		switch spec.Model {
		case "vgg16sim":
			st.cls = models.VGG16Sim()
		case "resnet20sim":
			st.cls = models.ResNet20Sim()
		case "alexnetsim":
			st.cls = models.AlexNetSim()
		case "resnet50sim":
			st.cls = models.ResNet50Sim()
		case "mlp":
			st.cls = models.MLP(imgDS.Dim(), 64, 10)
		case "lstm":
			st.lstm = models.LSTMPTBSim()
		default:
			return nil, fmt.Errorf("bench: unknown model %q", spec.Model)
		}
		if st.lstm != nil {
			st.lstm.Init(spec.Seed)
			dim = st.lstm.ParamCount()
			params = st.lstm.Parameters()
			gradFn = models.LSTMGradFn(st.lstm, txtDS, rank, spec.Workers, spec.Batch, 16)
			bounds = []int{0, dim}
		} else {
			st.cls.Net.Init(spec.Seed)
			dim = st.cls.Net.ParamCount()
			params = st.cls.Net.Parameters()
			gradFn = models.GradFn(st.cls, imgDS, rank, spec.Workers, spec.Batch)
			bounds = st.cls.Net.LayerBounds()
		}

		agg, cfg, err := newAggregator(spec, comm, dim, bounds)
		if err != nil {
			return nil, err
		}
		return core.NewTrainer(cfg, agg, params, gradFn)
	}

	cfg := core.ClusterConfig{
		Workers: spec.Workers,
		Steps:   steps,
		Model:   &simModel,
	}
	if wire := spec.algoSpec().Codec(); wire != 0 || spec.FaultDelay > 0 {
		if wire == 0 {
			wire = sparse.CodecV1
		}
		var fab transport.Fabric
		fab, err := transport.NewInProcWire(spec.Workers, wire.WireVersion())
		if err != nil {
			return nil, err
		}
		if spec.FaultDelay > 0 {
			fab = transport.NewFaultInjector(fab, transport.FaultPlan{
				Seed:      spec.Seed,
				Delay:     spec.FaultDelay,
				SlowRanks: []int{spec.SlowRank},
			})
		}
		defer fab.Close() //nolint:errcheck // in-process close never fails
		cfg.Fabric = fab
	}
	results, err := core.RunCluster(ctx, cfg, setup)
	if err != nil {
		return nil, err
	}

	curve := &TrainCurve{
		Spec:      spec,
		EpochLoss: metrics.EpochMeans(results[0].Losses, spec.ItersPerEpoch),
		SimTime:   results[0].SimulatedTime,
	}
	if spec.EvalBatches > 0 && states[0] != nil && states[0].cls != nil {
		// Final-model accuracy (per-epoch accuracy would require eval
		// hooks inside the training loop; the final number is what
		// Figs 13/14 compare at the end of training).
		curve.EpochAcc = []float64{
			models.EvalAccuracy(states[0].cls, imgDS, spec.EvalBatches, 32),
		}
	}
	return curve, nil
}

// newAggregator builds spec's aggregator through algo.Build, together
// with the trainer configuration that goes with it. A sparse aggregator
// corrects the momentum locally, in the velocity the trainer lends it
// (global momentum on spiky sparse updates is unstable — the problem the
// paper's reference [12] identifies and fixes).
func newAggregator(spec TrainSpec, comm *collective.Comm, dim int, bounds []int) (core.Aggregator, core.TrainConfig, error) {
	agg, err := algo.Build(spec.algoSpec(), comm, dim, bounds)
	return agg, core.TrainConfig{LR: spec.LR, Momentum: spec.Momentum, GradClip: spec.GradClip}, err
}

// algoSpec is the aggregator half of the spec.
func (s TrainSpec) algoSpec() algo.Spec {
	spec := algo.Spec{
		Algo: s.Algo, Density: s.Density, WarmupDensities: s.WarmupDensities, ItersPerEpoch: s.ItersPerEpoch,
		HierGroup: s.HierGroup, DisablePutBack: s.DisablePutBack, Wire: s.Wire, Seed: s.Seed,
	}
	if s.Quorum > 0 {
		spec.Quorum = core.QuorumConfig{Q: s.Quorum, LeaderQ: s.LeaderQuorum, Timeout: s.RoundTimeout}
	}
	return spec
}

// CurveTable renders several training curves side by side, one row per
// epoch — the textual equivalent of the paper's loss-vs-epoch plots.
func CurveTable(title string, curves []*TrainCurve) string {
	header := []string{"epoch"}
	for _, c := range curves {
		header = append(header, c.Spec.Algo)
	}
	tb := metrics.NewTable(header...)
	maxEpochs := 0
	for _, c := range curves {
		if len(c.EpochLoss) > maxEpochs {
			maxEpochs = len(c.EpochLoss)
		}
	}
	for e := 0; e < maxEpochs; e++ {
		row := []string{fmt.Sprintf("%d", e+1)}
		for _, c := range curves {
			if e < len(c.EpochLoss) {
				row = append(row, fmt.Sprintf("%.4f", c.EpochLoss[e]))
			} else {
				row = append(row, "")
			}
		}
		tb.AddRow(row...)
	}
	return title + "\n\n" + tb.String()
}
