package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"gtopkssgd/internal/core"
	"gtopkssgd/internal/data"
	"gtopkssgd/internal/nn/models"
)

// Optimizer constants shared by every workload: sparsified runs use DGC
// momentum correction inside the aggregator, so the trainer's own
// momentum stays 0 (see core.GTopKAggregator.SetMomentumCorrection).
const (
	learningRate    = 0.05
	gradClip        = 1
	momentumCorrect = 0.9
	modelBatch      = 16
	modelBuckets    = 4
	modelNoise      = 1.5 // 0.4 collapses the loss to 0 and steps drift into denormals; see README
)

// Link constants of the wan-hier shaper: the paper's measured 1GbE
// α/β inside a group (netsim.Paper1GbE), a 100 Mb/s WAN-like link
// between groups.
var (
	intraLink = linkParams{alpha: 436 * time.Microsecond, nsPerByte: 9}
	interLink = linkParams{alpha: 2 * time.Millisecond, nsPerByte: 80}
)

// workloadSpec is one benchmark workload: a P-rank closed-loop training
// run whose sizes are fixed here so that the same seed always produces
// the same inputs, step count and therefore the same losses and wire
// bytes. Step counts are the only size knob (timedSteps).
type workloadSpec struct {
	name    string
	why     string
	ranks   int
	group   int     // hierarchical group size; 0 = flat collective
	fabric  string  // "inproc", "tcp" or "shaped" (inproc behind the link shaper)
	dim     int     // noisy-quadratic dimension; 0 = the VGG16Sim model task
	density float64 // ρ; k = ρ·dim
	codec   string  // sparse.ParseCodec spelling
	agg     string  // "gtopk", "hier" or "bucketed"
	warmup  int
	// stepsPerSecond sizes the timed phase: N = stepsPerSecond × -seconds.
	// It is a constant of the benchmark (the step rate of the reference
	// box at the commit that defined the benchmark), NOT a measurement,
	// so N — and with it every loss and byte count — repeats exactly.
	stepsPerSecond float64
}

// workloads lists the four workloads in reporting order. The "why" text
// is mirrored in BENCHMARK.json and checked by the tests.
var workloads = []workloadSpec{
	{
		name: "sel-inproc", ranks: 4, fabric: "inproc", dim: 1_000_000, density: 0.001,
		codec: "v1", agg: "gtopk", warmup: 30, stepsPerSecond: 50,
		why: "P=4 inproc, dim 1M, k=1000, codec v1: dense O(dim) passes (gradient, momentum fold, radix top-k, scatter, update) dominate; transport and codec changes must not move it",
	},
	{
		name: "comm-tcp", ranks: 4, fabric: "tcp", dim: 100_000, density: 0.02,
		codec: "v3-qsgd8", agg: "gtopk", warmup: 100, stepsPerSecond: 270,
		why: "P=4 TCP loopback, dim 100k, k=2000, codec v3-qsgd8: aggregate (quantize, encode, decode, merge, syscalls over 4 sequential hops) dominates; dense-pass changes must not move it",
	},
	{
		name: "wan-hier", ranks: 8, group: 4, fabric: "shaped", dim: 100_000, density: 0.01,
		codec: "v3", agg: "hier", warmup: 50, stepsPerSecond: 90,
		why: "P=8 G=4 hierarchical gTop-k over emulated slow links (1GbE in a group, 100 Mb/s between): ranks mostly wait on links, so hops, bytes and overlap show; kernel speed-ups barely do",
	},
	{
		name: "model-overlap", ranks: 4, fabric: "inproc", dim: 0, density: 0.001,
		// Half the box's step rate, on purpose: some 830 steps in, the
		// momentum of dead-ReLU coordinates decays into denormals and
		// steps slow down by a seed-dependent 15-140 %; the run ends
		// before that (see README, "Denormal drift").
		codec: "v1", agg: "bucketed", warmup: 30, stepsPerSecond: 35,
		why: "P=4 inproc, VGG16Sim (198,570 params), 4 buckets streamed behind the backward pass: real forward/backward, concurrent small collectives, allocation pressure; overlap, nn and GC changes show",
	},
}

// findWorkload returns the workload with the given name.
func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// smokeSteps is the timed step count of the -smoke profile.
const smokeSteps = 40

// smoke shrinks a workload to the CI profile: dims ÷ 20, 5 warm-up
// steps; the caller pins the timed phase to smokeSteps.
func (w workloadSpec) smoke() workloadSpec {
	if w.dim > 0 {
		w.dim /= 20
	}
	w.warmup = 5
	return w
}

// timedSteps maps the -seconds budget onto the deterministic timed step
// count.
func (w workloadSpec) timedSteps(seconds float64) int {
	n := int(math.Round(w.stepsPerSecond * seconds))
	if n < 10 {
		n = 10
	}
	return n
}

// k returns the per-rank selection count for a dim-parameter gradient.
func (w workloadSpec) k(dim int) int { return core.DensityToK(dim, w.density) }

// task is the seeded training problem of one workload: everything a rank
// needs to build its weights and gradient function. Only generated
// inputs reach the program under test.
type task interface {
	dim() int
	// rank returns rank r's initial weights (identical on every rank) and
	// its gradient functions; stream is nil for tasks without a layered
	// backward pass. bounds are the layer-aligned bucket bounds.
	rank(r, workers int) (weights []float32, grad core.GradFn, stream core.StreamGradFn)
	bounds() []int
}

// newTask generates the workload's inputs from the seed.
func newTask(w workloadSpec, seed uint64) (task, error) {
	if w.dim > 0 {
		return newQuadratic(w.dim, seed), nil
	}
	ds, err := data.NewImages(seed+1000, 10, 3, 8, 8, modelNoise)
	if err != nil {
		return nil, err
	}
	return &modelTask{seed: seed, ds: ds, proto: models.VGG16Sim()}, nil
}

// quadratic is the noisy quadratic ½·mean(s·(w−w*)²): cheap O(dim)
// compute whose gradients, residuals and momentum nevertheless evolve
// like a real run (unlike fixed replayed vectors).
type quadratic struct {
	scale  []float32 // s_i = exp(1.5·N(0,1))
	target []float32 // w*_i ~ N(0,1)
	noise  []float32 // ξ_i ~ 0.1·N(0,1), read at a per-(iter, rank) offset
}

func newQuadratic(dim int, seed uint64) *quadratic {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	q := &quadratic{
		scale:  make([]float32, dim),
		target: make([]float32, dim),
		noise:  make([]float32, dim),
	}
	for i := range q.scale {
		q.scale[i] = float32(math.Exp(1.5 * rng.NormFloat64()))
		q.target[i] = float32(rng.NormFloat64())
		q.noise[i] = float32(0.1 * rng.NormFloat64())
	}
	return q
}

func (q *quadratic) dim() int      { return len(q.scale) }
func (q *quadratic) bounds() []int { return []int{0, len(q.scale)} }

func (q *quadratic) rank(r, _ int) ([]float32, core.GradFn, core.StreamGradFn) {
	n := len(q.scale)
	grad := func(iter int, w, g []float32) float64 {
		// One fused pass; the noise table is read in two contiguous runs
		// so the inner loop carries no modulo.
		off := (7919*iter + 104729*r) % n
		cut := n - off
		loss := quadPass(q.scale[:cut], q.target[:cut], q.noise[off:], w[:cut], g[:cut]) +
			quadPass(q.scale[cut:], q.target[cut:], q.noise[:off], w[cut:], g[cut:])
		return 0.5 * loss / float64(n)
	}
	return make([]float32, n), grad, nil
}

// quadPass writes g = s⊙(w−t) + s⊙xi and returns Σ s·(w−t)².
func quadPass(s, t, xi, w, g []float32) float64 {
	var loss float64
	for i, si := range s {
		d := w[i] - t[i]
		sd := si * d
		loss += float64(sd * d)
		g[i] = sd + si*xi[i]
	}
	return loss
}

// modelTask trains models.VGG16Sim on synthetic images; every rank owns a
// private network initialised from the same seed.
type modelTask struct {
	seed  uint64
	ds    *data.Images
	proto *models.Classifier // geometry only (dim, layer bounds)
}

func (m *modelTask) dim() int { return m.proto.Net.ParamCount() }

func (m *modelTask) bounds() []int {
	return core.GroupBounds(m.proto.Net.LayerBounds(), modelBuckets)
}

func (m *modelTask) rank(r, workers int) ([]float32, core.GradFn, core.StreamGradFn) {
	cls := models.VGG16Sim()
	cls.Net.Init(m.seed)
	return cls.Net.Parameters(),
		models.GradFn(cls, m.ds, r, workers, modelBatch),
		models.StreamGradFn(cls, m.ds, r, workers, modelBatch)
}
