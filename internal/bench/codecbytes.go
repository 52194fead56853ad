package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/metrics"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/quant"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// This file is the codec-bytes experiment: what the wire codecs, and the
// DGC-style adaptive-density controller on top of them, do to the BYTES
// a gTop-k round ships. Both halves read Comm.Stats().BytesSent after a
// fixed number of rounds of the real collective on seeded inputs, so
// every number is a count — a pure function of (seed, code) that
// TestBenchArtifactReproduces regenerates and compares. What a round
// COSTS in time is not reported here: benchmark/ measures the whole
// step under each codec (comm-tcp runs v3-qsgd8), `go test -bench` the
// encode/decode kernels.

// Codec-sweep workload shape. The gradient is layer-structured (see
// layeredGradient): winners cluster in the few large-scale layers, the
// support pattern real convnets produce and the delta codec exploits.
const (
	codecBytesDim      = 1 << 20
	codecBytesQuickDim = 1 << 17
	codecBytesWorkers  = 4
	codecBytesLayers   = 16
	// codecBytesRounds is the fixed round count of every cell. The
	// stochastic value codecs (QSGD, ternary) draw fresh rounding noise
	// each round, so per-round bytes vary; the reported figure is the
	// total over exactly this many rounds divided by it, never by a
	// run-dependent iteration count.
	codecBytesRounds = 8
)

// Adaptive-run shape: enough rounds for the clamped (×0.75..×1.25 per
// round, ControlLag behind) controller to settle from k0 to the budget,
// plus a steady-state tail to average.
const (
	// adaptiveDim is the design size of the closed-loop runs, not a
	// -quick shrink: the settled reductions at 2^20 (9.11 / 8.90 / 9.17 /
	// 8.56x) match the ones at 2^17 (9.12 / 8.86 / 9.19 / 8.48x) for 8x
	// the run time, 11x that under the race detector.
	adaptiveDim         = 1 << 17
	adaptiveRounds      = 32
	adaptiveSteadyTail  = 8
	adaptiveBaseRounds  = 4
	adaptiveBudgetDivV1 = 9 // steer to v1/9 so steady state clears 8x with slack
)

// codecBytesCodecs is the one codec list, largest frames first: the flat
// and the delta/varint lossless formats, then down the value-precision
// ladder. Each row's bytes are strictly below the previous row's
// (TestHotPathMeasuresThePrintedCodec).
var codecBytesCodecs = []sparse.Codec{
	sparse.CodecV1, sparse.CodecV3, sparse.CodecV3F16,
	sparse.CodecV3Q8, sparse.CodecV3Q4, sparse.CodecV3Q2, sparse.CodecV3T, sparse.CodecV3S,
}

// codecBytesSection is the codec_bytes section of BENCH_gtopk.json.
type codecBytesSection struct {
	// Dim/Workers/Layers describe the workload; Rounds the fixed round
	// count every cell's bytes are totalled over.
	Dim     int    `json:"dim"`
	Workers int    `json:"workers"`
	Layers  int    `json:"layers"`
	Rounds  int    `json:"rounds"`
	Kind    string `json:"kind"`
	// Rows holds one cell per (rho, codec), codecs in codecBytesCodecs
	// order within each density.
	Rows []WireCodecResult `json:"rows"`
}

// WireCodecResult is one (density, codec) cell of the codec sweep.
type WireCodecResult struct {
	Name   string  `json:"name"`
	Fabric string  `json:"fabric"`
	Rho    float64 `json:"rho"`
	Codec  string  `json:"codec"`
	// WireBytesPerRank is rank 0's Stats().BytesSent over the cell's
	// codecBytesRounds rounds, divided by that count.
	WireBytesPerRank int64 `json:"wire_bytes_per_rank"`
	// BytesReduction is the same density's v1 cell's wire bytes divided
	// by this codec's (1.0 for v1 itself).
	BytesReduction float64 `json:"bytes_reduction"`
	// TallyRatio is the raw-vs-encoded ratio the metrics.WireTally
	// observed — what gtopk-worker logs in real runs.
	TallyRatio float64 `json:"tally_ratio"`
}

// adaptiveDensitySection is the adaptive_density section of
// BENCH_gtopk.json: closed-loop runs in which the per-bucket controller
// steers the encoded frame size toward v1/9 of the starting density's
// flat frame, shrinking the effective k until the compound
// (quantization × adapted density) reduction clears the byte budget.
type adaptiveDensitySection struct {
	// Dim/Workers/Layers describe the workload (the codec sweep's layered
	// gradient); Rounds the adaptive runs' length.
	Dim     int                     `json:"dim"`
	Workers int                     `json:"workers"`
	Layers  int                     `json:"layers"`
	Rounds  int                     `json:"rounds"`
	Kind    string                  `json:"kind"`
	Rows    []AdaptiveDensityResult `json:"rows"`
}

// AdaptiveDensityResult is one closed-loop adaptive-density run through
// the real bucketed pipeline.
type AdaptiveDensityResult struct {
	Name   string  `json:"name"`
	Fabric string  `json:"fabric"`
	Rho    float64 `json:"rho"`
	Codec  string  `json:"codec"`
	Rounds int     `json:"rounds"`
	// K0 is the static DensityToK starting count; FinalK the controller's
	// settled count after Rounds.
	K0     int `json:"k0"`
	FinalK int `json:"final_k"`
	// BudgetBytes is the controller's per-round frame budget
	// (v1-flat frame at K0 divided by adaptiveBudgetDivV1).
	BudgetBytes int64 `json:"budget_bytes"`
	// V1BytesPerRound is the all-rank wire volume of one static v1 round
	// at K0; SteadyBytesPerRound the adaptive run's mean over the final
	// adaptiveSteadyTail rounds.
	V1BytesPerRound     int64 `json:"v1_bytes_per_round"`
	SteadyBytesPerRound int64 `json:"steady_bytes_per_round"`
	// ReductionVsV1 = V1BytesPerRound / SteadyBytesPerRound: the
	// compound wire-byte reduction over flat v1 frames at the starting
	// density.
	ReductionVsV1 float64 `json:"reduction_vs_v1"`
}

// layeredGradient synthesises a dense gradient with per-layer magnitude
// structure: dim splits into `layers` contiguous segments and segment l
// draws from N(0, decay^l). Top-k winners therefore cluster in the few
// large-scale segments — the support pattern real convnet gradients
// show (the DGC line of work reports the same concentration), and the
// regime the delta codec is designed for.
func layeredGradient(src *prng.Source, dim, layers int, decay float64) []float32 {
	g := make([]float32, dim)
	scale := 1.0
	for l := 0; l < layers; l++ {
		lo, hi := l*dim/layers, (l+1)*dim/layers
		for i := lo; i < hi; i++ {
			g[i] = float32(src.NormFloat64() * scale)
		}
		scale *= decay
	}
	return g
}

// onRanks runs fn once per rank concurrently and joins the errors.
func onRanks(p int, fn func(rank int) error) error {
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = fn(rank)
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// codecBytesRows counts one density's row per codec: the unchanged
// collective runs codecBytesRounds rounds over the same seeded per-rank
// top-k vectors on an in-process mesh negotiated to the codec. (The TCP
// fabric frames the same bytes — it moved 16 832 / 10 802 / 6 610 B in
// every cell the in-process mesh did — so one fabric is the table.)
func codecBytesRows(dim int, rho float64, seed uint64) ([]WireCodecResult, error) {
	p := codecBytesWorkers
	k := core.DensityToK(dim, rho)
	vecs := make([]*sparse.Vector, p)
	for r := range vecs {
		src := prng.New(seed + 31*uint64(r))
		vecs[r] = sparse.TopK(layeredGradient(src, dim, codecBytesLayers, 0.5), k)
	}
	rows := make([]WireCodecResult, 0, len(codecBytesCodecs))
	for _, codec := range codecBytesCodecs {
		row := WireCodecResult{
			Name:   fmt.Sprintf("gtopk/inproc/rho=%g/%s", rho, codec),
			Fabric: "inproc", Rho: rho, Codec: codec.String(),
		}
		fab, err := transport.NewInProcWire(p, codec.WireVersion())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", row.Name, err)
		}
		tally := &metrics.WireTally{}
		comms := make([]*collective.Comm, p)
		for r := range comms {
			comms[r] = collective.New(fab.Conn(r))
			quant.AttachStack(comms[r], codec, seed)
			comms[r].SetWireTally(tally)
		}
		err = onRanks(p, func(rank int) error {
			var out sparse.Vector
			for i := 0; i < codecBytesRounds; i++ {
				if err := core.GTopKAllReduceInto(context.Background(), comms[rank],
					vecs[rank], k, core.ChunksFor(k), &out); err != nil {
					return err
				}
			}
			return nil
		})
		fab.Close() //nolint:errcheck // bench teardown
		if err != nil {
			return nil, fmt.Errorf("%s: %w", row.Name, err)
		}
		row.WireBytesPerRank = comms[0].Stats().BytesSent / codecBytesRounds
		row.TallyRatio = tally.Snapshot().Ratio()
		rows = append(rows, row)
		// v1 leads codecBytesCodecs, so rows[0] is this density's baseline.
		rows[len(rows)-1].BytesReduction = float64(rows[0].WireBytesPerRank) / float64(row.WireBytesPerRank)
	}
	return rows, nil
}

// adaptiveRun drives the real bucketed pipeline (one bucket spanning
// dim) for `rounds` iterations over an in-process mesh and returns the
// total wire bytes of each round plus the final per-bucket k. When
// budget > 0, every rank's aggregator runs the adaptive-density
// controller with that per-round frame budget.
func adaptiveRun(dim, rounds, p int, rho float64, codec sparse.Codec, budget int64, seed uint64) (perRound []int64, finalK int, err error) {
	fab, err := transport.NewInProcWire(p, codec.WireVersion())
	if err != nil {
		return nil, 0, err
	}
	defer fab.Close() //nolint:errcheck // bench teardown
	comms := make([]*collective.Comm, p)
	aggs := make([]*core.BucketedAggregator, p)
	srcs := make([]*prng.Source, p)
	for r := 0; r < p; r++ {
		comms[r] = collective.New(fab.Conn(r))
		quant.AttachStack(comms[r], codec, seed)
		aggs[r], err = core.NewBucketedAggregator(comms[r], []int{0, dim}, rho)
		if err != nil {
			return nil, 0, err
		}
		if budget > 0 {
			if err := aggs[r].SetAdaptiveDensity(budget, seed); err != nil {
				return nil, 0, err
			}
		}
		srcs[r] = prng.New(seed + 977*uint64(r))
	}
	perRound = make([]int64, rounds)
	var prev int64
	for round := 0; round < rounds; round++ {
		err := onRanks(p, func(rank int) error {
			_, err := aggs[rank].Aggregate(context.Background(),
				layeredGradient(srcs[rank], dim, codecBytesLayers, 0.5))
			return err
		})
		if err != nil {
			return nil, 0, fmt.Errorf("bench: adaptive round %d: %w", round, err)
		}
		var total int64
		for r := 0; r < p; r++ {
			total += comms[r].Stats().BytesSent
		}
		perRound[round] = total - prev
		prev = total
	}
	for _, k := range aggs[0].BucketKs() {
		finalK += k
	}
	return perRound, finalK, nil
}

// measureAdaptive runs the v1 static baseline at k0 and the adaptive
// compound run, and folds both into one result row.
func measureAdaptive(dim int, rho float64, codec sparse.Codec, seed uint64) (AdaptiveDensityResult, error) {
	p := codecBytesWorkers
	k0 := core.DensityToK(dim, rho)
	budget := int64(sparse.EncodedSize(k0)) / adaptiveBudgetDivV1
	if budget < 1 {
		budget = 1
	}
	res := AdaptiveDensityResult{
		Name:   fmt.Sprintf("adaptive/inproc/rho=%g/%s", rho, codec),
		Fabric: "inproc", Rho: rho, Codec: codec.String(),
		Rounds: adaptiveRounds, K0: k0, BudgetBytes: budget,
	}
	base, _, err := adaptiveRun(dim, adaptiveBaseRounds, p, rho, sparse.CodecV1, 0, seed)
	if err != nil {
		return res, err
	}
	var v1Sum int64
	for _, b := range base {
		v1Sum += b
	}
	res.V1BytesPerRound = v1Sum / int64(len(base))

	perRound, finalK, err := adaptiveRun(dim, adaptiveRounds, p, rho, codec, budget, seed)
	if err != nil {
		return res, err
	}
	var tail int64
	for _, b := range perRound[len(perRound)-adaptiveSteadyTail:] {
		tail += b
	}
	res.SteadyBytesPerRound = tail / adaptiveSteadyTail
	res.FinalK = finalK
	if res.SteadyBytesPerRound > 0 {
		res.ReductionVsV1 = float64(res.V1BytesPerRound) / float64(res.SteadyBytesPerRound)
	}
	return res, nil
}

// adaptiveDensityRows runs the four committed closed-loop runs:
// ρ ∈ {0.001, 0.01} × {v3-qsgd8, v3-ternary}.
func adaptiveDensityRows(dim int, seed uint64) ([]AdaptiveDensityResult, error) {
	var rows []AdaptiveDensityResult
	for _, rho := range []float64{0.001, 0.01} {
		for _, codec := range []sparse.Codec{sparse.CodecV3Q8, sparse.CodecV3T} {
			r, err := measureAdaptive(dim, rho, codec, seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// codecBytes runs the codec sweep and the adaptive-density closed loop,
// renders both tables and updates the codec_bytes and adaptive_density
// sections of the artifact. Quick mode shrinks the codec sweep's
// dimension only.
func codecBytes(_ context.Context, opt Options) (string, error) {
	codecs := &codecBytesSection{
		Dim: codecBytesDim, Workers: codecBytesWorkers, Layers: codecBytesLayers,
		Rounds: codecBytesRounds, Kind: kindCount,
	}
	if opt.Quick {
		codecs.Dim = codecBytesQuickDim
	}
	adaptive := &adaptiveDensitySection{
		Dim: adaptiveDim, Workers: codecBytesWorkers, Layers: codecBytesLayers,
		Rounds: adaptiveRounds, Kind: kindCount,
	}

	var sb strings.Builder
	sb.WriteString("Codec bytes: wire volume of one gTop-k round per codec (real collective, seeded; counts, not timings)\n")
	fmt.Fprintf(&sb, "P=%d, dim=%d, %d-layer gradient, inproc; B/rank = rank 0's bytes sent over %d rounds / %d\n\n",
		codecs.Workers, codecs.Dim, codecs.Layers, codecBytesRounds, codecBytesRounds)
	codecTb := metrics.NewTable("config", "wire B/rank", "reduction vs v1", "tally ratio")
	for _, rho := range []float64{0.001, 0.01} {
		rows, err := codecBytesRows(codecs.Dim, rho, opt.seed())
		if err != nil {
			return "", err
		}
		for _, r := range rows {
			codecTb.AddRow(r.Name, fmt.Sprint(r.WireBytesPerRank),
				fmt.Sprintf("%.2fx", r.BytesReduction), fmt.Sprintf("%.2fx", r.TallyRatio))
		}
		codecs.Rows = append(codecs.Rows, rows...)
	}
	sb.WriteString(codecTb.String())
	sb.WriteString("\nreduction = v1 wire bytes / codec wire bytes at the same rho; tally ratio =\nflat-equivalent / encoded bytes per frame (what workers log). Lossy value\ncodecs fold their quantization error into the error-feedback residual.\n\n")

	var err error
	if adaptive.Rows, err = adaptiveDensityRows(adaptive.Dim, opt.seed()); err != nil {
		return "", err
	}
	adaptTb := metrics.NewTable("config", "k0", "final k", "v1 B/round", "steady B/round", "reduction vs v1")
	for _, r := range adaptive.Rows {
		adaptTb.AddRow(r.Name, fmt.Sprint(r.K0), fmt.Sprint(r.FinalK),
			fmt.Sprint(r.V1BytesPerRound), fmt.Sprint(r.SteadyBytesPerRound),
			fmt.Sprintf("%.2fx", r.ReductionVsV1))
	}
	fmt.Fprintf(&sb, "Adaptive density (bucketed pipeline, dim=%d, %d rounds, budget = v1 frame / %d):\n\n",
		adaptive.Dim, adaptiveRounds, adaptiveBudgetDivV1)
	sb.WriteString(adaptTb.String())
	sb.WriteString("\nThe per-bucket controller shrinks k from the observed compressed-byte\nratio toward the budget; reduction = v1 bytes at k0 / steady adaptive\nbytes, i.e. quantization and density adaptation compounded.\n")

	note, err := updateArtifact(opt, func(a *artifact) {
		a.CodecBytes, a.AdaptiveDensity = codecs, adaptive
	})
	return sb.String() + note, err
}
