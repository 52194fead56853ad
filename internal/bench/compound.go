package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
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

// This file is the compound-compression harness behind the `compound`
// experiment: it measures the codec-v3 Compressor stacks (gTop-k
// selection × quantized value streams) through the real collective, and
// the DGC-style adaptive-density controller closing the loop from
// observed wire bytes back to the per-bucket selection count. It
// maintains the compound section of BENCH_gtopk.json.

// Adaptive-run shape: enough rounds for the clamped (×0.75..×1.25 per
// round, ControlLag behind) controller to settle from k0 to the budget,
// plus a steady-state tail to average.
const (
	compoundRounds      = 32
	compoundSteadyTail  = 8
	compoundWorkers     = 4
	compoundBaseRounds  = 4
	compoundBudgetDivV1 = 9 // steer to v1/9 so steady state clears 8x with slack
)

// CompoundSection is the compound section of BENCH_gtopk.json: the
// fixed-density Compressor-stack sweep plus the adaptive-density runs.
type CompoundSection struct {
	// Dim/Workers/Layers describe the workload (same layered gradient as
	// the wire_codec section); Rounds the adaptive runs' length.
	Dim     int `json:"dim"`
	Workers int `json:"workers"`
	Layers  int `json:"layers"`
	Rounds  int `json:"rounds"`
	// Stacks holds one cell per (fabric, rho, stack): gTop-k selection at
	// fixed density with the named value codec on the wire.
	Stacks []WireCodecResult `json:"stacks"`
	// Adaptive holds the closed-loop runs: the per-bucket controller
	// steers the encoded frame size toward v1/9 of the starting density's
	// flat frame, shrinking the effective k until the compound reduction
	// clears the byte budget.
	Adaptive []AdaptiveDensityResult `json:"adaptive"`
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
	// (v1-flat frame at K0 divided by compoundBudgetDivV1).
	BudgetBytes int64 `json:"budget_bytes"`
	// V1BytesPerRound is the measured all-rank wire volume of one static
	// v1 round at K0; SteadyBytesPerRound the adaptive run's mean over
	// the final compoundSteadyTail rounds.
	V1BytesPerRound    int64 `json:"v1_bytes_per_round"`
	SteadyBytesPerRound int64 `json:"steady_bytes_per_round"`
	// ReductionVsV1 = V1BytesPerRound / SteadyBytesPerRound: the
	// compound (quantization × adapted density) wire-byte reduction over
	// flat v1 frames at the starting density.
	ReductionVsV1 float64 `json:"reduction_vs_v1"`
}

// compoundStacks are the fixed-density Compressor stacks the sweep
// measures, alongside the v1 baseline each cell's reduction divides by.
func compoundStacks() []sparse.Codec {
	return []sparse.Codec{
		sparse.CodecV1, sparse.CodecV3,
		sparse.CodecV3Q8, sparse.CodecV3Q4, sparse.CodecV3Q2, sparse.CodecV3T,
	}
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
	}
	srcs := make([]*prng.Source, p)
	for r := range srcs {
		srcs[r] = prng.New(seed + 977*uint64(r))
	}
	perRound = make([]int64, rounds)
	var prev int64
	for round := 0; round < rounds; round++ {
		grads := make([][]float32, p)
		for r := range grads {
			grads[r] = layeredGradient(srcs[r], dim, wireCodecLayers, 0.5)
		}
		var wg sync.WaitGroup
		var errMu sync.Mutex
		var roundErr error
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				if _, e := aggs[rank].Aggregate(context.Background(), grads[rank]); e != nil {
					errMu.Lock()
					if roundErr == nil {
						roundErr = e
					}
					errMu.Unlock()
				}
			}(r)
		}
		wg.Wait()
		if roundErr != nil {
			return nil, 0, fmt.Errorf("bench: adaptive round %d: %w", round, roundErr)
		}
		var total int64
		for r := 0; r < p; r++ {
			total += comms[r].Stats().BytesSent
		}
		perRound[round] = total - prev
		prev = total
	}
	ks := aggs[0].BucketKs()
	for _, k := range ks {
		finalK += k
	}
	return perRound, finalK, nil
}

// measureAdaptive runs the v1 static baseline at k0 and the adaptive
// compound run, and folds both into one result row.
func measureAdaptive(dim int, rho float64, codec sparse.Codec, seed uint64) (AdaptiveDensityResult, error) {
	p := compoundWorkers
	k0 := core.DensityToK(dim, rho)
	budget := int64(sparse.EncodedSize(k0)) / compoundBudgetDivV1
	if budget < 1 {
		budget = 1
	}
	res := AdaptiveDensityResult{
		Name:   fmt.Sprintf("adaptive/inproc/rho=%g/%s", rho, codec),
		Fabric: "inproc", Rho: rho, Codec: codec.String(),
		Rounds: compoundRounds, K0: k0, BudgetBytes: budget,
	}
	base, _, err := adaptiveRun(dim, compoundBaseRounds, p, rho, sparse.CodecV1, 0, seed)
	if err != nil {
		return res, err
	}
	var v1Sum int64
	for _, b := range base {
		v1Sum += b
	}
	res.V1BytesPerRound = v1Sum / int64(len(base))

	perRound, finalK, err := adaptiveRun(dim, compoundRounds, p, rho, codec, budget, seed)
	if err != nil {
		return res, err
	}
	var tail int64
	for _, b := range perRound[len(perRound)-compoundSteadyTail:] {
		tail += b
	}
	res.SteadyBytesPerRound = tail / compoundSteadyTail
	res.FinalK = finalK
	if res.SteadyBytesPerRound > 0 {
		res.ReductionVsV1 = float64(res.V1BytesPerRound) / float64(res.SteadyBytesPerRound)
	}
	return res, nil
}

// Compound runs the Compressor-stack sweep and the adaptive-density
// closed loop and returns the rendered tables plus the JSON section.
func Compound(_ context.Context, opt Options) (string, *CompoundSection, error) {
	dim := wireCodecDim
	fabrics := []string{"inproc", "tcp"}
	densities := []float64{0.001, 0.01}
	if opt.Quick {
		dim = wireCodecQuickDim
		fabrics = []string{"inproc"}
	}
	section := &CompoundSection{
		Dim: dim, Workers: compoundWorkers, Layers: wireCodecLayers,
		Rounds: compoundRounds,
	}

	var sb strings.Builder
	sb.WriteString("Compound compression (codec v3): gTop-k x quantized value streams\n")
	fmt.Fprintf(&sb, "P=%d, dim=%d, %d-layer gradient, %d CPUs\n\n", compoundWorkers, dim, wireCodecLayers, runtime.NumCPU())

	stackTb := metrics.NewTable("config", "ns/op", "wire B/rank", "reduction vs v1", "tally ratio")
	v1Bytes := map[string]int64{}
	for _, fabric := range fabrics {
		for _, rho := range densities {
			for _, codec := range compoundStacks() {
				r, err := measureWireCodec(fabric, dim, rho, codec, opt.seed(), opt.TCPNagle)
				if err != nil {
					return "", nil, err
				}
				key := fmt.Sprintf("%s/%g", fabric, rho)
				if codec == sparse.CodecV1 {
					v1Bytes[key] = r.WireBytesPerRank
				}
				if base := v1Bytes[key]; base > 0 && r.WireBytesPerRank > 0 {
					r.BytesReduction = float64(base) / float64(r.WireBytesPerRank)
				}
				section.Stacks = append(section.Stacks, r)
				stackTb.AddRow(r.Name, fmt.Sprint(r.NsPerOp), fmt.Sprint(r.WireBytesPerRank),
					fmt.Sprintf("%.2fx", r.BytesReduction), fmt.Sprintf("%.2fx", r.TallyRatio))
			}
		}
	}
	sb.WriteString(stackTb.String())
	sb.WriteString("\nEach stack is top-k selection + the named value codec on the wire;\nquantization error folds into the error-feedback residual.\n\n")

	adaptTb := metrics.NewTable("config", "k0", "final k", "v1 B/round", "steady B/round", "reduction vs v1")
	for _, rho := range densities {
		for _, codec := range []sparse.Codec{sparse.CodecV3Q8, sparse.CodecV3T} {
			r, err := measureAdaptive(dim, rho, codec, opt.seed())
			if err != nil {
				return "", nil, err
			}
			section.Adaptive = append(section.Adaptive, r)
			adaptTb.AddRow(r.Name, fmt.Sprint(r.K0), fmt.Sprint(r.FinalK),
				fmt.Sprint(r.V1BytesPerRound), fmt.Sprint(r.SteadyBytesPerRound),
				fmt.Sprintf("%.2fx", r.ReductionVsV1))
		}
	}
	fmt.Fprintf(&sb, "Adaptive density (bucketed pipeline, %d rounds, budget = v1 frame / %d):\n\n", compoundRounds, compoundBudgetDivV1)
	sb.WriteString(adaptTb.String())
	sb.WriteString("\nThe per-bucket controller shrinks k from the observed compressed-byte\nratio toward the budget; reduction = measured v1 bytes at k0 / steady\nadaptive bytes, i.e. quantization and density adaptation compounded.\n")
	return sb.String(), section, nil
}

// WriteCompoundJSON runs the harness and folds the compound section
// into BENCH_gtopk.json (or opt.JSONPath), preserving the other
// experiments' sections.
func WriteCompoundJSON(ctx context.Context, opt Options) (string, error) {
	out, section, err := Compound(ctx, opt)
	if err != nil {
		return "", err
	}
	path := opt.JSONPath
	if path == "" {
		path = "BENCH_gtopk.json"
	}
	report, err := loadHotPathReport(path)
	if err != nil {
		report = &hotPathReport{
			Schema:      hotPathSchema,
			GeneratedBy: "gtopk-bench -exp compound",
			Seed:        opt.seed(),
			Dim:         hotPathDim,
			GoVersion:   runtime.Version(),
			GOOS:        runtime.GOOS,
			GOARCH:      runtime.GOARCH,
			NumCPU:      runtime.NumCPU(),
		}
		report.Baseline.Commit = baselineCommit
		report.Baseline.Results = baselineHotPath
		report.Prev.Commit = prevCommit
		report.Prev.Results = prevHotPath
	}
	report.Compound = section
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("bench: write %s: %w", path, err)
	}
	return out + fmt.Sprintf("\nupdated %s (compound section: %d stack cells, %d adaptive runs)\n",
		path, len(section.Stacks), len(section.Adaptive)), nil
}
