package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/metrics"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/quant"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// This file is the wire-codec + sharded-selection harness: it measures
// the two iteration-time terms PR 3 left untouched — T_comm's byte
// volume (v1 vs v3 vs v3-fp16 frames through the real collective over
// both fabrics) and T_sparsify (serial vs sharded top-k selection over a
// VGG-16-scale gradient) — and maintains the wire_codec section of
// BENCH_gtopk.json.

// Codec-sweep workload shape. The gradient is layer-structured (see
// layeredGradient): winners cluster in the few large-scale layers, the
// support pattern real convnets produce and the delta codec exploits.
const (
	wireCodecDim      = 1 << 20
	wireCodecQuickDim = 1 << 17
	wireCodecWorkers  = 4
	wireCodecLayers   = 16
	// selectionDim is the paper's "VGG-16-sized" sparsification workload
	// (VGG-16 has ~25.6M convolutional+fc gradients at the paper's scale).
	selectionDim      = 25_000_000
	selectionQuickDim = 2_000_000
)

// WireCodecSection is the wire_codec section of BENCH_gtopk.json.
type WireCodecSection struct {
	// Dim/Workers/Layers describe the codec sweep workload; SelectDim the
	// selection-scaling workload. NumCPU records the measuring machine —
	// measured selection speedups are bounded by it, the recorded
	// critical path is not (see SelectionResult).
	Dim       int               `json:"dim"`
	Workers   int               `json:"workers"`
	Layers    int               `json:"layers"`
	SelectDim int               `json:"select_dim"`
	NumCPU    int               `json:"num_cpu"`
	Codec     []WireCodecResult `json:"codec"`
	Selection []SelectionResult `json:"selection"`
}

// WireCodecResult is one (fabric, density, codec) cell of the sweep.
type WireCodecResult struct {
	Name             string  `json:"name"`
	Fabric           string  `json:"fabric"`
	Rho              float64 `json:"rho"`
	Codec            string  `json:"codec"`
	NsPerOp          int64   `json:"ns_per_op"`
	WireBytesPerRank int64   `json:"wire_bytes_per_rank"`
	// BytesReduction is v1's wire bytes divided by this codec's, for the
	// same fabric and density (1.0 for v1 itself).
	BytesReduction float64 `json:"bytes_reduction"`
	// TallyRatio is the raw-vs-encoded ratio the metrics.WireTally
	// observed — what gtopk-worker logs in real runs.
	TallyRatio float64 `json:"tally_ratio"`
}

// SelectionResult is one shard count of the selection-scaling sweep.
// MeasuredNs is wall time on this machine (bounded by NumCPU);
// CriticalPathNs is max(per-shard select) + merge from the engine's
// per-shard instrumentation — the wall time on a machine with at least
// Shards cores, analogous to the analytic numbers the overlap bench
// records next to its measured ones.
type SelectionResult struct {
	Shards              int     `json:"shards"`
	K                   int     `json:"k"`
	MeasuredNs          int64   `json:"measured_ns_per_op"`
	CriticalPathNs      int64   `json:"critical_path_ns_per_op"`
	MaxShardNs          int64   `json:"max_shard_ns"`
	MergeNs             int64   `json:"merge_ns"`
	SpeedupMeasured     float64 `json:"speedup_measured"`
	SpeedupCriticalPath float64 `json:"speedup_critical_path"`
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

// wireCodecVectors builds the per-rank top-k inputs for the codec sweep.
func wireCodecVectors(seed uint64, p, dim, k int) []*sparse.Vector {
	vecs := make([]*sparse.Vector, p)
	for r := 0; r < p; r++ {
		src := prng.New(seed + 31*uint64(r))
		vecs[r] = sparse.TopK(layeredGradient(src, dim, wireCodecLayers, 0.5), k)
	}
	return vecs
}

// measureWireCodec benchmarks the full collective under one codec and
// returns ns/op, per-rank wire bytes and the tally ratio.
func measureWireCodec(fabric string, dim int, rho float64, codec sparse.Codec, seed uint64, nagle bool) (WireCodecResult, error) {
	p := wireCodecWorkers
	k := core.DensityToK(dim, rho)
	vecs := wireCodecVectors(seed, p, dim, k)
	res := WireCodecResult{
		Name:   fmt.Sprintf("gtopk/%s/rho=%g/%s", fabric, rho, codec),
		Fabric: fabric, Rho: rho, Codec: codec.String(),
	}
	var wireBytes int64
	tally := &metrics.WireTally{}
	var errMu sync.Mutex
	var benchErr error
	fail := func(err error) {
		errMu.Lock()
		if benchErr == nil {
			benchErr = err
		}
		errMu.Unlock()
	}
	bres := testing.Benchmark(func(b *testing.B) {
		var fab transport.Fabric
		var err error
		if fabric == "tcp" {
			fab, err = transport.NewTCPWithOptions(p, transport.TCPOptions{
				DisableNoDelay: nagle, WireVersion: codec.WireVersion(),
			})
		} else {
			fab, err = transport.NewInProcWire(p, codec.WireVersion())
		}
		if err != nil {
			fail(err)
			b.Skip(err)
			return
		}
		defer fab.Close()
		comms := make([]*collective.Comm, p)
		outs := make([]sparse.Vector, p)
		for r := range comms {
			comms[r] = collective.New(fab.Conn(r))
			quant.AttachStack(comms[r], codec, seed)
			comms[r].SetWireTally(tally)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for r := range comms {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					if err := core.GTopKAllReduceInto(context.Background(), comms[rank],
						vecs[rank], k, core.ChunksFor(k), &outs[rank]); err != nil {
						fail(err)
					}
				}(r)
			}
			wg.Wait()
		}
		b.StopTimer()
		wireBytes = comms[0].Stats().BytesSent / int64(b.N)
	})
	if benchErr != nil {
		return res, fmt.Errorf("%s: %w", res.Name, benchErr)
	}
	res.NsPerOp = bres.NsPerOp()
	res.WireBytesPerRank = wireBytes
	res.TallyRatio = tally.Snapshot().Ratio()
	return res, nil
}

// measureSelection times the sharded selection engine at each shard
// count over one layered gradient, reporting measured wall time and the
// instrumented critical path.
func measureSelection(dim int, shardCounts []int, seed uint64) []SelectionResult {
	src := prng.New(seed + 999)
	g := layeredGradient(src, dim, 16, 0.6)
	k := core.DensityToK(dim, 0.001)
	reps := 3
	if dim <= selectionQuickDim {
		reps = 2
	}
	out := make([]SelectionResult, 0, len(shardCounts))
	var serialNs, serialCriticalNs int64
	for _, shards := range shardCounts {
		// Wall time of the real (concurrent) engine on this machine.
		sel := sparse.NewShardSelector(shards)
		// Per-shard compute time, measured in isolation: sequential
		// execution keeps one shard's wall clock from absorbing its
		// neighbours' work when the machine has fewer cores than shards,
		// which is what makes max(shard)+merge an honest multicore model.
		iso := sparse.NewShardSelector(shards)
		iso.SetTimed(true)
		iso.SetSequential(true)
		dst := &sparse.Vector{}
		sel.TopKInto(dst, g, k) // warm pools and per-shard scratch
		iso.TopKInto(dst, g, k)
		var measured, critical, maxShard, merge int64
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			sel.TopKInto(dst, g, k)
			measured += time.Since(start).Nanoseconds()

			iso.TopKInto(dst, g, k)
			per, mg := iso.Timings()
			var worst time.Duration
			for _, d := range per {
				if d > worst {
					worst = d
				}
			}
			critical += (worst + mg).Nanoseconds()
			maxShard += worst.Nanoseconds()
			merge += mg.Nanoseconds()
		}
		r := SelectionResult{
			Shards: shards, K: k,
			MeasuredNs:     measured / int64(reps),
			CriticalPathNs: critical / int64(reps),
			MaxShardNs:     maxShard / int64(reps),
			MergeNs:        merge / int64(reps),
		}
		if shards == 1 {
			serialNs = r.MeasuredNs
			serialCriticalNs = r.CriticalPathNs
		}
		// Like-for-like baselines: measured speedup against the measured
		// serial run, critical-path speedup against the serial critical
		// path (identical measurement mode, so shards=1 reads 1.00x).
		if serialNs > 0 {
			r.SpeedupMeasured = float64(serialNs) / float64(r.MeasuredNs)
		}
		if serialCriticalNs > 0 {
			r.SpeedupCriticalPath = float64(serialCriticalNs) / float64(r.CriticalPathNs)
		}
		out = append(out, r)
	}
	return out
}

// WireCodec runs the codec sweep and the selection scaling sweep and
// returns the rendered tables plus the JSON section.
func WireCodec(_ context.Context, opt Options) (string, *WireCodecSection, error) {
	dim := wireCodecDim
	selDim := selectionDim
	fabrics := []string{"inproc", "tcp"}
	densities := []float64{0.001, 0.01}
	if opt.Quick {
		dim = wireCodecQuickDim
		selDim = selectionQuickDim
		fabrics = []string{"inproc"}
		densities = []float64{0.001}
	}
	shardCounts := []int{1, 2, 4}
	if opt.SelectShards > 1 {
		shardCounts = []int{1, opt.SelectShards}
	}

	section := &WireCodecSection{
		Dim: dim, Workers: wireCodecWorkers, Layers: wireCodecLayers,
		SelectDim: selDim, NumCPU: runtime.NumCPU(),
	}

	var sb strings.Builder
	sb.WriteString("Wire codec v3 + sharded selection (real pipeline, seeded)\n")
	fmt.Fprintf(&sb, "P=%d, dim=%d, %d-layer gradient, %d CPUs\n\n", wireCodecWorkers, dim, wireCodecLayers, section.NumCPU)

	codecTb := metrics.NewTable("config", "ns/op", "wire B/rank", "reduction vs v1", "tally ratio")
	v1Bytes := map[string]int64{}
	for _, fabric := range fabrics {
		for _, rho := range densities {
			for _, codec := range []sparse.Codec{sparse.CodecV1, sparse.CodecV3, sparse.CodecV3F16} {
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
				section.Codec = append(section.Codec, r)
				codecTb.AddRow(r.Name, fmt.Sprint(r.NsPerOp), fmt.Sprint(r.WireBytesPerRank),
					fmt.Sprintf("%.2fx", r.BytesReduction), fmt.Sprintf("%.2fx", r.TallyRatio))
			}
		}
	}
	sb.WriteString(codecTb.String())
	sb.WriteString("\nreduction = v1 wire bytes / codec wire bytes, same fabric and rho;\ntally ratio = flat-equivalent / encoded bytes per frame (what workers log).\n\n")

	section.Selection = measureSelection(selDim, shardCounts, opt.seed())
	selTb := metrics.NewTable("shards", "measured ns/op", "critical-path ns/op", "max-shard ns", "merge ns", "speedup (crit. path)")
	for _, r := range section.Selection {
		selTb.AddRow(fmt.Sprint(r.Shards), fmt.Sprint(r.MeasuredNs), fmt.Sprint(r.CriticalPathNs),
			fmt.Sprint(r.MaxShardNs), fmt.Sprint(r.MergeNs), fmt.Sprintf("%.2fx", r.SpeedupCriticalPath))
	}
	fmt.Fprintf(&sb, "Sharded selection over a %d-element gradient (k=%d, rho=0.001):\n\n", selDim, section.Selection[0].K)
	sb.WriteString(selTb.String())
	sb.WriteString("\ncritical path = max(per-shard select) + merge, from the engine's\nper-shard instrumentation: the wall time given >= shards cores. On this\nmachine measured wall time is bounded by NumCPU; results are\nbit-identical to serial selection at every shard count (asserted by\ninternal/sparse/shard_test.go).\n")
	return sb.String(), section, nil
}

// WriteWireCodecJSON runs the harness and folds the wire_codec section
// into BENCH_gtopk.json (or opt.JSONPath), preserving the hotpath
// experiment's sections.
func WriteWireCodecJSON(ctx context.Context, opt Options) (string, error) {
	out, section, err := WireCodec(ctx, opt)
	if err != nil {
		return "", err
	}
	path := opt.JSONPath
	if path == "" {
		path = "BENCH_gtopk.json"
	}
	report, err := loadHotPathReport(path)
	if err != nil {
		// No (or unreadable) artifact: start a minimal report carrying
		// just this section plus the environment stamp.
		report = &hotPathReport{
			Schema:      hotPathSchema,
			GeneratedBy: "gtopk-bench -exp wire-codec",
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
	report.WireCodec = section
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("bench: write %s: %w", path, err)
	}
	return out + fmt.Sprintf("\nupdated %s (wire_codec section: %d codec cells, %d shard counts)\n",
		path, len(section.Codec), len(section.Selection)), nil
}
