package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Metric kinds. A number is only ever one of these; modelled and
// emulated-link numbers never stand in for measurements.
const (
	kindMeasured = "measured"      // wall clock on this machine's real fabrics
	kindCount    = "count"         // counted by the program; repeats exactly per seed
	kindEmulated = "emulated-link" // wall clock, but dominated by the benchmark's link shaper (wan-hier)
	kindModelled = "modelled"      // produced by the α-β virtual clock
)

// metricDef describes one metric. BENCHMARK.json carries name, unit,
// direction and (end-to-end only) bound; the layer, kind and the
// end-to-end metric × workload a layer metric should move live here and
// in README.md, because the BENCHMARK.json schema admits no further keys.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening as a share of the baseline
	layer  string  // per-layer only: repo package
	kind   string  // wan-hier step times report kindEmulated instead
	moves  string  // per-layer only: what it should move, on which workload
}

// endToEnd lists what a user of the training system sees. Three more
// numbers the issue planned as end-to-end metrics are reported but not
// gated here, because across seeds (which is how the benchmark contract
// measures steadiness) they cannot hold a bound of at most 25 %: the p99
// step time (spread 12-28 %) and, on model-overlap, final_loss and
// steps_to_target (spread 35-120 %: every seed is a different dataset).
// They are per-layer metrics (bench.step_ms_p95, core.final_loss,
// core.steps_to_target) and are printed with every end-to-end run.
// failed_steps is the result line's attempted/failed pair, because a
// metric must never be 0.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, kind: kindMeasured},
	{name: "step_ms_p50", unit: "ms", better: "lower", bound: 0.25, kind: kindMeasured},
	{name: "step_ms_p10", unit: "ms", better: "lower", bound: 0.25, kind: kindMeasured},
	{name: "steps_per_s", unit: "1/s", better: "higher", bound: 0.25, kind: kindMeasured},
	{name: "wire_bytes_per_step", unit: "B", better: "lower", bound: 0.02, kind: kindCount},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.10, kind: kindMeasured},
}

// perLayer lists the layer metrics of the traced run (mean per step at
// rank 0 unless stated). A metric that does not apply to a workload
// reports 0.
var perLayer = []metricDef{
	{name: "core.compute_ms", unit: "ms", better: "lower", layer: "core", kind: kindMeasured, moves: "step_ms_p50 on model-overlap"},
	{name: "core.aggregate_ms", unit: "ms", better: "lower", layer: "core", kind: kindMeasured, moves: "step_ms_p50 on every workload"},
	{name: "core.update_ms", unit: "ms", better: "lower", layer: "core", kind: kindMeasured, moves: "step_ms_p50 on sel-inproc"},
	{name: "core.phase_cover", unit: "ratio", better: "higher", layer: "core", kind: kindMeasured, moves: "none; (compute+aggregate+update)/step must stay within 0.95-1.05"},
	{name: "core.select_ms", unit: "ms", better: "lower", layer: "core", kind: kindMeasured, moves: "step_ms_p50 on sel-inproc"},
	{name: "core.allreduce_ms", unit: "ms", better: "lower", layer: "core", kind: kindMeasured, moves: "step_ms_p50 on comm-tcp and wan-hier"},
	{name: "core.allreduce_self_ms", unit: "ms", better: "lower", layer: "core", kind: kindMeasured, moves: "step_ms_p50 on comm-tcp; must not move wan-hier by more than 5%"},
	{name: "core.putback_ms", unit: "ms", better: "lower", layer: "core", kind: kindMeasured, moves: "step_ms_p50 on comm-tcp"},
	{name: "core.scatter_ms", unit: "ms", better: "lower", layer: "core", kind: kindMeasured, moves: "step_ms_p50 on sel-inproc"},
	{name: "core.bucket_sum_ms", unit: "ms", better: "lower", layer: "core", kind: kindModelled, moves: "none; α-β price of the four bucket collectives run back to back (model-overlap)"},
	{name: "core.bucket_max_ms", unit: "ms", better: "lower", layer: "core", kind: kindModelled, moves: "none; α-β price of the slowest bucket (model-overlap)"},
	{name: "core.overlap_hidden_share", unit: "ratio", better: "higher", layer: "core", kind: kindMeasured, moves: "step_ms_p50 on model-overlap only"},
	{name: "core.allocs_per_step", unit: "count", better: "lower", layer: "core", kind: kindCount, moves: "peak_rss_mb and the step-time tail on comm-tcp and model-overlap"},
	{name: "core.alloc_bytes_per_step", unit: "B", better: "lower", layer: "core", kind: kindCount, moves: "peak_rss_mb and the step-time tail on comm-tcp and model-overlap"},
	{name: "core.step_drift", unit: "ratio", better: "lower", layer: "core", kind: kindMeasured, moves: "step_ms_p50 on model-overlap (denormal drift)"},
	{name: "core.final_loss", unit: "loss", better: "lower", layer: "core", kind: kindCount, moves: "none; rank-mean loss over the last 50 steps of the reference run (convergence guard)"},
	{name: "core.steps_to_target", unit: "steps", better: "lower", layer: "core", kind: kindCount, moves: "none; first step whose trailing-25 loss is at most 0.1 x the step-0 loss (convergence guard)"},
	{name: "core.residual_l2", unit: "l2", better: "lower", layer: "core", kind: kindCount, moves: "core.final_loss and core.steps_to_target"},
	{name: "core.out_nnz", unit: "count", better: "higher", layer: "core", kind: kindCount, moves: "wire_bytes_per_step and core.final_loss"},
	{name: "sparse.topk_dense_us", unit: "us", better: "lower", layer: "sparse", kind: kindMeasured, moves: "step_ms_p50 on sel-inproc"},
	{name: "sparse.merge_us", unit: "us", better: "lower", layer: "sparse", kind: kindMeasured, moves: "step_ms_p50 on comm-tcp"},
	{name: "sparse.encode_us", unit: "us", better: "lower", layer: "sparse", kind: kindMeasured, moves: "step_ms_p50 on comm-tcp"},
	{name: "sparse.decode_us", unit: "us", better: "lower", layer: "sparse", kind: kindMeasured, moves: "step_ms_p50 on comm-tcp"},
	{name: "sparse.frame_bytes", unit: "B", better: "lower", layer: "sparse", kind: kindCount, moves: "wire_bytes_per_step everywhere; step_ms_p50 on wan-hier only"},
	{name: "sparse.wire_ratio", unit: "ratio", better: "higher", layer: "sparse", kind: kindCount, moves: "wire_bytes_per_step everywhere; step_ms_p50 on wan-hier only"},
	{name: "quant.transform_us", unit: "us", better: "lower", layer: "quant", kind: kindMeasured, moves: "step_ms_p50 on comm-tcp"},
	{name: "collective.msgs_per_step", unit: "count", better: "lower", layer: "collective", kind: kindCount, moves: "step_ms_p50 on comm-tcp"},
	{name: "collective.bytes_per_step", unit: "B", better: "lower", layer: "collective", kind: kindCount, moves: "step_ms_p50 on wan-hier"},
	{name: "collective.hops_per_step", unit: "count", better: "lower", layer: "collective", kind: kindCount, moves: "step_ms_p50 on wan-hier"},
	{name: "transport.send_us_per_msg", unit: "us", better: "lower", layer: "transport", kind: kindMeasured, moves: "step_ms_p50 on comm-tcp"},
	{name: "transport.send_ms", unit: "ms", better: "lower", layer: "transport", kind: kindMeasured, moves: "step_ms_p50 on comm-tcp"},
	{name: "transport.recv_wait_ms", unit: "ms", better: "lower", layer: "transport", kind: kindMeasured, moves: "step_ms_p50 on wan-hier (link wait); rank skew elsewhere"},
	{name: "transport.msg_bytes_p50", unit: "B", better: "lower", layer: "transport", kind: kindCount, moves: "step_ms_p50 on wan-hier"},
	{name: "transport.rtt_us", unit: "us", better: "lower", layer: "transport", kind: kindMeasured, moves: "step_ms_p50 on comm-tcp"},
	{name: "transport.stream_mbps", unit: "Mbit/s", better: "higher", layer: "transport", kind: kindMeasured, moves: "none at these frame sizes"},
	{name: "nn.fwdbwd_ms", unit: "ms", better: "lower", layer: "nn", kind: kindMeasured, moves: "step_ms_p50 on model-overlap only"},
	{name: "baseline.single_worker_step_ms", unit: "ms", better: "lower", layer: "baseline", kind: kindMeasured, moves: "none; the same task at P=1"},
	{name: "baseline.dense_step_ms", unit: "ms", better: "lower", layer: "baseline", kind: kindMeasured, moves: "none; dense S-SGD on the workload's fabric (Table IV)"},
	{name: "baseline.topk_step_ms", unit: "ms", better: "lower", layer: "baseline", kind: kindMeasured, moves: "none; Top-k S-SGD on the workload's fabric (Table IV)"},
	{name: "baseline.unshaped_step_ms", unit: "ms", better: "lower", layer: "baseline", kind: kindMeasured, moves: "none; wan-hier with the link shaper off"},
	{name: "netsim.modelled_comm_ms", unit: "ms", better: "lower", layer: "netsim", kind: kindModelled, moves: "none; continuity with Fig. 9/10 only"},
	{name: "bench.step_ms_p95", unit: "ms", better: "lower", layer: "bench", kind: kindMeasured, moves: "none; tail of the reference run's step series, too noisy across runs to gate"},
	{name: "bench.trace_overhead", unit: "ratio", better: "lower", layer: "bench", kind: kindMeasured, moves: "none; traced p50 / untraced p50 - 1 must stay below 0.10"},
}

// kindOn resolves a metric's kind on a workload: on the shaped workload
// every wall-clock number that includes link waits is dominated by the
// benchmark's own link shaper.
func (m metricDef) kindOn(w workloadSpec) string {
	if m.kind != kindMeasured || w.fabric != "shaped" {
		return m.kind
	}
	switch m.name {
	case "setup_s", "peak_rss_mb", "baseline.single_worker_step_ms", "baseline.unshaped_step_ms",
		"core.compute_ms", "core.update_ms", "core.select_ms", "core.putback_ms", "core.scatter_ms",
		"core.allreduce_self_ms", "quant.transform_us", "nn.fwdbwd_ms":
		return kindMeasured
	}
	if strings.HasPrefix(m.name, "sparse.") {
		return kindMeasured
	}
	return kindEmulated
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a definition list, so a metric that
// is not defined cannot be emitted and one that is defined cannot be
// forgotten.
type metricSet struct {
	defs    []metricDef
	values  map[string]float64
	samples map[string]int
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}, samples: map[string]int{}}
}

func (m *metricSet) set(name string, v float64, samples int) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = v
			m.samples[name] = samples
			return
		}
	}
	panic("benchmark: metric " + name + " is not defined")
}

// export renders every defined metric (0 for those that do not apply).
func (m *metricSet) export() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = metricValue{Value: m.values[d.name], Unit: d.unit}
	}
	return out
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sortedCopy returns xs sorted ascending.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the middle pair for even counts); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// nearestRank returns the q-quantile (0<q<=1) by the nearest-rank rule.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean of xs; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// stepDurations turns per-rank finish times into the cluster's step
// series: step i lasts from when all ranks finished step i-1 to when all
// finished step i.
func stepDurations(s *series) []float64 {
	out := make([]float64, 0, s.steps)
	var prev time.Duration
	for i := 0; i < s.steps; i++ {
		var all time.Duration
		for r := range s.finish {
			all = max(all, s.finish[r][i])
		}
		out = append(out, ms(all-prev))
		prev = all
	}
	return out
}

// rankMeanLoss averages the per-rank losses of each step.
func rankMeanLoss(parts ...*series) []float64 {
	var out []float64
	for _, s := range parts {
		for i := 0; i < s.steps; i++ {
			var sum float64
			for r := range s.loss {
				sum += s.loss[r][i]
			}
			out = append(out, sum/float64(len(s.loss)))
		}
	}
	return out
}

// Loss-curve constants of the quality metrics.
const (
	finalLossWindow = 50  // final_loss averages the last 50 steps
	targetWindow    = 25  // steps_to_target looks at trailing-25 means
	targetFraction  = 0.1 // target: 0.1 × the step-0 loss
)

// stepsToTarget returns the number of steps after which the trailing
// mean loss first reaches the target, len(loss)+1 if it never does.
func stepsToTarget(loss []float64) int {
	if len(loss) == 0 {
		return 1
	}
	target := targetFraction * loss[0]
	var window float64
	for i, l := range loss {
		window += l
		if i >= targetWindow {
			window -= loss[i-targetWindow]
		}
		if i >= targetWindow-1 && window/targetWindow <= target {
			return i + 1
		}
	}
	return len(loss) + 1
}

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close() //nolint:errcheck // read-only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
