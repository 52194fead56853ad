package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json; DisallowUnknownFields pins the
// key set.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the metric and
// workload tables the program emits from, both ways, and to the limits
// of the benchmark contract.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: name or why outside the contract's limits", w.name)
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark emits %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Bound == nil {
			t.Fatalf("end-to-end metric %q has no bound", got.Name)
		}
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || *got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v (bound %v) != table %+v", i, got, *got.Bound, d)
		}
		if d.bound <= 0 || d.bound > 0.25 || !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("end-to-end metric %q is outside the contract's limits", d.name)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing")
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark emits %d", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v != table %+v", i, got, d)
		}
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || d.layer == "" || d.moves == "" {
			t.Errorf("per-layer metric %q is outside the contract's limits or lacks its layer/moves note", d.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric name %q is used twice", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better = %q", d.name, d.better)
		}
		switch d.kind {
		case kindMeasured, kindCount, kindModelled:
		default:
			t.Errorf("metric %q: kind = %q", d.name, d.kind)
		}
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d != the benchmark's default -seconds %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
}

// TestSmokeSuite runs the whole set in the -smoke profile and checks
// that every metric BENCHMARK.json names is emitted with its unit, that
// nothing else is, and that every correctness check (replica agreement,
// traced ≡ untraced, decomposed ≡ real aggregator) passes.
func TestSmokeSuite(t *testing.T) {
	b := readBenchmarkJSON(t)
	outDir := t.TempDir()
	result, ok := runSuite(suiteConfig{seed: defaultSeed, seconds: defaultSeconds, smoke: true, outDir: outDir, repeat: 1, inProcess: true})
	if !ok {
		t.Error("a correctness check failed")
	}
	if result.Meta.GoVersion == "" || result.Meta.Kernels == "" || result.Meta.NumCPU == 0 || result.Meta.Commit == "" {
		t.Errorf("result provenance incomplete: %+v", result.Meta)
	}
	for _, w := range b.Workloads {
		wr := result.Workloads[w.Name]
		if wr == nil {
			t.Errorf("workload %s missing from the result", w.Name)
			continue
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, wr.Correct, wr.Attempted, wr.Failed)
		}
		if len(wr.EndToEnd) != len(b.EndToEnd) || len(wr.PerLayer) != len(b.PerLayer) {
			t.Errorf("%s: emitted %d+%d metrics, BENCHMARK.json names %d+%d", w.Name, len(wr.EndToEnd), len(wr.PerLayer), len(b.EndToEnd), len(b.PerLayer))
		}
		for _, m := range b.EndToEnd {
			got, ok := wr.EndToEnd[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: end-to-end metric %s not emitted", w.Name, m.Name)
			case got.Unit != m.Unit || got.Kind == "" || got.Samples < 1 || len(got.Runs) != 1:
				t.Errorf("%s: %s = %+v, want unit %s with kind and sample count", w.Name, m.Name, got, m.Unit)
			case got.Value <= 0:
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, m.Name, got.Value)
			}
		}
		for _, m := range b.PerLayer {
			if got, ok := wr.PerLayer[m.Name]; !ok || got.Unit != m.Unit || got.Kind == "" {
				t.Errorf("%s: per-layer metric %s = %+v (emitted %v), want unit %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
		if hops := wr.PerLayer["collective.hops_per_step"].Value; hops < 2 {
			t.Errorf("%s: collective.hops_per_step = %v", w.Name, hops)
		}
		if _, err := os.Stat(tracePath(outDir, w.Name)); err != nil {
			t.Errorf("%s: no span dump: %v", w.Name, err)
		}
	}
}

// TestRunsRepeatPerSeed checks that the count metrics of a workload
// depend on the seed alone.
func TestRunsRepeatPerSeed(t *testing.T) {
	spec := workloads[1] // comm-tcp: lossy codec, stochastic rounding, real sockets
	run := func(seed uint64) *runResult {
		res := runOne(context.Background(), spec, seed, defaultSeconds, false, true, t.TempDir())
		if !res.Correct {
			t.Fatalf("seed %d: %v", seed, res.problems)
		}
		return res
	}
	a, b, c := run(7), run(7), run(8)
	if a.crc != b.crc || a.wire != b.wire || a.loss != b.loss {
		t.Errorf("same seed, different outputs: crc %08x/%08x wire %v/%v loss %v/%v", a.crc, b.crc, a.wire, b.wire, a.loss, b.loss)
	}
	if a.crc == c.crc {
		t.Errorf("seeds 7 and 8 produced the same weights (%08x)", a.crc)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(p50 ...float64) *suiteResult {
		r := &suiteResult{Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			wr := &workloadResult{Correct: true, EndToEnd: map[string]reportedMetric{}}
			for _, d := range endToEnd {
				wr.EndToEnd[d.name] = reportedMetric{Value: 10, Runs: []float64{10}}
			}
			wr.EndToEnd["step_ms_p50"] = reportedMetric{Value: median(p50), Runs: p50}
			r.Workloads[w.name] = wr
		}
		return r
	}
	bound := func(name string) float64 {
		for _, d := range endToEnd {
			if d.name == name {
				return d.bound
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return 0
	}
	base := mk(10)
	p50 := bound("step_ms_p50")
	if n := compareResults(base, mk(10*(1+0.9*p50)), false); n != 0 {
		t.Errorf("worse by 0.9 x bound: %d rows worse, want 0", n)
	}
	if n := compareResults(base, mk(10*(1+1.1*p50)), false); n != len(workloads) {
		t.Errorf("worse by 1.1 x bound: %d rows worse, want %d", n, len(workloads))
	}
	// A spread wider than the bound resolves nothing, whatever the medians say.
	if n := compareResults(base, mk(9, 10*(1+1.2*p50), 10*(1+1.3*p50)), false); n != 0 {
		t.Errorf("unresolved rows counted as worse: %d", n)
	}
	// steps_per_s is higher-is-better: a drop is what is worse.
	slow := mk(10)
	for _, wr := range slow.Workloads {
		v := 10 * (1 - 1.1*bound("steps_per_s"))
		wr.EndToEnd["steps_per_s"] = reportedMetric{Value: v, Runs: []float64{v}}
	}
	if n := compareResults(base, slow, false); n != len(workloads) {
		t.Errorf("steps_per_s down by 1.1 x bound: %d rows worse, want %d", n, len(workloads))
	}
	// Selfcheck: counts must repeat exactly.
	drift := mk(10)
	for _, wr := range drift.Workloads {
		wr.EndToEnd["wire_bytes_per_step"] = reportedMetric{Value: 10.0001, Runs: []float64{10.0001}}
	}
	if n := compareResults(base, drift, true); n != len(workloads) {
		t.Errorf("count drift under selfcheck: %d rows worse, want %d", n, len(workloads))
	}
}

func TestSeriesStatistics(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1
	}
	if got := nearestRank(xs, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	loss := make([]float64, 60)
	for i := range loss {
		loss[i] = 1
		if i >= 10 {
			loss[i] = 0.05
		}
	}
	// Trailing-25 mean reaches 0.1 once 24 of its 25 steps are at 0.05:
	// (1 + 24·0.05)/25 = 0.088, at step index 33 → 34 steps.
	if got := stepsToTarget(loss); got != 34 {
		t.Errorf("stepsToTarget = %d, want 34", got)
	}
	if got := stepsToTarget(loss[:20]); got != 21 {
		t.Errorf("stepsToTarget on a run that never gets there = %d, want len+1 = 21", got)
	}
}
