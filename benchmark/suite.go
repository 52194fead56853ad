package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"gtopkssgd/internal/sparse"
)

// suiteConfig is one pass over every workload.
type suiteConfig struct {
	seed    uint64
	seconds float64
	smoke   bool
	outDir  string
	repeat  int
	// inProcess runs the workloads in this process instead of a fresh
	// child each (tests, where the executable is not the benchmark).
	inProcess bool
}

// reportedMetric is one metric of a result file.
type reportedMetric struct {
	Value   float64   `json:"value"` // median of Runs
	Unit    string    `json:"unit"`
	Kind    string    `json:"kind"`
	Samples int       `json:"samples"` // observations behind one run's value
	Runs    []float64 `json:"runs"`
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	EndToEnd  map[string]reportedMetric `json:"end_to_end"`
	PerLayer  map[string]reportedMetric `json:"per_layer"`
}

// suiteResult is the result file: provenance plus every workload.
type suiteResult struct {
	Meta struct {
		Commit     string  `json:"commit"`
		Seed       uint64  `json:"seed"`
		Seconds    float64 `json:"seconds"`
		Profile    string  `json:"profile"`
		GoVersion  string  `json:"go_version"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		NumCPU     int     `json:"num_cpu"`
		Kernels    string  `json:"kernels"`
	} `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func (r *suiteResult) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// samplesPrefix marks the line on which a single run lists per-metric
// sample counts for the suite (the result line itself admits no more keys).
const samplesPrefix = "#samples "

// runChild runs one workload run, in a fresh child process unless the
// suite is in-process, prints its report and returns its result with
// sample counts.
func runChild(s suiteConfig, spec workloadSpec, traced bool) (*runResult, error) {
	if s.inProcess {
		res := runOne(context.Background(), spec, s.seed, s.seconds, traced, s.smoke, s.outDir)
		printRun(spec, res, traced)
		return res, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", spec.name, "-seed", fmt.Sprint(s.seed), "-seconds", fmt.Sprint(s.seconds), "-out", s.outDir, "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if s.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to exit
	res := &runResult{}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, samplesPrefix):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, samplesPrefix)), &res.samples); err != nil {
				return nil, fmt.Errorf("%s: sample counts: %w", spec.name, err)
			}
		case !strings.HasPrefix(line, "{"):
			fmt.Println(line) // the child's own report
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %v", spec.name, runErr, err)
	}
	return res, nil
}

// runSuite runs every workload: s.repeat end-to-end runs, then the
// traced run. It prints each run's metrics and returns the result file
// contents and whether every check passed.
func runSuite(s suiteConfig) (*suiteResult, bool) {
	result := &suiteResult{Workloads: map[string]*workloadResult{}}
	result.Meta.Commit = gitCommit()
	result.Meta.Seed, result.Meta.Seconds = s.seed, s.seconds
	result.Meta.Profile = map[bool]string{false: "full", true: "smoke"}[s.smoke]
	result.Meta.GoVersion = runtime.Version()
	result.Meta.GOMAXPROCS, result.Meta.NumCPU = runtime.NumCPU(), runtime.NumCPU()
	result.Meta.Kernels = sparse.Kernels()
	ok := true
	for _, spec := range workloads {
		wr := &workloadResult{Correct: true, EndToEnd: map[string]reportedMetric{}, PerLayer: map[string]reportedMetric{}}
		result.Workloads[spec.name] = wr
		absorb := func(res *runResult, err error, defs []metricDef, into map[string]reportedMetric) {
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				wr.Correct = false
				return
			}
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for _, d := range defs {
				rm := into[d.name]
				rm.Unit, rm.Kind, rm.Samples = d.unit, d.kindOn(spec), res.samples[d.name]
				rm.Runs = append(rm.Runs, res.Metrics[d.name].Value)
				rm.Value = median(rm.Runs)
				into[d.name] = rm
			}
		}
		for i := 0; i < max(s.repeat, 1); i++ {
			res, err := runChild(s, spec, false)
			absorb(res, err, endToEnd, wr.EndToEnd)
		}
		res, err := runChild(s, spec, true)
		absorb(res, err, perLayer, wr.PerLayer)
		if cover := wr.PerLayer["core.phase_cover"].Value; !s.smoke && (cover < 0.95 || cover > 1.05) {
			fmt.Printf("  NOTE: core.phase_cover %.3f is outside 0.95-1.05\n", cover)
		}
		if over := wr.PerLayer["bench.trace_overhead"].Value; !s.smoke && over >= 0.10 {
			fmt.Printf("  NOTE: bench.trace_overhead %.3f is not below 0.10\n", over)
		}
		ok = ok && wr.Correct
	}
	return result, ok
}

// gitCommit names the checkout's commit, "unknown" outside a git tree.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Verdicts of a comparison row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// spread is the run-to-run spread of a metric as a share of its median:
// the interquartile distance with four or more runs, the range with two
// or three, unknown (0) with one.
func spread(runs []float64) float64 {
	med := median(runs)
	if len(runs) < 2 || med == 0 {
		return 0
	}
	s := sortedCopy(runs)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = nearestRank(s, 0.25), nearestRank(s, 0.75)
	}
	return (hi - lo) / med
}

// compareResults prints one row per workload × end-to-end metric and
// returns how many rows are worse. With exactCounts (selfcheck: same
// code, same seed) count metrics must repeat exactly.
func compareResults(base, cand *suiteResult, exactCounts bool) int {
	worse := 0
	fmt.Printf("%-14s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, spec := range workloads {
		ow, nw := base.Workloads[spec.name], cand.Workloads[spec.name]
		if ow == nil || nw == nil {
			fmt.Printf("%-14s missing from one of the results\n", spec.name)
			worse++
			continue
		}
		if !nw.Correct {
			fmt.Printf("%-14s new result failed its correctness checks\n", spec.name)
			worse++
		}
		for _, d := range endToEnd {
			o, n := ow.EndToEnd[d.name], nw.EndToEnd[d.name]
			change := (n.Value - o.Value) / o.Value // positive = grew
			if d.better == "higher" {
				change = -change
			}
			verdict := verdictOK
			switch {
			case exactCounts && d.kind == kindCount && o.Value != n.Value:
				verdict = verdictWorse
			case max(spread(o.Runs), spread(n.Runs)) > d.bound:
				verdict = verdictUnresolved
			case change > d.bound:
				verdict = verdictWorse
			}
			if verdict == verdictWorse {
				worse++
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %9.4f %6.0f%%  %s\n", spec.name, d.name, o.Value, n.Value, n.Value/o.Value, 100*d.bound, verdict)
		}
	}
	return worse
}

func readResult(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles implements -compare: exit 1 on any worse row.
func compareFiles(oldPath, newPath string) int {
	base, err := readResult(oldPath)
	if err == nil {
		var cand *suiteResult
		if cand, err = readResult(newPath); err == nil {
			if compareResults(base, cand, false) > 0 {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// runSelfcheck runs the whole set twice on the same code and seed and
// holds the benchmark to its own bounds.
func runSelfcheck(s suiteConfig) int {
	first, ok1 := runSuite(s)
	second, ok2 := runSuite(s)
	for i, r := range []*suiteResult{first, second} {
		if err := r.write(fmt.Sprintf("%s/selfcheck-%d.json", s.outDir, i+1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if worse := compareResults(first, second, true); worse > 0 || !ok1 || !ok2 {
		fmt.Printf("selfcheck: %d row(s) worse, checks passed: %v / %v\n", worse, ok1, ok2)
		return 1
	}
	fmt.Println("selfcheck: every end-to-end metric on every workload is ok")
	return 0
}
