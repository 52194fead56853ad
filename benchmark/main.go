// Command benchmark is the repository's training-step benchmark: it
// drives the real core.Trainer.Step loop of a P-rank in-process cluster
// on four workloads that stress different layers, reports the end-to-end
// metrics a user of the training system sees with tracing off, and takes
// per-layer numbers from a separate traced run — with every span
// recorded from outside the program, around the calls into each layer.
// BENCHMARK.json at the repository root names the workloads and metrics;
// README.md in this directory explains them.
//
// One run (the form BENCHMARK.json's command uses):
//
//	benchmark -workload comm-tcp -seed 42 -seconds 20 -trace 0
//
// prints the run's metrics and, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Without
// -workload it runs every workload (each run in a fresh child process),
// prints a table and writes benchmark/out/result.json; -selfcheck does
// that twice and compares the two; -compare old.json new.json compares
// two result files and exits 1 if any metric got worse than its bound.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

// Defaults of a full run. setupRepeats set-ups are timed per end-to-end
// run and their median is setup_s; traced runs measure a fifth of the
// steps (three times over: untraced, traced, decomposed).
const (
	defaultSeed    = 42 // 7 is the held-out seed
	defaultSeconds = 20
	setupRepeats   = 5
	tracedShare    = 5
	defaultOutDir  = "benchmark/out"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed      = fs.Uint64("seed", defaultSeed, "seed every input is generated from")
		seconds   = fs.Float64("seconds", defaultSeconds, "length of the timed phase; fixes the step count N = rate x seconds")
		traced    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		smoke     = fs.Bool("smoke", false, "CI profile: dims / 20, 40 timed steps")
		outDir    = fs.String("out", defaultOutDir, "directory for trace and result files")
		repeat    = fs.Int("repeat", 1, "all-workloads mode: end-to-end runs per workload (medians are reported)")
		compare   = fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
		selfcheck = fs.Bool("selfcheck", false, "run the whole set twice and compare the two results")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case *workload != "":
		spec, err := findWorkload(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		res := runOne(ctx, spec, *seed, *seconds, *traced != 0, *smoke, *outDir)
		printRun(spec, res, *traced != 0)
		if counts, err := json.Marshal(res.samples); err == nil {
			fmt.Println(samplesPrefix + string(counts))
		}
		if err := emitResultLine(res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	}
	suite := suiteConfig{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *outDir, repeat: *repeat}
	if *selfcheck {
		return runSelfcheck(suite)
	}
	result, ok := runSuite(suite)
	if err := result.write(*outDir + "/result.json"); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne executes one workload in this process.
func runOne(ctx context.Context, spec workloadSpec, seed uint64, seconds float64, traced, smoke bool, outDir string) *runResult {
	// Closed loop: P ranks = P goroutines on GOMAXPROCS = NumCPU threads.
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := runConfig{spec: spec, seed: seed, steps: spec.timedSteps(seconds), setups: setupRepeats, outDir: outDir}
	if smoke {
		cfg.spec, cfg.steps, cfg.setups = spec.smoke(), smokeSteps, 2
	}
	if traced {
		if !smoke {
			cfg.steps = max(cfg.steps/tracedShare, 10)
		}
		return runLayers(ctx, cfg)
	}
	return runEndToEnd(ctx, cfg)
}

// printRun lists a run's metrics by name with unit, kind and samples.
func printRun(spec workloadSpec, res *runResult, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Printf("workload %s (%s)\n", spec.name, map[bool]string{false: "end to end, tracing off", true: "per layer, traced"}[traced])
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Printf("  %-32s %14.6g %-7s %-13s n=%d\n", d.name, v.Value, v.Unit, d.kindOn(spec), res.samples[d.name])
	}
	fmt.Printf("  %-32s %14.6g %-7s %-13s %d of %d steps\n", "failed_steps", float64(res.Failed)/float64(max(res.Attempted, 1)), "share", kindCount, res.Failed, res.Attempted)
	for _, note := range res.notes {
		fmt.Printf("  %s\n", note)
	}
	for _, p := range res.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

// emitResultLine prints the driver's result object as the last line.
func emitResultLine(res *runResult) error {
	if res.Metrics == nil {
		return fmt.Errorf("the run produced no metrics: %s", strings.Join(res.problems, "; "))
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.fail("metric %s is not finite", name)
			v.Value = 0
			res.Metrics[name] = v
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
