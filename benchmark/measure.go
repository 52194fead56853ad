package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// runConfig is one benchmark run: a workload, a seed and a timed step
// count.
type runConfig struct {
	spec   workloadSpec
	seed   uint64
	steps  int // timed steps (N)
	setups int // how often the set-up is repeated for setup_s (end-to-end runs)
	outDir string
}

// runResult is what one run reports. The driver's result line carries
// correct/attempted/failed/metrics; the rest feeds the cross-run checks
// and the result JSON of the all-workloads mode.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	samples  map[string]int
	problems []string
	notes    []string // human-readable extras printed with the run
	crc      uint32   // rank 0's final-weights CRC32 (equal on all ranks when correct)
	wire     float64  // wire_bytes_per_step
	loss     float64  // final_loss
}

func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// observed is one finished phase of a cluster: warm-up plus timed steps.
type observed struct {
	timed     *series
	wire      float64 // bytes sent per rank-step over the timed phase
	finalLoss float64
	loss0     float64
	toTarget  int
	crcs      []uint32
	stepsMS   []float64
	// Heap allocations of the whole process during the timed phase.
	mallocs, allocBytes uint64
}

// warmAndRun runs the warm-up and n timed steps.
func warmAndRun(ctx context.Context, cl *cluster, n int) (*observed, error) {
	warm := cl.run(ctx, cl.spec.warmup, false)
	if warm.err != nil {
		return nil, fmt.Errorf("warm-up: %w", warm.err)
	}
	return timedRun(ctx, cl, warm, n), nil
}

// timedRun runs the n timed steps after a warm-up and derives the
// numbers every kind of run needs. Traced clusters keep the inputs of
// the last step for the codec replay.
func timedRun(ctx context.Context, cl *cluster, warm *series, n int) *observed {
	for _, rs := range cl.ranks {
		rs.phases = phaseSums{}
	}
	sentBefore := cl.bytesSent()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o := &observed{timed: cl.run(ctx, n, true)}
	runtime.ReadMemStats(&after)
	o.mallocs, o.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	o.wire = float64(cl.bytesSent()-sentBefore) / float64(len(cl.ranks)*n)
	o.crcs = cl.weightsCRC()
	o.stepsMS = stepDurations(o.timed)
	if o.timed.err == nil {
		loss := rankMeanLoss(warm, o.timed)
		o.loss0 = loss[0]
		o.finalLoss = mean(loss[max(len(loss)-finalLossWindow, 0):])
		o.toTarget = stepsToTarget(loss)
	}
	return o
}

// check applies the output checks every run must pass: no failed step
// and replicas that agree.
func (o *observed) check(res *runResult, what string) {
	res.Attempted += o.timed.steps
	res.Failed += o.timed.failedSteps()
	if o.timed.err != nil {
		res.fail("%s: %v", what, o.timed.err)
		return
	}
	for r, c := range o.crcs {
		if c != o.crcs[0] {
			res.fail("%s: weights CRC32 of rank %d (%08x) differs from rank 0 (%08x)", what, r, c, o.crcs[0])
		}
	}
}

// checkLossFell is the convergence guard of the workload's own run (the
// traced and decomposed runs are held to it bit for bit; the few-step
// baselines are not held to it at all).
func (o *observed) checkLossFell(res *runResult, what string) {
	if o.timed.err == nil && !(o.finalLoss < o.loss0) {
		res.fail("%s: final loss %v did not fall below the step-0 loss %v", what, o.finalLoss, o.loss0)
	}
}

// sameOutputs checks that two runs of one workload computed the same
// thing: wire bytes, final loss and final weights.
func (o *observed) sameOutputs(res *runResult, other *observed, what string) {
	if o.timed.err != nil || other.timed.err != nil {
		return
	}
	if o.wire != other.wire || o.finalLoss != other.finalLoss || o.crcs[0] != other.crcs[0] {
		res.fail("%s: wire %v vs %v B/step, final loss %v vs %v, weights CRC %08x vs %08x",
			what, o.wire, other.wire, o.finalLoss, other.finalLoss, o.crcs[0], other.crcs[0])
	}
}

// runEndToEnd is the untraced run: the set-up repeated cfg.setups times
// (its median is setup_s), then the timed phase on the last cluster.
func runEndToEnd(ctx context.Context, cfg runConfig) *runResult {
	res := &runResult{Correct: true}
	m := newMetricSet(endToEnd)
	var (
		setupS []float64
		cl     *cluster
		warm   *series
	)
	for i := 0; i < cfg.setups; i++ {
		if cl != nil {
			cl.close()
			cl = nil
			runtime.GC()
			debug.FreeOSMemory() // keep earlier set-ups out of the RSS high-water mark
		}
		start := time.Now()
		tk, err := newTask(cfg.spec, cfg.seed)
		if err == nil {
			cl, err = buildCluster(cfg.spec, tk, cfg.seed, buildOpts{})
		}
		if err != nil {
			res.fail("set-up: %v", err)
			return res
		}
		if warm = cl.run(ctx, cfg.spec.warmup, false); warm.err != nil {
			cl.close()
			res.fail("warm-up: %v", warm.err)
			return res
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer cl.close()

	o := timedRun(ctx, cl, warm, cfg.steps)
	o.check(res, "run")
	o.checkLossFell(res, "run")
	res.crc, res.wire, res.loss = o.crcs[0], o.wire, o.finalLoss

	n := len(o.stepsMS)
	res.notes = append(res.notes,
		fmt.Sprintf("not gated: step_ms_p99 %.6g, final_loss %.6g (step-0 loss %.6g), steps_to_target %d", nearestRank(o.stepsMS, 0.99), o.finalLoss, o.loss0, o.toTarget),
		"step_ms p50 by tenth of the run: "+tenths(o.stepsMS, median),
		"rank-mean loss by tenth of the run:  "+tenths(rankMeanLoss(o.timed), mean))
	m.set("setup_s", median(setupS), len(setupS))
	m.set("step_ms_p50", median(o.stepsMS), n)
	m.set("step_ms_p10", nearestRank(o.stepsMS, 0.10), n)
	m.set("steps_per_s", float64(n)/(sum(o.stepsMS)/1e3), n)
	m.set("wire_bytes_per_step", o.wire, n)
	rss, err := peakRSSMiB()
	if err != nil {
		res.fail("peak RSS: %v", err)
	}
	m.set("peak_rss_mb", rss, 1)
	res.Metrics, res.samples = m.export(), m.samples
	return res
}

// tenths summarises a per-step series as ten consecutive windows.
func tenths(xs []float64, stat func([]float64) float64) string {
	var sb strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&sb, " %.4g", stat(xs[i*len(xs)/10:(i+1)*len(xs)/10]))
	}
	return sb.String()
}

// tracePath names the span dump of a workload.
func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, workload+".trace.json")
}
