package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/quant"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// Sizes of the side measurements of a traced run. They scale with the
// timed step count so the -smoke profile stays small.
const (
	replayCalls   = 200  // codec/kernel replays; the median is reported
	pingMessages  = 2000 // 1 KiB round trips, cut short after pingBudget
	pingBudget    = 2 * time.Second
	pingBytes     = 1 << 10 //
	streamFrames  = 200     // 1 MiB one-way frames
	streamBytes   = 1 << 20 //
	baselineShare = 8       // baselines run steps/baselineShare steps (at least 10)
)

// runLayers is the traced run of a workload. It runs the same workload
// three times for cfg.steps steps — untraced (the reference), traced,
// and through the decomposed step — checks that all three computed the
// same weights, and reports every per-layer metric.
func runLayers(ctx context.Context, cfg runConfig) *runResult {
	res := &runResult{Correct: true}
	m := newMetricSet(perLayer)
	w, n := cfg.spec, cfg.steps
	tk, err := newTask(w, cfg.seed)
	if err != nil {
		res.fail("inputs: %v", err)
		return res
	}
	// phase builds a variant of the workload, runs warm-up plus steps timed
	// steps and applies the output checks; the caller closes the cluster.
	phase := func(spec workloadSpec, o buildOpts, steps int, what string) (*cluster, *observed) {
		o.spanSteps = steps
		cl, err := buildCluster(spec, tk, cfg.seed, o)
		if err != nil {
			res.fail("%s: set-up: %v", what, err)
			return nil, nil
		}
		obs, err := warmAndRun(ctx, cl, steps)
		if err != nil {
			cl.close()
			res.fail("%s: %v", what, err)
			return nil, nil
		}
		obs.check(res, what)
		return cl, obs
	}
	steps := float64(n)
	perStepMS := func(ns int64) float64 { return float64(ns) / 1e6 / steps }

	// 1. Reference: untraced.
	ref, refObs := phase(w, buildOpts{}, n, "reference run")
	if ref == nil {
		return res
	}
	refObs.checkLossFell(res, "reference run")
	rankSteps := steps * float64(len(ref.ranks))
	m.set("core.allocs_per_step", float64(refObs.mallocs)/rankSteps, n)
	m.set("core.alloc_bytes_per_step", float64(refObs.allocBytes)/rankSteps, n)
	third := max(n/3, 1)
	m.set("core.step_drift", median(refObs.stepsMS[n-third:])/median(refObs.stepsMS[:third]), third)
	m.set("bench.step_ms_p95", nearestRank(refObs.stepsMS, 0.95), n)
	m.set("core.final_loss", refObs.finalLoss, min(finalLossWindow, n))
	m.set("core.steps_to_target", float64(refObs.toTarget), n)
	if sp := ref.ranks[0].sp; sp != nil {
		m.set("core.residual_l2", sp.ResidualNorm(), 1)
	}
	ref.close()
	res.crc, res.wire, res.loss = refObs.crcs[0], refObs.wire, refObs.finalLoss

	// 2. Traced: tracing Conn, phase hook, α-β clock, wire tally.
	traced, tObs := phase(w, buildOpts{traced: true}, n, "traced run")
	if traced == nil {
		return res
	}
	tObs.sameOutputs(res, refObs, "traced vs untraced run")
	m.set("bench.trace_overhead", median(tObs.stepsMS)/median(refObs.stepsMS)-1, n)
	r0 := traced.ranks[0]
	ph := r0.phases
	m.set("core.compute_ms", perStepMS(ph.computeNS), n)
	m.set("core.aggregate_ms", perStepMS(ph.aggregateNS), n)
	m.set("core.update_ms", perStepMS(ph.updateNS), n)
	rank0Wall := tObs.timed.finish[0][n-1]
	m.set("core.phase_cover", float64(ph.computeNS+ph.aggregateNS+ph.updateNS)/float64(rank0Wall), n)
	if r0.bucketed != nil {
		m.set("core.bucket_sum_ms", perStepMS(ph.bucketSumNS), n)
		m.set("core.bucket_max_ms", perStepMS(ph.bucketMaxNS), n)
	}
	tt := r0.rec.totals(traced.iter - n)
	m.set("transport.send_ms", perStepMS(tt.sendNS), n)
	m.set("transport.recv_wait_ms", perStepMS(tt.recvNS), n)
	if tt.msgsSent > 0 {
		m.set("transport.send_us_per_msg", float64(tt.sendNS)/1e3/float64(tt.msgsSent), tt.msgsSent)
	}
	m.set("transport.msg_bytes_p50", median(r0.rec.msgBytes), len(r0.rec.msgBytes))
	// Counters cover warm-up too (the comm is never reset), so divide by
	// all steps the cluster ran.
	st := r0.comm.Stats()
	all := float64(traced.iter)
	m.set("collective.msgs_per_step", float64(st.MsgsSent)/all, traced.iter)
	m.set("collective.bytes_per_step", float64(st.BytesSent)/all, traced.iter)
	tracers := make([]*rankTracer, len(traced.ranks))
	for i, rs := range traced.ranks {
		tracers[i] = rs.rec
	}
	m.set("collective.hops_per_step", float64(hopsInStep(tracers, traced.iter-1, r0.bucketed != nil)), 1)
	m.set("netsim.modelled_comm_ms", ms(r0.clock.Now())/all, traced.iter)
	wc := r0.tally.Snapshot()
	if wc.Frames > 0 {
		m.set("sparse.frame_bytes", float64(wc.WireBytes)/float64(wc.Frames), int(wc.Frames))
		m.set("sparse.wire_ratio", wc.Ratio(), int(wc.Frames))
	}
	if err := writeTrace(tracePath(cfg.outDir, w.name), tracers); err != nil {
		res.fail("trace: %v", err)
	}
	replay := replayInputs{codec: traced.codec, k: traced.k, frames: r0.rec.captured}
	if r0.bucketed != nil {
		// No decomposed step for the bucketed pipeline: replay a gradient
		// at the final weights instead of a residual snapshot.
		replay.dense = make([]float32, traced.dim)
		r0.gradFn(traced.iter, r0.weights, replay.dense)
	}
	traced.close()

	// 3. Decomposed step (flat and hierarchical gTop-k).
	if w.agg == "gtopk" || w.agg == "hier" {
		dec, dObs := phase(w, buildOpts{traced: true, decomposed: true}, n, "decomposed run")
		if dec == nil {
			return res
		}
		if dObs.timed.err == nil && dObs.crcs[0] != refObs.crcs[0] {
			res.fail("decomposed step: final weights CRC %08x differ from the real aggregator's %08x", dObs.crcs[0], refObs.crcs[0])
		}
		d0 := dec.ranks[0]
		dFrom := dec.iter - n
		for _, sp := range []struct{ metric, span string }{
			{"core.select_ms", spanSelect}, {"core.putback_ms", spanPutBack}, {"core.scatter_ms", spanScatter},
		} {
			v, _ := d0.rec.spanMeanMS(sp.span, dFrom, n)
			m.set(sp.metric, v, n)
		}
		total, wire := d0.rec.spanMeanMS(spanAllreduce, dFrom, n)
		m.set("core.allreduce_ms", total, n)
		m.set("core.allreduce_self_ms", total-wire, n)
		m.set("core.out_nnz", float64(d0.dec.outNNZ)/float64(dec.iter), dec.iter)
		replay.dense = d0.dec.snapshot
		replay.a = d0.dec.local
		if len(dec.ranks) > 1 {
			replay.b = dec.ranks[1].dec.local
		}
		dec.close()
	}

	// 4. Codec and kernel replays on the captured inputs.
	if err := replay.run(m, cfg.seed); err != nil {
		res.fail("replay: %v", err)
	}

	// 5. Fabric probes.
	if err := probeFabric(ctx, w, m, n); err != nil {
		res.fail("fabric probe: %v", err)
	}

	// 6. Baselines: never gated, reported for the paper's comparisons.
	baseSteps := max(n/baselineShare, 10)
	short := w
	short.warmup = min(w.warmup, 10)
	baseline := func(metric string, o buildOpts) {
		cl, obs := phase(short, o, baseSteps, metric)
		if cl == nil {
			return
		}
		cl.close()
		m.set(metric, median(obs.stepsMS), baseSteps)
	}
	baseline("baseline.single_worker_step_ms", buildOpts{ranks: 1})
	baseline("baseline.dense_step_ms", buildOpts{agg: "dense"})
	baseline("baseline.topk_step_ms", buildOpts{agg: "topk"})
	if w.fabric == "shaped" {
		// Same steps as the traced run, so the two p50s compare like for like.
		if cl, obs := phase(w, buildOpts{unshaped: true}, n, "unshaped run"); cl != nil {
			cl.close()
			m.set("baseline.unshaped_step_ms", median(obs.stepsMS), n)
		}
	}
	if w.agg == "bucketed" {
		// The same pipeline through its serial facade: nothing overlaps
		// the backward pass, so its compute phase is pure forward/backward
		// and its aggregate phase is the un-hidden communication cost.
		// It runs the traced run's steps, so drift cancels in the ratio.
		if cl, _ := phase(w, buildOpts{traced: true, unstreamed: true}, n, "unstreamed run"); cl != nil {
			s0 := cl.ranks[0]
			m.set("nn.fwdbwd_ms", perStepMS(s0.phases.computeNS), n)
			if serial := s0.phases.aggregateNS; serial > 0 {
				m.set("core.overlap_hidden_share", 1-float64(ph.aggregateNS)/float64(serial), n)
			}
			cl.close()
		}
	}
	res.Metrics, res.samples = m.export(), m.samples
	return res
}

// replayInputs are the inputs captured during the traced and decomposed
// runs, replayed through single sparse/quant calls.
type replayInputs struct {
	codec  sparse.Codec
	k      int
	dense  []float32      // what the top-k selection scans
	a, b   *sparse.Vector // two ranks' selected k-vectors
	frames [][]byte       // frames rank 0 received in its last step
}

// timeCalls returns the median duration of replayCalls calls in µs.
func timeCalls(fn func()) float64 {
	fn() // warm pools and scratch
	us := make([]float64, replayCalls)
	for i := range us {
		start := time.Now()
		fn()
		us[i] = float64(time.Since(start)) / 1e3
	}
	return median(us)
}

func (in *replayInputs) decode(dst *sparse.Vector, frame []byte) error {
	if in.codec.WireVersion() == 3 {
		return sparse.DecodeV3Into(dst, frame)
	}
	v, err := sparse.DecodeView(frame)
	*dst = v
	return err
}

func (in *replayInputs) run(m *metricSet, seed uint64) error {
	if len(in.frames) == 0 {
		return fmt.Errorf("no frame was captured")
	}
	// Largest captured frame: whole payloads rather than tail chunks.
	sort.SliceStable(in.frames, func(i, j int) bool { return len(in.frames[i]) > len(in.frames[j]) })
	frame := in.frames[0]
	var decoded sparse.Vector
	if err := in.decode(&decoded, frame); err != nil {
		return fmt.Errorf("captured frame: %w", err)
	}
	if in.a == nil {
		// No decomposed step: take two received frames of one dimension.
		in.a = decoded.Clone()
		for _, f := range in.frames[1:] {
			var v sparse.Vector
			if err := in.decode(&v, f); err == nil && v.Dim == in.a.Dim {
				in.b = v.Clone()
				break
			}
		}
	}
	if in.b == nil {
		in.b = in.a
	}

	var dst sparse.Vector
	m.set("sparse.topk_dense_us", timeCalls(func() { sparse.TopKInto(&dst, in.dense, in.k) }), replayCalls)
	var mergeErr error
	kMerge := max(in.a.NNZ(), 1)
	m.set("sparse.merge_us", timeCalls(func() {
		if err := sparse.MergeInto(&dst, in.a, in.b, kMerge); err != nil {
			mergeErr = err
		}
	}), replayCalls)
	if mergeErr != nil {
		return fmt.Errorf("merge: %w", mergeErr)
	}

	values := append([]float32(nil), in.a.Values...)
	if in.codec.Value().Quantized() {
		stack := quant.NewStack(in.codec.Value(), seed)
		m.set("quant.transform_us", timeCalls(func() {
			copy(values, in.a.Values)
			stack.Transform(values)
		}), replayCalls)
		copy(values, in.a.Values)
		scale, levels := stack.Transform(values)
		m.set("sparse.encode_us", timeCalls(func() {
			sparse.PutBuffer(sparse.EncodeSlicesV3(in.codec, in.a.Dim, in.a.Indices, values, scale, levels))
		}), replayCalls)
	} else {
		m.set("sparse.encode_us", timeCalls(func() {
			sparse.PutBuffer(sparse.EncodeSlicesCodec(in.codec, in.a.Dim, in.a.Indices, values))
		}), replayCalls)
	}
	var decErr error
	m.set("sparse.decode_us", timeCalls(func() {
		if err := in.decode(&decoded, frame); err != nil {
			decErr = err
		}
	}), replayCalls)
	return decErr
}

// probeFabric measures the workload's fabric with two ranks: 1 KiB
// round trips and a 1 MiB one-way stream. On the shaped fabric both
// ranks sit in one group (the intra-group link).
func probeFabric(ctx context.Context, w workloadSpec, m *metricSet, steps int) error {
	pings := min(pingMessages, 10*steps)
	frames := min(streamFrames, steps)
	var fabric transport.Fabric
	var err error
	if w.fabric == "tcp" {
		fabric, err = transport.NewTCPWithOptions(2, transport.TCPOptions{})
	} else {
		fabric, err = transport.NewInProcWire(2, transport.WireV1)
	}
	if err != nil {
		return err
	}
	defer fabric.Close() //nolint:errcheck // teardown
	conns := []transport.Conn{fabric.Conn(0), fabric.Conn(1)}
	if w.fabric == "shaped" {
		net := newShaperNet(2, w.group, intraLink, interLink)
		for i, c := range conns {
			conns[i] = &shapedConn{inner: c, net: net}
		}
	}
	comms := []*collective.Comm{collective.New(conns[0]), collective.New(conns[1])}
	recycle := comms[0].RecvIsPrivate()
	recv := func(c *collective.Comm, src, tag int) error {
		b, err := c.RecvTag(ctx, src, tag)
		if err == nil && recycle {
			sparse.PutBuffer(b)
		}
		return err
	}

	// Echo side: bounce pings until one is marked last, then sink the
	// stream and acknowledge.
	echoErr := make(chan error, 1)
	go func() {
		c := comms[1]
		small := make([]byte, pingBytes)
		for last := false; !last; {
			b, err := c.RecvTag(ctx, 0, 0)
			if err != nil {
				echoErr <- err
				return
			}
			last = b[0] == 1
			if recycle {
				sparse.PutBuffer(b)
			}
			if err := c.SendTag(ctx, 0, 1, small); err != nil {
				echoErr <- err
				return
			}
		}
		for i := 0; i < frames; i++ {
			if err := recv(c, 0, 2); err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- c.SendTag(ctx, 0, 3, small[:1])
	}()

	c := comms[0]
	var rtts []float64
	for begin := time.Now(); ; {
		small := make([]byte, pingBytes) // the in-process fabric hands the slice over
		last := len(rtts) == pings-1 || time.Since(begin) > pingBudget
		if last {
			small[0] = 1
		}
		start := time.Now()
		if err := c.SendTag(ctx, 1, 0, small); err != nil {
			return err
		}
		if err := recv(c, 1, 1); err != nil {
			return err
		}
		rtts = append(rtts, float64(time.Since(start))/1e3)
		if last {
			break
		}
	}
	m.set("transport.rtt_us", median(rtts), len(rtts))
	big := make([]byte, streamBytes)
	start := time.Now()
	for i := 0; i < frames; i++ {
		if err := c.SendTag(ctx, 1, 2, big); err != nil {
			return err
		}
	}
	if err := recv(c, 1, 3); err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()
	m.set("transport.stream_mbps", float64(frames)*streamBytes*8/1e6/elapsed, frames)
	return <-echoErr
}
