package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/metrics"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/quant"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/tensor"
	"gtopkssgd/internal/transport"
)

// buildOpts selects the variant of a workload's cluster to build. The
// zero value is the workload itself, untraced.
type buildOpts struct {
	ranks      int    // 0 = the workload's P (1 = the single-worker baseline)
	agg        string // "" = the workload's aggregator; baselines use "dense", "topk"
	unshaped   bool   // leave the link shaper out
	unstreamed bool   // bucketed aggregator through its serial facade
	traced     bool   // tracing Conn + phase hook + α-β clock + wire tally
	decomposed bool   // the benchmark's layer-by-layer step instead of Trainer.Step
	spanSteps  int    // expected step count (span capacity)
}

// rankState is one rank of a built cluster.
type rankState struct {
	comm     *collective.Comm
	step     func(ctx context.Context, iter int) (float64, error)
	weights  []float32
	gradFn   core.GradFn
	sp       *core.Sparsifier         // nil when the aggregator hides it
	bucketed *core.BucketedAggregator // non-nil for the bucketed aggregator
	dec      *decomposedStep
	rec      *rankTracer
	clock    *netsim.Clock
	tally    *metrics.WireTally

	phases phaseSums // filled by the phase hook (traced runs)
}

// phaseSums accumulates what the trainer's phase hook reports; timedRun
// zeroes it when the timed phase starts.
type phaseSums struct {
	computeNS, aggregateNS, updateNS int64
	bucketSumNS, bucketMaxNS         int64 // α-β price of the bucket collectives: sum, slowest
}

// cluster is a P-rank in-process cluster: one goroutine per rank, closed
// loop (a rank's next step starts when its previous one returns).
type cluster struct {
	spec   workloadSpec
	codec  sparse.Codec
	dim    int
	k      int
	fabric transport.Fabric
	ranks  []*rankState
	iter   int
}

// buildCluster generates nothing itself: inputs come from the task.
func buildCluster(w workloadSpec, tk task, seed uint64, o buildOpts) (*cluster, error) {
	p := w.ranks
	if o.ranks > 0 {
		p = o.ranks
	}
	aggKind := w.agg
	if o.agg != "" {
		aggKind = o.agg
	}
	codec, err := sparse.ParseCodec(w.codec)
	if err != nil {
		return nil, err
	}
	c := &cluster{spec: w, codec: codec, dim: tk.dim(), k: w.k(tk.dim())}

	var shaper *shaperNet
	switch {
	case w.fabric == "tcp" && p > 1:
		c.fabric, err = transport.NewTCPWithOptions(p, transport.TCPOptions{WireVersion: codec.WireVersion()})
	default:
		c.fabric, err = transport.NewInProcWire(p, codec.WireVersion())
		if w.fabric == "shaped" && !o.unshaped && p > 1 {
			shaper = newShaperNet(p, w.group, intraLink, interLink)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}

	base := time.Now()
	for r := 0; r < p; r++ {
		rs := &rankState{}
		conn := c.fabric.Conn(r)
		if shaper != nil {
			conn = &shapedConn{inner: conn, net: shaper}
		}
		if o.traced {
			rs.rec = newRankTracer(base, r, o.spanSteps+w.warmup)
			conn = &tracedConn{inner: conn, rec: rs.rec}
		}
		rs.comm = collective.New(conn)
		if codec.Value() != sparse.ValueF32 {
			rs.comm.SetCompressor(quant.NewStack(codec.Value(), seed).Fork(uint64(r)))
		}
		if o.traced {
			// The α-β clock only prices rounds (netsim.modelled_comm_ms);
			// it must be attached before aggregators fork sub-comms.
			rs.clock = &netsim.Clock{}
			rs.comm.WithClock(rs.clock, netsim.Paper1GbE())
			rs.tally = &metrics.WireTally{}
			rs.comm.SetWireTally(rs.tally)
		}
		var stream core.StreamGradFn
		rs.weights, rs.gradFn, stream = tk.rank(r, p)
		if o.decomposed {
			if err := c.attachDecomposed(rs, aggKind); err != nil {
				return nil, err
			}
		} else if err := c.attachTrainer(rs, aggKind, tk.bounds(), stream, o); err != nil {
			return nil, err
		}
		c.ranks = append(c.ranks, rs)
	}
	return c, nil
}

// attachTrainer wires the real path: aggregator + core.Trainer.
func (c *cluster) attachTrainer(rs *rankState, aggKind string, bounds []int, stream core.StreamGradFn, o buildOpts) error {
	cfg := core.TrainConfig{LR: learningRate, GradClip: gradClip}
	var agg core.Aggregator
	switch aggKind {
	case "gtopk":
		a, err := core.NewGTopKAggregator(rs.comm, c.dim, c.k)
		if err != nil {
			return err
		}
		a.SetMomentumCorrection(momentumCorrect)
		agg, rs.sp = a, a.Sparsifier()
	case "hier":
		a, err := core.NewHierarchicalAggregator(rs.comm, c.dim, c.k, c.spec.group)
		if err != nil {
			return err
		}
		a.SetMomentumCorrection(momentumCorrect)
		agg, rs.sp = a, a.Sparsifier()
	case "bucketed":
		a, err := core.NewBucketedAggregator(rs.comm, bounds, c.spec.density)
		if err != nil {
			return err
		}
		a.SetMomentumCorrection(momentumCorrect)
		agg, rs.bucketed = a, a
	case "topk":
		a, err := core.NewTopKAggregator(rs.comm, c.dim, c.k)
		if err != nil {
			return err
		}
		a.SetMomentumCorrection(momentumCorrect)
		agg, rs.sp = a, a.Sparsifier()
	case "dense":
		// Classic S-SGD keeps momentum in the optimizer (paper, Sec. IV-A).
		cfg.Momentum = momentumCorrect
		agg = core.NewDenseAggregator(rs.comm, c.dim)
	default:
		return fmt.Errorf("unknown aggregator %q", aggKind)
	}
	tr, err := core.NewTrainer(cfg, agg, rs.weights, rs.gradFn)
	if err != nil {
		return err
	}
	if rs.bucketed != nil && stream != nil && !o.unstreamed {
		if err := tr.SetStreamGradFn(stream); err != nil {
			return err
		}
	}
	if rs.rec != nil {
		tr.SetPhaseHook(func(_ int, pt core.PhaseTimes) {
			rs.rec.phases(pt)
			rs.phases.computeNS += int64(pt.Compute)
			rs.phases.aggregateNS += int64(pt.Aggregate)
			rs.phases.updateNS += int64(pt.Update)
			if rs.bucketed != nil {
				var sum, longest time.Duration
				for _, d := range rs.bucketed.LastBucketTimes() {
					sum += d
					longest = max(longest, d)
				}
				rs.phases.bucketSumNS += int64(sum)
				rs.phases.bucketMaxNS += int64(longest)
			}
		})
	}
	rs.step = func(ctx context.Context, iter int) (float64, error) {
		if rs.rec != nil {
			rs.rec.beginStep(iter)
		}
		return tr.Step(ctx)
	}
	return nil
}

// series is what one run phase observed: per rank, when each step
// finished and the loss it returned.
type series struct {
	steps  int
	finish [][]time.Duration // [rank][step], since the phase started
	loss   [][]float64
	done   []int // steps each rank completed without error
	err    error
}

// failedSteps counts cluster steps that did not complete on every rank.
func (s *series) failedSteps() int {
	worst := s.steps
	for _, d := range s.done {
		worst = min(worst, d)
	}
	return s.steps - worst
}

// run advances every rank by n steps concurrently and waits for all of
// them. With captureLast, the inputs of the last step are kept for the
// codec replay (rank 0's received frames; ranks 0 and 1's selections).
func (c *cluster) run(ctx context.Context, n int, captureLast bool) *series {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	p := len(c.ranks)
	s := &series{steps: n, finish: make([][]time.Duration, p), loss: make([][]float64, p), done: make([]int, p)}
	for r := range s.finish {
		s.finish[r] = make([]time.Duration, n)
		s.loss[r] = make([]float64, n)
	}
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
	)
	first := c.iter
	start := time.Now()
	for r, rs := range c.ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if captureLast && i == n-1 {
					if rs.rec != nil && r == 0 {
						rs.rec.capture.Store(true)
					}
					if rs.dec != nil && r <= 1 {
						rs.dec.captureNow = true // two ranks' k-vectors feed the merge replay
					}
				}
				loss, err := rs.step(ctx, first+i)
				if err == nil && (math.IsNaN(loss) || math.IsInf(loss, 0)) {
					err = fmt.Errorf("rank %d step %d: non-finite loss %v", r, first+i, loss)
				}
				if err != nil {
					errMu.Lock()
					if s.err == nil {
						s.err = err
					}
					errMu.Unlock()
					cancel() // an abort fails every remaining step on every rank
					return
				}
				s.finish[r][i] = time.Since(start)
				s.loss[r][i] = loss
				s.done[r] = i + 1
			}
		}()
	}
	wg.Wait()
	c.iter += n
	return s
}

// close releases the fabric (TCP reader goroutines exit with it).
func (c *cluster) close() {
	c.fabric.Close() //nolint:errcheck // teardown; nothing to do about it
}

// bytesSent sums Stats.BytesSent over ranks.
func (c *cluster) bytesSent() int64 {
	var total int64
	for _, rs := range c.ranks {
		total += rs.comm.Stats().BytesSent
	}
	return total
}

// weightsCRC returns each rank's CRC32 over its weight bits.
func (c *cluster) weightsCRC() []uint32 {
	out := make([]uint32, len(c.ranks))
	buf := make([]byte, 0, 4096)
	for r, rs := range c.ranks {
		h := crc32.NewIEEE()
		for lo := 0; lo < len(rs.weights); lo += 1024 {
			buf = buf[:0]
			for _, v := range rs.weights[lo:min(lo+1024, len(rs.weights))] {
				b := math.Float32bits(v)
				buf = append(buf, byte(b), byte(b>>8), byte(b>>16), byte(b>>24))
			}
			h.Write(buf) //nolint:errcheck // hash.Hash.Write never fails
		}
		out[r] = h.Sum32()
	}
	return out
}

// decomposedStep is the benchmark's own copy of one gTop-k S-SGD step,
// written against the exported layer API with a span around each call:
// Sparsifier.Select → (Hierarchical)GTopKAllReduceInto → FoldError /
// PutBack → ScatterAdd + scale → clip + update. It exists to time the
// layers inside Aggregate from outside; its final weights must be
// bit-identical to the real aggregator's.
type decomposedStep struct {
	comm       *collective.Comm
	gc         *collective.GroupComms // hierarchical workloads
	sp         *core.Sparsifier
	k          int
	foldErrors bool // lossy v3 codec: the wire transform rewrites sent values
	gradFn     core.GradFn
	rec        *rankTracer

	weights, grad, velocity, dense, orig []float32
	global                               sparse.Vector
	outNNZ                               int64

	// Inputs of the last step, kept for the codec replay.
	captureNow bool
	snapshot   []float32 // what Select's top-k scanned: residual + momentum-folded gradient
	local      *sparse.Vector
}

func (c *cluster) attachDecomposed(rs *rankState, aggKind string) error {
	if rs.rec == nil {
		return fmt.Errorf("the decomposed step needs a tracer")
	}
	d := &decomposedStep{
		comm: rs.comm, sp: core.NewSparsifier(c.dim), k: c.k, gradFn: rs.gradFn, rec: rs.rec,
		foldErrors: c.codec.WireVersion() == 3 && c.codec.Lossy(),
		weights:    rs.weights,
		grad:       make([]float32, c.dim),
		velocity:   make([]float32, c.dim),
		dense:      make([]float32, c.dim),
	}
	switch aggKind {
	case "gtopk":
	case "hier":
		if g := c.spec.group; g > 1 && g < rs.comm.Size() {
			gc, err := rs.comm.ForkGroup(g)
			if err != nil {
				return err
			}
			d.gc = gc
		}
	default:
		return fmt.Errorf("no decomposed step for aggregator %q", aggKind)
	}
	rs.dec, rs.sp, rs.step = d, d.sp, d.step
	return nil
}

func (d *decomposedStep) step(ctx context.Context, iter int) (float64, error) {
	rec := d.rec
	rec.startStep(iter)
	stepID := rec.open(spanStep, -1)

	id := rec.open(spanCompute, stepID)
	for i := range d.grad {
		d.grad[i] = 0
	}
	loss := d.gradFn(iter, d.weights, d.grad)
	rec.close(id)

	if d.captureNow {
		d.snapshot = append(d.snapshot[:0], d.sp.Residual()...)
		for i, g := range d.grad {
			d.snapshot[i] += momentumCorrect*d.velocity[i] + g
		}
	}

	id = rec.open(spanSelect, stepID)
	for i, g := range d.grad {
		d.velocity[i] = momentumCorrect*d.velocity[i] + g
	}
	local, err := d.sp.Select(d.velocity, d.k)
	if err != nil {
		return 0, err
	}
	if d.foldErrors {
		d.orig = append(d.orig[:0], local.Values...)
	}
	rec.close(id)
	if d.captureNow {
		d.local = local.Clone()
	}

	id = rec.open(spanAllreduce, stepID)
	rec.setParent(id)
	if d.gc != nil {
		err = core.HierarchicalGTopKAllReduceInto(ctx, d.comm, d.gc, local, d.k, core.ChunksFor(d.k), &d.global)
		d.comm.AddStats(d.gc.Members.Stats())
		d.gc.Members.ResetStats()
		if d.gc.Leaders != nil {
			d.comm.AddStats(d.gc.Leaders.Stats())
			d.gc.Leaders.ResetStats()
		}
	} else {
		err = core.GTopKAllReduceInto(ctx, d.comm, local, d.k, core.ChunksFor(d.k), &d.global)
	}
	rec.setParent(-1)
	rec.close(id)
	if err != nil {
		return 0, err
	}

	id = rec.open(spanPutBack, stepID)
	if d.foldErrors {
		d.sp.FoldError(local.Indices, d.orig, local.Values)
	}
	d.sp.PutBack(local, d.global.Indices)
	rec.close(id)

	id = rec.open(spanScatter, stepID)
	for i := range d.dense {
		d.dense[i] = 0
	}
	d.global.ScatterAdd(d.dense)
	inv := 1 / float32(d.comm.Size())
	for i := range d.dense {
		d.dense[i] *= inv
	}
	rec.close(id)
	d.outNNZ += int64(d.global.NNZ())

	id = rec.open(spanUpdate, stepID)
	tensor.Clip(d.dense, gradClip)
	tensor.AxpyInto(d.weights, -learningRate, d.dense)
	rec.close(id)
	rec.close(stepID)
	return loss, nil
}
