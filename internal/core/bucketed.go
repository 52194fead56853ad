package core

import (
	"context"
	"fmt"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/sparse"
)

// This file implements the bucketed, overlapped aggregation pipeline: the
// flat gradient is partitioned into layer-aligned buckets, each bucket
// runs sparsification + gTopKAllReduce on its own tag-isolated
// sub-communicator (collective.Comm.Fork), and buckets are handed to the
// pipeline as soon as their slice of the gradient is final — so
// communication of late layers overlaps both the backward computation of
// early layers and the communication of other buckets. This is the
// wait-free-backpropagation direction the paper sketches in Section VII
// ("pipelining the gradient exchange with backward propagation"), applied
// to gTop-k.

// StreamGradFn computes one worker's mini-batch gradient like GradFn, but
// additionally invokes ready(lo, hi) the moment the flat-gradient range
// [lo, hi) is final (typically once per layer, tail-first, as the
// backward pass retires layers). Like a GradFn it writes every entry of
// grad, which the trainer does not zero between steps. Ranges must be
// disjoint and must jointly cover [0, len(grad)) by the time the
// function returns; the trainer treats anything not announced as ready
// at return.
type StreamGradFn func(iter int, weights, grad []float32, ready func(lo, hi int)) float64

// BucketStreamer is the streaming aggregation contract: a sparse
// Aggregator that can start communicating gradient buckets before the
// whole gradient exists. One iteration is Begin → any number of Ready
// calls → Finish; Aggregate remains the serial facade (Begin + Finish
// back to back).
type BucketStreamer interface {
	Aggregator
	// Begin starts an iteration over grad. The aggregator reads grad
	// slices only after they are covered by Ready (or at Finish).
	Begin(ctx context.Context, grad []float32) error
	// Ready marks the gradient range [lo, hi) as final. When a bucket
	// becomes fully covered its pipeline launches immediately.
	Ready(lo, hi int)
	// Finish launches any buckets not yet announced, waits for the whole
	// pipeline to drain, and returns the update Aggregate returns: the
	// buckets' supports, each offset by its bucket's start (ascending,
	// because buckets are), and their mean values concatenated in the
	// same order.
	Finish() (Update, error)
}

// bucketState is one bucket's long-lived pipeline state: its own gTop-k
// round — a tag-isolated sub-communicator (so its collectives never
// interleave with other buckets') and a sparsifier over the bucket's
// range of the aggregator's residual — plus a private simulated clock
// when the parent communicator is timed.
type bucketState struct {
	round
	idx    int
	clock  *netsim.Clock // nil when the parent is untimed
	lo, hi int

	remaining int // uncovered elements in the current iteration
	launched  bool

	update *sparse.Vector // the last run's compact update, bucket-local
}

// bucketDone reports one bucket's completed collective back to Finish.
type bucketDone struct {
	idx    int
	err    error
	comm   time.Duration // simulated communication time of this bucket
	missed bool          // this rank's frame missed the bucket's quorum round
	stats  collective.Stats
}

// BucketedAggregator runs gTop-k S-SGD per layer-aligned bucket with
// overlapped communication: bucket b selects k_b = max(1, ρ·m_b) of its
// m_b gradients and aggregates them with GTopKInto concurrently with the
// other buckets (and, through the BucketStreamer interface, with the
// backward pass still producing earlier buckets).
//
// Selection semantics are per bucket, exactly as if an independent
// GTopKAggregator ran on each bucket's gradient slice — the bucketed
// pipeline is bitwise-identical to that serial composition, which the
// tests assert. With a single bucket spanning the whole gradient it is
// bitwise-identical to GTopKAggregator itself. Updates remain
// deterministic and identical on every rank: bucket i only ever talks to
// bucket i on peer ranks, over its own tag space, regardless of the
// launch order or interleaving of goroutines.
//
// Simulated-time accounting models the buckets' sub-communicators as
// concurrent: each iteration advances the parent clock by the SLOWEST
// bucket's communication time rather than the sum. Per-bucket durations
// of the last iteration are exposed via LastBucketTimes so benchmarks can
// also price stricter schedules (e.g. a single shared NIC).
type BucketedAggregator struct {
	parent  *collective.Comm
	buckets []*bucketState
	sp      *Sparsifier // the whole gradient's residual; bucket b's sparsifier holds its [lo, hi)
	update  Update      // Finish's update (reused)

	// missStreak counts consecutive iterations in which ANY of this
	// rank's buckets missed its quorum round.
	missStreak int

	// Per-iteration streaming state.
	ctx      context.Context
	grad     []float32
	inFlight int
	done     chan bucketDone
	lastComm []time.Duration
}

var _ BucketStreamer = (*BucketedAggregator)(nil)

// NewBucketedAggregator creates the bucketed pipeline. bounds are
// cumulative bucket offsets (bounds[0] = 0, bounds[B] = dim, strictly
// increasing) — derive them from a model's layer bounds with GroupBounds,
// or pass the layer bounds themselves for layer-wise sparsification (the
// paper's Section VII future work): a bucket per layer, each with its own
// range of the residual, top-k, gTop-k and put-back. Each bucket selects
// DensityToK(size, density) gradients per iteration.
func NewBucketedAggregator(comm *collective.Comm, bounds []int, density float64) (*BucketedAggregator, error) {
	if len(bounds) < 2 || bounds[0] != 0 {
		return nil, fmt.Errorf("core: bucketed: bounds must start at 0 and cover >= 1 bucket")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("core: bucketed: bounds not strictly increasing at %d", i)
		}
	}
	if density <= 0 || density > 1 {
		return nil, fmt.Errorf("core: bucketed: density %v out of (0,1]", density)
	}
	n := len(bounds) - 1
	kids, err := comm.Fork(n)
	if err != nil {
		return nil, fmt.Errorf("core: bucketed: %w", err)
	}
	model, timed := comm.Model()
	a := &BucketedAggregator{
		parent:   comm,
		buckets:  make([]*bucketState, n),
		sp:       NewSparsifier(bounds[n]),
		done:     make(chan bucketDone, n),
		lastComm: make([]time.Duration, n),
	}
	for i := 0; i < n; i++ {
		lo, hi := bounds[i], bounds[i+1]
		b := &bucketState{idx: i, lo: lo, hi: hi}
		if timed {
			// A private clock per bucket keeps the slowest-bucket
			// accounting in Finish correct.
			b.clock = &netsim.Clock{}
			kids[i].WithClock(b.clock, model)
		}
		if b.round, err = newRound(kids[i], &Sparsifier{residual: a.sp.residual[lo:hi]}, DensityToK(hi-lo, density), 0); err != nil {
			return nil, fmt.Errorf("core: bucketed: bucket %d: %w", i, err)
		}
		a.buckets[i] = b
	}
	return a, nil
}

// Name implements Aggregator: "gtopk-bucketed", then "-quorum" as for
// GTopKAggregator.
func (a *BucketedAggregator) Name() string { return a.buckets[0].name("gtopk-bucketed") }

// SetQuorum enables the straggler-tolerant quorum collective on every
// bucket (same quorums and deadline budgets per bucket round; see
// GTopKAggregator.SetQuorum — every bucket runs the flat tree, so cfg is
// a flat configuration). A bucket this rank's frame misses refunds
// that bucket's selected mass to its range of the residual. A zero cfg
// disables quorum mode. Call before training, not between Begin and
// Finish.
func (a *BucketedAggregator) SetQuorum(cfg QuorumConfig) error {
	// Every bucket validates against the same world, so the first
	// bucket rejects before anything is configured.
	for _, b := range a.buckets {
		if err := b.SetQuorum(cfg); err != nil {
			return err
		}
	}
	return nil
}

// QuorumMissStreak returns how many consecutive iterations at least one
// of this rank's buckets missed its quorum deadline (0 when fully
// participating or when quorum mode is off).
func (a *BucketedAggregator) QuorumMissStreak() int { return a.missStreak }

// Sparsifier returns the whole gradient's error-feedback residual, the
// one checkpoints carry; each bucket's sparsifier aliases its range.
func (a *BucketedAggregator) Sparsifier() *Sparsifier { return a.sp }

// lendVelocity hands each bucket its range of the trainer's velocity, so
// each bucket goroutine corrects momentum in its own slice.
func (a *BucketedAggregator) lendVelocity(mu float32, v []float32) {
	for _, b := range a.buckets {
		b.lendVelocity(mu, v[b.lo:b.hi])
	}
}

// SetDensitySchedule installs a per-step density schedule (warmup): at
// step s every bucket selects DensityToK(size, density(s)). It must be
// identical on every rank. Call before training, not between Begin and
// Finish.
func (a *BucketedAggregator) SetDensitySchedule(density func(step int) float64) {
	for _, b := range a.buckets {
		size := b.hi - b.lo
		b.SetSchedule(func(step int) int { return DensityToK(size, density(step)) })
	}
}

// LastBucketTimes returns each bucket's simulated communication time of
// the most recent iteration (all zero when the communicator is untimed).
func (a *BucketedAggregator) LastBucketTimes() []time.Duration {
	return append([]time.Duration(nil), a.lastComm...)
}

// Aggregate implements Aggregator: the serial facade over the pipeline.
// Buckets still communicate concurrently with each other; only the
// overlap with gradient computation is given up.
func (a *BucketedAggregator) Aggregate(ctx context.Context, grad []float32) (Update, error) {
	if err := a.Begin(ctx, grad); err != nil {
		return Update{}, err
	}
	return a.Finish()
}

// Begin implements BucketStreamer.
func (a *BucketedAggregator) Begin(ctx context.Context, grad []float32) error {
	if a.grad != nil {
		return fmt.Errorf("core: bucketed: Begin before previous Finish")
	}
	if len(grad) != a.sp.Dim() {
		return fmt.Errorf("core: bucketed aggregate: dim %d, want %d", len(grad), a.sp.Dim())
	}
	a.ctx = ctx
	a.grad = grad
	for _, b := range a.buckets {
		b.remaining = b.hi - b.lo
		b.launched = false
	}
	return nil
}

// Ready implements BucketStreamer. Ranges from distinct calls must not
// overlap within one iteration.
func (a *BucketedAggregator) Ready(lo, hi int) {
	for _, b := range a.buckets {
		if b.launched || hi <= b.lo || lo >= b.hi {
			continue
		}
		olo, ohi := max(lo, b.lo), min(hi, b.hi)
		b.remaining -= ohi - olo
		if b.remaining <= 0 {
			a.launch(b)
		}
	}
}

// Finish implements BucketStreamer.
func (a *BucketedAggregator) Finish() (Update, error) {
	if a.grad == nil {
		return Update{}, fmt.Errorf("core: bucketed: Finish without Begin")
	}
	for _, b := range a.buckets {
		if !b.launched {
			a.launch(b)
		}
	}
	var firstErr error
	var slowest time.Duration
	anyMissed := false
	for a.inFlight > 0 {
		d := <-a.done
		a.inFlight--
		if d.err != nil && firstErr == nil {
			firstErr = d.err
		}
		if d.missed {
			anyMissed = true
		}
		a.lastComm[d.idx] = d.comm
		slowest = max(slowest, d.comm)
		a.parent.AddStats(d.stats)
	}
	a.grad = nil
	a.ctx = nil
	if firstErr != nil {
		return Update{}, firstErr
	}
	if anyMissed {
		a.missStreak++
	} else {
		a.missStreak = 0
	}
	// Concurrent-bucket accounting: the iteration pays the slowest
	// bucket's communication, not the sum — the whole point of the
	// overlapped pipeline.
	if clock := a.parent.Clock(); clock != nil {
		clock.Advance(slowest)
	}
	u := &a.update
	u.At, u.Values = u.At[:0], u.Values[:0]
	for _, b := range a.buckets {
		for _, idx := range b.update.Indices {
			u.At = append(u.At, idx+int32(b.lo))
		}
		u.Values = append(u.Values, b.update.Values...)
	}
	return *u, nil
}

// launch hands one fully-covered bucket to its pipeline goroutine. The
// goroutine exclusively owns the bucket's sub-communicator, its ranges of
// the residual and the velocity, and its compact update until it reports
// on a.done, so buckets proceed in parallel without shared mutable state.
func (a *BucketedAggregator) launch(b *bucketState) {
	b.launched = true
	a.inFlight++
	ctx, grad := a.ctx, a.grad
	go func() {
		a.done <- b.runBucket(ctx, grad)
	}()
}

func (b *bucketState) runBucket(ctx context.Context, grad []float32) bucketDone {
	out := bucketDone{idx: b.idx}
	statsBefore := b.comm.Stats()
	var clockBefore time.Duration
	if b.clock != nil {
		clockBefore = b.clock.Now()
	}

	// One round over the bucket's slice, on the bucket's own tag space
	// (the local selections run concurrently across buckets). Its flat
	// tree sends only on the bucket's sub-communicator, so the statsDelta
	// below captures all its traffic.
	var err error
	if b.update, out.missed, err = b.run(ctx, grad[b.lo:b.hi]); err != nil {
		out.err = fmt.Errorf("core: bucket %d: %w", b.idx, err)
		return out
	}
	out.stats = statsDelta(statsBefore, b.comm.Stats())
	if b.clock != nil {
		out.comm = b.clock.Now() - clockBefore
	}
	return out
}

func statsDelta(before, after collective.Stats) collective.Stats {
	return collective.Stats{
		MsgsSent:  after.MsgsSent - before.MsgsSent,
		MsgsRecv:  after.MsgsRecv - before.MsgsRecv,
		BytesSent: after.BytesSent - before.BytesSent,
		BytesRecv: after.BytesRecv - before.BytesRecv,
		Rounds:    after.Rounds - before.Rounds,
	}
}

// GroupBounds coalesces cumulative layer offsets into at most n bucket
// bounds of roughly equal parameter mass, never splitting a layer. The
// result always starts at 0 and ends at the full dimension, with between
// 1 and min(n, L) buckets for L layers.
func GroupBounds(layerBounds []int, n int) []int {
	last := len(layerBounds) - 1
	if last < 1 {
		return append([]int(nil), layerBounds...)
	}
	n = max(n, 1)
	if n >= last {
		return append([]int(nil), layerBounds...)
	}
	dim := layerBounds[last]
	target := float64(dim) / float64(n)
	out := []int{0}
	next := target
	for i := 1; i < last; i++ {
		if float64(layerBounds[i]) >= next && len(out) < n {
			out = append(out, layerBounds[i])
			next = float64(layerBounds[i]) + target
		}
	}
	return append(out, dim)
}
