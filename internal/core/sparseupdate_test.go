package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// updateSpec describes one aggregator of the sparse-update wall, built
// twice: as the real aggregator (fused accumulate-and-select, mean taken
// at the k global entries, handed to the trainer compact) and as
// refAggregator below.
type updateSpec struct {
	kind     string // "flat", "naive", "hier", "quorum", "topk", "ps", "bucketed"
	dim      int
	k        func(step int) int // per-step selection count ("bucketed": density below)
	group    int                // "hier"
	quorum   QuorumConfig       // "quorum"
	bounds   []int              // "bucketed"
	density  float64            // "bucketed"
	mu       float32            // momentum correction inside the aggregator, set with SetMomentumCorrection
	momentum float32            // the same, reaching the real aggregator as TrainConfig.Momentum
	negZero  bool               // plant −0 at residual[0] before the first step
	sparseG  bool               // gradient non-zero at three coordinates only
	streamed bool               // "bucketed": buckets launch from inside the gradient function
}

// refRound is one round composed the way it ran before the passes were
// fused — and the way the benchmark's decomposed step still runs it —
// from the exported pieces: fold the momentum into the velocity, Select
// over the velocity, the collective, Refund or PutBack, and the mean
// rebuilt over the whole buffer by MeanInto.
type refRound struct {
	spec     updateSpec
	comm     *collective.Comm
	gc       *collective.GroupComms
	sp       *Sparsifier
	velocity []float32
	k        func(step int) int
	step     int
	global   sparse.Vector
}

func (r *refRound) run(ctx context.Context, grad, dst []float32) (missed bool, err error) {
	k := r.k(r.step)
	r.step++
	src := grad
	if mu := r.spec.mu + r.spec.momentum; mu > 0 {
		for i, g := range grad {
			r.velocity[i] = mu*r.velocity[i] + g
		}
		src = r.velocity
	}
	local, err := r.sp.SelectMomentum(0, nil, src, k)
	if err != nil {
		return false, err
	}
	global, participated := &r.global, true
	switch r.spec.kind {
	case "naive":
		err = BaselineInto(ctx, r.comm, "gtopk-naive", local, k, global)
	case "topk":
		err = TopKUnionInto(ctx, r.comm, local, global)
	case "ps":
		err = BaselineInto(ctx, r.comm, "gtopk-ps", local, k, global)
	case "quorum":
		participated, _, err = HierQuorumGTopKAllReduceInto(ctx, r.comm, nil, local, k, 0, r.spec.quorum, global)
	case "hier":
		err = GTopKInto(ctx, r.comm, r.gc, local, k, global)
	default:
		err = GTopKInto(ctx, r.comm, nil, local, k, global)
	}
	if err != nil {
		return false, err
	}
	switch {
	case !participated:
		r.sp.Refund(local.Indices, local.Values)
	case r.spec.kind != "topk":
		r.sp.PutBack(local, global.Indices)
	}
	global.MeanInto(dst, r.comm.Size())
	return !participated, nil
}

// refAggregator runs one refRound per bucket, back to back (a single
// round over the whole gradient for the unbucketed kinds). Its update is
// dense, so a Trainer over it runs the dense tail: tensor.Clip, then
// tensor.AxpyInto, over the full buffer.
type refAggregator struct {
	bounds     []int
	rounds     []*refRound
	dense      []float32
	missStreak int
}

func newRefAggregator(c *collective.Comm, spec updateSpec) (*refAggregator, error) {
	a := &refAggregator{bounds: []int{0, spec.dim}, dense: make([]float32, spec.dim)}
	comms := []*collective.Comm{c}
	if spec.kind == "bucketed" {
		a.bounds = spec.bounds
		var err error
		if comms, err = c.Fork(len(spec.bounds) - 1); err != nil {
			return nil, err
		}
	}
	for i, bc := range comms {
		size := a.bounds[i+1] - a.bounds[i]
		r := &refRound{spec: spec, comm: bc, sp: NewSparsifier(size), velocity: make([]float32, size), k: spec.k}
		if spec.kind == "bucketed" {
			k := DensityToK(size, spec.density)
			r.k = func(int) int { return k }
		}
		if spec.kind == "hier" {
			var err error
			if r.gc, err = ForkHier(bc, spec.group); err != nil {
				return nil, err
			}
		}
		a.rounds = append(a.rounds, r)
	}
	return a, nil
}

func (a *refAggregator) Name() string { return "reference" }

func (a *refAggregator) Aggregate(ctx context.Context, grad []float32) (Update, error) {
	anyMissed := false
	for i, r := range a.rounds {
		lo, hi := a.bounds[i], a.bounds[i+1]
		missed, err := r.run(ctx, grad[lo:hi], a.dense[lo:hi])
		if err != nil {
			return Update{}, err
		}
		anyMissed = anyMissed || missed
	}
	a.missStreak++
	if !anyMissed {
		a.missStreak = 0
	}
	return Update{Values: a.dense}, nil
}

func (a *refAggregator) QuorumMissStreak() int { return a.missStreak }

func (a *refAggregator) sparsifiers() []*Sparsifier {
	var sps []*Sparsifier
	for _, r := range a.rounds {
		sps = append(sps, r.sp)
	}
	return sps
}

// newRealAggregator builds the aggregator under test for spec and returns
// its sparsifiers in dense order.
func newRealAggregator(c *collective.Comm, spec updateSpec) (Aggregator, []*Sparsifier, error) {
	switch spec.kind {
	case "bucketed":
		a, err := NewBucketedAggregator(c, spec.bounds, spec.density)
		if err != nil {
			return nil, nil, err
		}
		a.SetMomentumCorrection(spec.mu)
		var sps []*Sparsifier
		for _, b := range a.buckets {
			sps = append(sps, b.sp)
		}
		return a, sps, nil
	}
	var a *GTopKAggregator
	var err error
	switch spec.kind {
	case "topk":
		a, err = NewTopKAggregator(c, spec.dim, spec.k(0))
	case "ps":
		a, err = NewPSGTopKAggregator(c, spec.dim, spec.k(0))
	case "naive":
		a, err = NewNaiveGTopKAggregator(c, spec.dim, spec.k(0))
	case "hier":
		a, err = NewHierarchicalAggregator(c, spec.dim, spec.k(0), spec.group)
	default:
		a, err = NewGTopKAggregator(c, spec.dim, spec.k(0))
	}
	if err != nil {
		return nil, nil, err
	}
	a.SetSchedule(spec.k)
	a.SetMomentumCorrection(spec.mu)
	if err := a.SetQuorum(spec.quorum); err != nil {
		return nil, nil, err
	}
	return a, []*Sparsifier{a.sp}, nil
}

// DenseUpdate returns u as a fresh dim-length vector: a dense update's
// values as they are, a compact one scattered by MeanInto at p = 1 —
// (0 + v)·1 at its positions, +0 everywhere else. It is exported for the
// external test package.
func DenseUpdate(u Update, dim int) []float32 {
	if u.At == nil {
		return append([]float32(nil), u.Values...)
	}
	dst := make([]float32, dim)
	(&sparse.Vector{Dim: dim, Indices: u.At, Values: u.Values}).MeanInto(dst, 1)
	return dst
}

// UpdateRecorder stands between a Trainer and its aggregator and hands
// every update to Keep before the trainer clips its values in place. It
// streams when the aggregator does, and NewUpdateRecorder makes it borrow
// the trainer's velocity when the aggregator does. It is exported for
// the external test package.
type UpdateRecorder struct {
	Aggregator
	Keep func(Update)
}

// lendingRecorder is an UpdateRecorder over a sparse aggregator of this
// package: it forwards the trainer's velocity.
type lendingRecorder struct{ *UpdateRecorder }

func (r lendingRecorder) lendVelocity(mu float32, v []float32) {
	r.Aggregator.(velocityBorrower).lendVelocity(mu, v)
}

// NewUpdateRecorder wraps agg in an UpdateRecorder that borrows the
// trainer's velocity exactly when agg does.
func NewUpdateRecorder(agg Aggregator, keep func(Update)) Aggregator {
	r := &UpdateRecorder{Aggregator: agg, Keep: keep}
	if _, ok := agg.(velocityBorrower); ok {
		return lendingRecorder{r}
	}
	return r
}

func (r *UpdateRecorder) keep(u Update, err error) (Update, error) {
	if err == nil {
		r.Keep(u)
	}
	return u, err
}

// Aggregate implements Aggregator.
func (r *UpdateRecorder) Aggregate(ctx context.Context, grad []float32) (Update, error) {
	return r.keep(r.Aggregator.Aggregate(ctx, grad))
}

// Begin implements BucketStreamer.
func (r *UpdateRecorder) Begin(ctx context.Context, grad []float32) error {
	return r.Aggregator.(BucketStreamer).Begin(ctx, grad)
}

// Ready implements BucketStreamer.
func (r *UpdateRecorder) Ready(lo, hi int) { r.Aggregator.(BucketStreamer).Ready(lo, hi) }

// Finish implements BucketStreamer.
func (r *UpdateRecorder) Finish() (Update, error) {
	return r.keep(r.Aggregator.(BucketStreamer).Finish())
}

// updateWorld is what one run of a spec leaves behind, per rank.
type updateWorld struct {
	weights, residual [][]float32
	streaks           [][]int // "quorum": QuorumMissStreak after every step
	compact           int     // rank 0's steps whose update was compact (At != nil)
}

var negZero = float32(math.Copysign(0, -1))

// stallStep is the round the quorum case's slow rank misses: the fault
// plan stalls the stallStep-th frame (0-based) of link slow→0, which
// carries one gather frame per round, past the round's deadline.
const stallStep = 30

func quorumStallPlan() (transport.FaultPlan, QuorumConfig) {
	return transport.FaultPlan{Seed: 9, StallEvery: stallStep + 1, StallFor: 700 * time.Millisecond, SlowRanks: []int{3}},
		QuorumConfig{Q: 3, Timeout: 200 * time.Millisecond}
}

// runUpdateWorld trains spec for steps iterations on p ranks — the real
// aggregator, or the reference when ref is set — from identical weights
// and gradients.
func runUpdateWorld(t *testing.T, spec updateSpec, p, steps int, ref bool) updateWorld {
	t.Helper()
	inner, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	var fab transport.Fabric = inner
	if spec.kind == "quorum" {
		plan, _ := quorumStallPlan()
		fab = transport.NewFaultInjector(inner, plan)
	}
	defer fab.Close() //nolint:errcheck // test fabric
	w := updateWorld{
		weights: make([][]float32, p), residual: make([][]float32, p), streaks: make([][]int, p),
	}
	target := makeTarget(spec.dim)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = func() error {
				c := collective.New(fab.Conn(r))
				var agg Aggregator
				var sps []*Sparsifier
				if ref {
					a, err := newRefAggregator(c, spec)
					if err != nil {
						return err
					}
					agg, sps = a, a.sparsifiers()
				} else {
					var err error
					if agg, sps, err = newRealAggregator(c, spec); err != nil {
						return err
					}
				}
				if spec.negZero {
					res := make([]float32, sps[0].Dim())
					res[0] = negZero
					if err := sps[0].RestoreResidual(res); err != nil {
						return err
					}
				}
				noise := prng.New(uint64(1000 + r))
				gradFn := func(iter int, weights, grad []float32) float64 {
					for i := range grad {
						switch {
						case spec.sparseG:
							grad[i] = 0
						default:
							grad[i] = weights[i] - target[i] + 0.3*float32(noise.NormFloat64())
						}
					}
					if spec.sparseG {
						grad[0] = negZero // −0 + −0 stays −0: the planted residual survives
						grad[10], grad[20], grad[30] = 3, -0.01*float32(iter+1), 0.5
					}
					return 0
				}
				weights := make([]float32, spec.dim)
				weights[0] = negZero // −0 + −lr·(+0) stays −0; + −lr·(−0) would not
				rec := NewUpdateRecorder(agg, func(u Update) {
					if r == 0 && u.At != nil {
						w.compact++
					}
				})
				cfg := TrainConfig{LR: 0.05, GradClip: 0.02}
				if !ref {
					cfg.Momentum = spec.momentum // lent to the real aggregator's select
				}
				tr, err := NewTrainer(cfg, rec, weights, gradFn)
				if err != nil {
					return err
				}
				if spec.streamed && !ref {
					err := tr.SetStreamGradFn(func(iter int, w, grad []float32, ready func(lo, hi int)) float64 {
						loss := gradFn(iter, w, grad)
						for b := len(spec.bounds) - 2; b >= 0; b-- {
							ready(spec.bounds[b], spec.bounds[b+1])
						}
						return loss
					})
					if err != nil {
						return err
					}
				}
				for step := 0; step < steps; step++ {
					if spec.kind == "quorum" && step == stallStep+1 {
						// Let the stalled frame drain off the FIFO link before the
						// next round's frame queues behind it.
						time.Sleep(time.Second)
					}
					if _, err := tr.Step(context.Background()); err != nil {
						return fmt.Errorf("step %d: %w", step, err)
					}
					if spec.kind == "quorum" {
						w.streaks[r] = append(w.streaks[r], agg.(interface{ QuorumMissStreak() int }).QuorumMissStreak())
					}
				}
				w.weights[r] = tr.Weights()
				for _, sp := range sps {
					w.residual[r] = append(w.residual[r], sp.Residual()...)
				}
				return nil
			}()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return w
}

func requireSameBits(t *testing.T, label string, want, got [][]float32) {
	t.Helper()
	for r := range want {
		if len(want[r]) != len(got[r]) {
			t.Fatalf("%s rank %d: %d vs %d elements", label, r, len(want[r]), len(got[r]))
		}
		for i := range want[r] {
			if math.Float32bits(want[r][i]) != math.Float32bits(got[r][i]) {
				t.Fatalf("%s rank %d index %d: reference %x (%v), got %x (%v)", label, r, i,
					math.Float32bits(want[r][i]), want[r][i], math.Float32bits(got[r][i]), got[r][i])
			}
		}
	}
}

// TestSparseUpdateMatchesDense pins the O(k) tail of a step — fused
// momentum/residual accumulate, mean taken at the k global entries and
// handed over compact, clip and weight update at the support — against
// the dense composition it replaced: after 60 trainer steps the weights
// and every residual are bit-identical to a reference that selects over a
// separately folded velocity, rebuilds the mean with MeanInto and applies
// it with tensor.Clip and tensor.AxpyInto over the full buffer.
func TestSparseUpdateMatchesDense(t *testing.T) {
	const steps = 60
	constK := func(k int) func(int) int { return func(int) int { return k } }
	_, qc := quorumStallPlan()
	for _, tc := range []struct {
		name string
		ps   []int
		spec updateSpec
	}{
		// k shrinks mid-run: entries of the old, larger support must be
		// re-zeroed. GradClip 0.02 clips most entries of every update.
		{"flat/schedule", []int{1, 4}, updateSpec{kind: "flat", dim: 600, mu: 0.9, k: func(step int) int {
			if step < 25 {
				return 24
			}
			return 6
		}}},
		// A −0 rides the residual into the selection as a zero tie-filler
		// (three non-zero coordinates, k = 6): the mean must turn it into +0.
		{"flat/negzero", []int{1, 4}, updateSpec{kind: "flat", dim: 64, k: constK(6), negZero: true, sparseG: true}},
		// The same with the momentum lent by the trainer: the select
		// corrects it in the trainer's velocity, where a −0 weight must
		// still stay −0.
		{"flat/negzero/trainer-momentum", []int{1, 4}, updateSpec{kind: "flat", dim: 64, k: constK(6), negZero: true, sparseG: true, momentum: 0.9}},
		// Large enough that every select takes the candidate path.
		{"flat/8192", []int{1}, updateSpec{kind: "flat", dim: 8192, mu: 0.9, k: constK(80)}},
		{"naive", []int{4}, updateSpec{kind: "naive", dim: 600, mu: 0.9, k: constK(12)}},
		{"hier", []int{4}, updateSpec{kind: "hier", dim: 600, mu: 0.9, k: constK(12), group: 2}},
		// Rank 3 misses round stallStep: its update is built from the
		// others' verdict and its own selection is refunded.
		{"quorum", []int{4}, updateSpec{kind: "quorum", dim: 600, mu: 0.9, k: constK(12), quorum: qc}},
		{"topk", []int{4}, updateSpec{kind: "topk", dim: 600, mu: 0.9, k: constK(12)}},
		// The star with a shrinking k, as under a warmup schedule.
		{"ps", []int{4}, updateSpec{kind: "ps", dim: 600, mu: 0.9, k: func(step int) int {
			if step < 25 {
				return 24
			}
			return 6
		}}},
		// Supports are bucket-local and must come back offset by bucket.
		{"bucketed", []int{1, 4}, updateSpec{kind: "bucketed", dim: 600, mu: 0.9, bounds: []int{0, 150, 310, 600}, density: 0.02}},
		// The same, with the buckets launched from inside the gradient
		// function as a backward pass retires them (Finish's compact update).
		{"bucketed/streamed", []int{1, 4}, updateSpec{kind: "bucketed", dim: 600, mu: 0.9, bounds: []int{0, 150, 310, 600}, density: 0.02, streamed: true}},
		// TrainConfig.Momentum is the one momentum setting: the trainer
		// lends its velocity and the select corrects it there, bit for bit
		// the reference's separately folded velocity.
		{"flat/trainer-momentum", []int{1, 4}, updateSpec{kind: "flat", dim: 600, k: constK(12), momentum: 0.9}},
	} {
		for _, p := range tc.ps {
			t.Run(fmt.Sprintf("%s/P=%d", tc.name, p), func(t *testing.T) {
				want := runUpdateWorld(t, tc.spec, p, steps, true)
				got := runUpdateWorld(t, tc.spec, p, steps, false)
				if want.compact != 0 || got.compact != steps {
					t.Fatalf("compact updates: reference %d, real %d of %d steps — the comparison is not dense vs sparse", want.compact, got.compact, steps)
				}
				requireSameBits(t, "weights", want.weights, got.weights)
				requireSameBits(t, "residual", want.residual, got.residual)
				for r := range want.streaks {
					if fmt.Sprint(want.streaks[r]) != fmt.Sprint(got.streaks[r]) {
						t.Fatalf("rank %d miss streaks: reference %v, got %v", r, want.streaks[r], got.streaks[r])
					}
				}
				if tc.spec.kind == "quorum" && got.streaks[3][stallStep] != 1 {
					t.Fatalf("rank 3 did not miss round %d: streaks %v", stallStep, got.streaks[3])
				}
			})
		}
	}
}
