package core

import (
	"context"
	"fmt"
	"slices"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/sparse"
)

// round is one sparse round — select with error feedback, aggregate,
// put back, take the mean — over one contiguous gradient range, written
// once for every sparse aggregator: GTopKAggregator runs one round over
// the whole gradient, each bucket of the BucketedAggregator runs one
// over its slice. What differs between the aggregators is the plan the
// round's collective runs (Algorithm 3's tree, its hierarchy or quorum
// round, or a baseline's exchange or star), and the round never asks
// which. The round is the only code that refunds, folds or puts mass
// back into the range's error-feedback residual, and it corrects
// momentum in the velocity it is lent.
type round struct {
	comm  *collective.Comm
	gc    *collective.GroupComms // non-nil: two-level hierarchy over groups of `group` ranks
	group int
	sp    *Sparsifier
	k     int

	plan  plan // the collective the round aggregates over
	fixed bool // a baseline's plan, which takes no quorum

	schedule func(step int) int
	step     int
	mu       float32   // DGC momentum-correction coefficient (0 disables)
	velocity []float32 // the lent momentum-correction buffer (nil while mu is 0)
	quorum   QuorumConfig

	orig   []float32     // pre-transform snapshot of the selected values (reused)
	global sparse.Vector // reused collective result (zero steady-state allocs)
}

// newRound creates the round state for the range whose error-feedback
// residual sp holds, selecting k entries per iteration. group > 1
// splits the world into groups of that many ranks (forking the group
// sub-communicators from comm, so every rank must construct at the same
// point of its collective sequence); group <= 1 or >= world is the flat
// tree. Its plan is Algorithm 3's.
func newRound(comm *collective.Comm, sp *Sparsifier, k, group int) (round, error) {
	if err := validateK(sp.Dim(), k); err != nil {
		return round{}, err
	}
	gc, err := ForkHier(comm, group)
	if err != nil {
		return round{}, err
	}
	return round{comm: comm, gc: gc, group: group, sp: sp, k: k, plan: treePlan(nil, comm, gc)}, nil
}

// name is base, then "-hier" over groups, then "-quorum" in quorum mode.
func (r *round) name(base string) string {
	if r.gc != nil {
		base += "-hier"
	}
	if r.quorum.Q > 0 {
		base += "-quorum"
	}
	return base
}

// QuorumGroup returns this rank's hierarchy group index in the grouped
// regime and -1 in the flat one — the group-granular handle
// degraded-rank telemetry attaches to its reports.
func (r *round) QuorumGroup() int {
	if r.gc == nil {
		return -1
	}
	return r.gc.Group
}

// SetK retunes the per-iteration selection count (warmup schedules).
func (r *round) SetK(k int) error {
	if err := validateK(r.sp.Dim(), k); err != nil {
		return err
	}
	r.k = k
	return nil
}

// SetSchedule installs a per-step selection-count schedule (the paper's
// warmup uses per-epoch densities [0.25, 0.0725, 0.015, 0.004] before the
// target density). The schedule overrides the static k; it must return
// values in [1, dim] and must be identical on every rank.
func (r *round) SetSchedule(f func(step int) int) { r.schedule = f }

// lendVelocity is how the round learns the momentum: DGC-style
// correction (Lin et al., cited as [12]) accumulates it LOCALLY before
// sparsification (v ← µ·v + g; the residual accumulates v) in the
// range's slice v of the trainer's velocity, so deferred coordinates
// carry their momentum history instead of a global momentum term
// amplifying spiky sparse updates. NewTrainer lends it when
// TrainConfig.Momentum > 0.
func (r *round) lendVelocity(mu float32, v []float32) { r.mu, r.velocity = mu, v }

// Sparsifier exposes the residual state for diagnostics.
func (r *round) Sparsifier() *Sparsifier { return r.sp }

// SetQuorum enables the straggler-tolerant quorum collective: rounds
// close per level after the configured quorums or deadline budgets
// (never under quorum), and a missed rank's selected mass — a straggling
// member's, or every member's of a group that missed the leader round —
// is refunded to its residual instead of entering the round. In the
// grouped regime cfg.Q is the intra-group quorum and cfg.LeaderQ the
// leader-level one; in the flat regime (group <= 1 or >= world) cfg must
// be a flat configuration validated against the world. It rebuilds the
// round's plan; a baseline's plan takes no quorum. A zero cfg disables
// quorum mode.
func (r *round) SetQuorum(cfg QuorumConfig) error {
	if r.fixed && cfg != (QuorumConfig{}) {
		return fmt.Errorf("core: quorum mode needs Algorithm 3's plan, not a baseline's")
	}
	p, err := treePlan(nil, r.comm, r.gc), error(nil)
	if cfg != (QuorumConfig{}) {
		p, err = quorumPlan(nil, r.comm, r.gc, r.group, cfg)
	}
	if err != nil || r.fixed { // a baseline keeps its plan
		return err
	}
	r.plan, r.quorum = p, cfg
	return nil
}

// run executes one round over grad (the range's slice of the gradient)
// and returns the range's mean update compact: the ascending global
// support and the values (0 + v)·(1/P) aligned with it, valid until the
// next run. missed reports that this rank's contribution did not make a
// quorum round.
func (r *round) run(ctx context.Context, grad []float32) (update *sparse.Vector, missed bool, err error) {
	if r.schedule != nil {
		if err := r.SetK(r.schedule(r.step)); err != nil {
			return nil, false, fmt.Errorf("schedule: %w", err)
		}
	}
	r.step++
	local, err := r.sp.SelectMomentum(r.mu, r.velocity, grad, r.k)
	if err != nil {
		return nil, false, err
	}
	// Keep the selected values as selected where the collective may not
	// return them intact: a lossy wire transform pins the sender's copy to
	// its lattice points in place (on ranks whose tree role never sends,
	// the fold below then adds exact zeros), and a quorum round this rank
	// misses must refund the FULL mass, whatever the codec.
	var fold []float32 // the snapshot, where the transform rewrites what was selected
	if lossy := r.comm.WireCodec().Lossy(); lossy || r.quorum.Q > 0 {
		r.orig = append(r.orig[:0], local.Values...)
		if lossy {
			fold = r.orig
		}
	}
	participated, err := r.allReduce(ctx, local)
	if err != nil {
		return nil, false, err
	}
	global := &r.global
	if !participated {
		// Nothing of this rank entered the aggregate: conservation refunds
		// the whole selection, and the update below is built purely from
		// the other ranks' verdict.
		r.sp.Refund(local.Indices, r.orig)
	} else {
		// Quantization error, then Algorithm 4 line 10, in one pass: a
		// globally dropped index gets lattice value + error = its full
		// original mass back, a survivor keeps exactly the error. A union
		// keeps every sent index (sumFold keeps touched zeros), so there
		// put-back adds nothing.
		r.sp.Settle(local, fold, global.Indices)
	}
	// The mean in place, with the additions and the multiplication
	// MeanInto performs at the support (so a −0 becomes +0): the result is
	// what the collective returned, and nothing reads it as a sum again.
	inv := 1 / float32(r.comm.Size())
	for i, v := range global.Values {
		global.Values[i] = (0 + v) * inv
	}
	return global, !participated, nil
}

// allReduce is the round's one way onto the wire: the executor runs the
// round's plan into r.global. It reports whether this rank's selection
// made the round: a quorum round's verdict says; any other plan takes
// every rank's.
func (r *round) allReduce(ctx context.Context, local *sparse.Vector) (bool, error) {
	if err := runLevels(ctx, r.comm, &r.plan, local, r.k, &r.global); err != nil {
		return false, err
	}
	foldHierStats(r.comm, r.gc)
	return r.plan.vd == nil || slices.Contains(r.plan.vd.participants, r.comm.Rank()), nil
}

func validateK(dim, k int) error {
	if k < 1 || k > dim {
		return fmt.Errorf("core: k=%d out of range [1,%d]", k, dim)
	}
	return nil
}
