package core

import (
	"context"
	"fmt"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/sparse"
)

// collectiveKind names the wire a round aggregates over. The paper's
// Algorithm 1 (Top-k), Algorithm 4 (gTop-k) and footnote 2's
// parameter-server variant are the same round over different
// collectives.
type collectiveKind uint8

const (
	treeKind  collectiveKind = iota // Algorithm 3's tree: flat, hierarchical (gc != nil) or quorum
	naiveKind                       // Algorithm 2: AllGather + global re-selection
	psKind                          // footnote 2: star through rank 0 + global re-selection
	unionKind                       // Algorithm 1: AllGather, the union of the local supports
)

// round is one sparse round — select with error feedback, aggregate,
// put back, take the mean — over one contiguous gradient range, written
// once for every sparse aggregator: GTopKAggregator runs one round over
// the whole gradient (Top-k, gTop-k or PS), each bucket of the
// BucketedAggregator runs one over its slice. The round owns the range's
// error-feedback residual and is the only code that refunds, folds or
// puts mass back into it.
type round struct {
	comm  *collective.Comm
	gc    *collective.GroupComms // non-nil: two-level hierarchy over groups of `group` ranks
	group int
	sp    *Sparsifier
	k     int

	kind      collectiveKind
	schedule  func(step int) int
	step      int
	noPutBack bool
	mu        float32   // DGC momentum-correction coefficient (0 disables)
	velocity  []float32 // momentum-correction buffer (nil until enabled)
	quorum    QuorumConfig

	orig   []float32     // pre-transform snapshot of the selected values (reused)
	global sparse.Vector // reused collective result (zero steady-state allocs)
}

// newRound creates the round state for a dim-element range selecting k
// entries per iteration. group > 1 splits the world into groups of that
// many ranks (forking the group sub-communicators from comm, so every
// rank must construct at the same point of its collective sequence);
// group <= 1 or >= world is the flat tree.
func newRound(comm *collective.Comm, dim, k, group int) (round, error) {
	if err := validateK(dim, k); err != nil {
		return round{}, err
	}
	gc, err := forkHier(comm, group)
	if err != nil {
		return round{}, err
	}
	return round{comm: comm, gc: gc, group: group, sp: NewSparsifier(dim), k: k}, nil
}

// name derives the algorithm name from what the round runs: "topk" for
// the union, else base, then "-naive", "-ps" or "-hier" for the
// collective, then "-quorum".
func (r *round) name(base string) string {
	switch {
	case r.kind == unionKind:
		return "topk"
	case r.kind == naiveKind:
		base += "-naive"
	case r.kind == psKind:
		base += "-ps"
	case r.gc != nil:
		base += "-hier"
	}
	if r.quorum.Q > 0 {
		base += "-quorum"
	}
	return base
}

// Group returns the configured hierarchy group size (0 when constructed
// flat).
func (r *round) Group() int { return r.group }

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

// SetPutBack toggles Algorithm 4 line 10 (returning globally-dropped
// values to the residual). Disabling it isolates the contribution of
// the extra-residual mechanism — the reproduction's residual ablation.
func (r *round) SetPutBack(enabled bool) { r.noPutBack = !enabled }

// SetMomentumCorrection enables DGC-style momentum correction (Lin et
// al., cited as [12]): momentum is accumulated LOCALLY before
// sparsification (u ← µ·u + g; the residual accumulates u), so deferred
// coordinates carry their momentum history instead of having a global
// momentum term amplify spiky sparse updates. When enabled, configure
// the trainer with Momentum: 0.
func (r *round) SetMomentumCorrection(mu float32) {
	r.mu = mu
	if mu > 0 && r.velocity == nil {
		r.velocity = make([]float32, r.sp.Dim())
	}
}

// Sparsifier exposes the residual state for diagnostics.
func (r *round) Sparsifier() *Sparsifier { return r.sp }

// SetQuorum enables the straggler-tolerant quorum collective: rounds
// close per level after the configured quorums or deadline budgets
// (never under quorum), and a missed rank's selected mass — a straggling
// member's, or every member's of a group that missed the leader round —
// is refunded to its residual instead of entering the round. In the
// grouped regime cfg.Q is the intra-group quorum and cfg.LeaderQ the
// leader-level one; in the flat regime (group <= 1 or >= world) cfg must
// be a flat configuration validated against the world. Incompatible with
// the AllGather and star collectives. A zero cfg disables quorum mode.
func (r *round) SetQuorum(cfg QuorumConfig) error {
	if cfg != (QuorumConfig{}) {
		if r.kind != treeKind {
			return fmt.Errorf("core: quorum mode requires the tree collective, not %s", r.name("gtopk"))
		}
		err := cfg.Validate(r.comm.Size())
		if r.gc != nil {
			err = cfg.ValidateHier(r.comm.Size(), r.group)
		}
		if err != nil {
			return err
		}
	}
	r.quorum = cfg
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
	fold := r.comm.WireCodec().Lossy()
	if fold || r.quorum.Q > 0 {
		r.orig = append(r.orig[:0], local.Values...)
	}
	global, participated, err := r.allReduce(ctx, local)
	if err != nil {
		return nil, false, err
	}
	if !participated {
		// Nothing of this rank entered the aggregate: conservation refunds
		// the whole selection, and the update below is built purely from
		// the other ranks' verdict.
		r.sp.Refund(local.Indices, r.orig)
	} else {
		// Quantization error first, then Algorithm 4 line 10: a globally
		// dropped index gets lattice value + error = its full original
		// mass back, a survivor keeps exactly the error. The union keeps
		// every sent index (CompactInto keeps touched zeros), so there
		// put-back would add nothing.
		if fold {
			r.sp.FoldError(local.Indices, r.orig, local.Values)
		}
		if !r.noPutBack && r.kind != unionKind {
			r.sp.PutBack(local, global.Indices)
		}
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

// allReduce is the round's one way onto the wire: it picks the union,
// naive, PS, quorum (flat or hierarchical), hierarchical or flat tree
// collective from the state the round holds.
func (r *round) allReduce(ctx context.Context, local *sparse.Vector) (global *sparse.Vector, participated bool, err error) {
	global, participated = &r.global, true
	switch {
	case r.kind == unionKind:
		global, err = TopKAllReduce(ctx, r.comm, local)
	case r.kind == naiveKind:
		global, err = NaiveGTopKAllReduce(ctx, r.comm, local, r.k)
	case r.kind == psKind:
		global, err = PSGTopKAllReduce(ctx, r.comm, local, r.k)
	case r.quorum.Q > 0:
		participated, _, err = HierQuorumGTopKAllReduceInto(ctx, r.comm, r.gc, local, r.k, r.group, r.quorum, global)
	case r.gc != nil:
		err = HierarchicalGTopKAllReduceInto(ctx, r.comm, r.gc, local, r.k, ChunksFor(r.k), global)
	default:
		err = GTopKAllReduceInto(ctx, r.comm, local, r.k, ChunksFor(r.k), global)
	}
	if err == nil {
		foldHierStats(r.comm, r.gc)
	}
	return global, participated, err
}

func validateK(dim, k int) error {
	if k < 1 || k > dim {
		return fmt.Errorf("core: k=%d out of range [1,%d]", k, dim)
	}
	return nil
}
