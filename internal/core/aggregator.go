package core

import (
	"context"
	"fmt"

	"gtopkssgd/internal/collective"
)

// Aggregator turns one worker's local dense gradient into the globally
// agreed model update for this iteration. Implementations differ in what
// they communicate; all return the same length-dim dense update vector
// (the MEAN gradient contribution, i.e. already divided by P) and must
// produce bit-identical updates on every rank so replicas never diverge.
//
// The returned update buffer belongs to the aggregator and is valid until
// its next Aggregate. A caller may rewrite entries in place (the trainer
// clips them) but must leave a zero entry zero: the sparse aggregators
// keep the buffer zero outside the support of the last update and rebuild
// it in O(nnz), re-zeroing only what they wrote.
type Aggregator interface {
	// Aggregate consumes grad (not retained) and returns the dense update.
	Aggregate(ctx context.Context, grad []float32) ([]float32, error)
	// Name identifies the algorithm in logs and experiment tables.
	Name() string
}

// SparseUpdater is the optional face of an Aggregator whose update is
// sparse: UpdateSupport returns the ascending dense indices outside which
// the update returned by the last Aggregate is zero (valid until the next
// one), so the optimizer tail can clip and apply k entries instead of
// sweeping the whole buffer.
type SparseUpdater interface {
	UpdateSupport() []int32
}

// DenseAggregator implements classic S-SGD: ring AllReduce over the full
// dense gradient (Eq. 3 + Eq. 5).
type DenseAggregator struct {
	comm *collective.Comm
	buf  []float32
}

// NewDenseAggregator creates a dense-gradient aggregator for a
// dim-parameter model.
func NewDenseAggregator(comm *collective.Comm, dim int) *DenseAggregator {
	return &DenseAggregator{comm: comm, buf: make([]float32, dim)}
}

// Name implements Aggregator.
func (a *DenseAggregator) Name() string { return "dense" }

// Aggregate implements Aggregator.
func (a *DenseAggregator) Aggregate(ctx context.Context, grad []float32) ([]float32, error) {
	if len(grad) != len(a.buf) {
		return nil, fmt.Errorf("core: dense aggregate: dim %d, want %d", len(grad), len(a.buf))
	}
	copy(a.buf, grad)
	if err := a.comm.RingAllReduceMean(ctx, a.buf); err != nil {
		return nil, fmt.Errorf("core: dense aggregate: %w", err)
	}
	return a.buf, nil
}

// TopKAggregator implements Top-k S-SGD (Algorithm 1): local top-k
// selection with error feedback, AllGather-based aggregation, average of
// the union support.
type TopKAggregator struct {
	comm     *collective.Comm
	sp       *Sparsifier
	k        int
	schedule func(step int) int
	step     int
	mu       float32
	velocity []float32
	dense    []float32
	orig     []float32 // pre-transform value snapshot for FoldError (reused)
	support  []int32   // where dense is non-zero (reused)
}

// NewTopKAggregator creates a Top-k aggregator selecting k of dim
// gradients per iteration.
func NewTopKAggregator(comm *collective.Comm, dim, k int) (*TopKAggregator, error) {
	if err := validateK(dim, k); err != nil {
		return nil, err
	}
	return &TopKAggregator{
		comm:  comm,
		sp:    NewSparsifier(dim),
		k:     k,
		dense: make([]float32, dim),
	}, nil
}

// Name implements Aggregator.
func (a *TopKAggregator) Name() string { return "topk" }

// SetK retunes the per-iteration selection count (warmup schedules).
func (a *TopKAggregator) SetK(k int) error {
	if err := validateK(a.sp.Dim(), k); err != nil {
		return err
	}
	a.k = k
	return nil
}

// SetSchedule installs a per-step selection-count schedule (the paper's
// warmup uses per-epoch densities [0.25, 0.0725, 0.015, 0.004] before the
// target density). The schedule overrides the static k; it must return
// values in [1, dim] and must be identical on every rank.
func (a *TopKAggregator) SetSchedule(f func(step int) int) { a.schedule = f }

// SetMomentumCorrection enables DGC-style momentum correction (Lin et
// al., cited as [12]): momentum is accumulated LOCALLY before
// sparsification (u ← µ·u + g; the residual accumulates u), so deferred
// coordinates carry their momentum history instead of having a global
// momentum term amplify spiky sparse updates. When enabled, configure
// the trainer with Momentum: 0.
func (a *TopKAggregator) SetMomentumCorrection(mu float32) {
	a.mu = mu
	if mu > 0 && a.velocity == nil {
		a.velocity = make([]float32, a.sp.Dim())
	}
}

// Sparsifier exposes the residual state for diagnostics.
func (a *TopKAggregator) Sparsifier() *Sparsifier { return a.sp }

// UpdateSupport implements SparseUpdater: the union of the ranks' top-k
// supports.
func (a *TopKAggregator) UpdateSupport() []int32 { return a.support }

// Aggregate implements Aggregator.
func (a *TopKAggregator) Aggregate(ctx context.Context, grad []float32) ([]float32, error) {
	if a.schedule != nil {
		if err := a.SetK(a.schedule(a.step)); err != nil {
			return nil, fmt.Errorf("core: topk schedule: %w", err)
		}
	}
	a.step++
	local, err := a.sp.SelectMomentum(a.mu, a.velocity, grad, a.k)
	if err != nil {
		return nil, fmt.Errorf("core: topk aggregate: %w", err)
	}
	// The AllGather's wire transform may pin the shipped values to the
	// codec's lattice in place; the difference goes back to the residual.
	// There is no global mask here — the union support keeps every sent
	// index — so nothing is put back.
	fold := a.comm.WireCodec().Lossy()
	if fold {
		a.orig = append(a.orig[:0], local.Values...)
	}
	sum, err := TopKAllReduce(ctx, a.comm, local)
	if err != nil {
		return nil, err
	}
	if fold {
		a.sp.FoldError(local.Indices, a.orig, local.Values)
	}
	a.support = sum.MeanIntoSparse(a.dense, a.comm.Size(), a.support)
	return a.dense, nil
}

// GTopKAggregator implements gTop-k S-SGD (Algorithm 4): one round —
// local top-k selection with error feedback, global top-k aggregation
// (Algorithm 3's tree, the two-level hierarchy over groups, either one's
// straggler-tolerant quorum variant, or Algorithm 2's AllGather),
// residual put-back for locally-sent-but-globally-dropped values,
// average by P — over the whole gradient. The embedded round carries the
// configuration surface (SetK, SetPutBack, SetMomentumCorrection,
// SetQuorum, Sparsifier, Group, QuorumGroup).
type GTopKAggregator struct {
	round
	schedule   func(step int) int
	step       int
	dense      []float32
	missStreak int // this rank's consecutive missed quorum rounds
}

// HierarchicalAggregator is the GTopKAggregator constructed over groups
// (NewHierarchicalAggregator); with group >= world (or <= 1) it runs the
// flat tree.
type HierarchicalAggregator = GTopKAggregator

func newGTopKAggregator(comm *collective.Comm, dim, k, group int) (*GTopKAggregator, error) {
	r, err := newRound(comm, dim, k, group)
	if err != nil {
		return nil, err
	}
	return &GTopKAggregator{round: r, dense: make([]float32, dim)}, nil
}

// NewGTopKAggregator creates a gTop-k aggregator selecting k of dim
// gradients globally per iteration using the efficient tree algorithm.
func NewGTopKAggregator(comm *collective.Comm, dim, k int) (*GTopKAggregator, error) {
	return newGTopKAggregator(comm, dim, k, 0)
}

// NewHierarchicalAggregator creates a gTop-k aggregator whose global
// exchange runs the two-level hierarchical collective over groups of
// `group` ranks. The group sub-communicators are forked from comm here,
// so every rank must construct its aggregator at the same point of its
// collective sequence (as with any Fork). With group >= world (or 1) it
// is bit-identical to NewGTopKAggregator.
func NewHierarchicalAggregator(comm *collective.Comm, dim, k, group int) (*HierarchicalAggregator, error) {
	if group < 1 {
		return nil, fmt.Errorf("core: hierarchical group size %d out of range: need >= 1", group)
	}
	return newGTopKAggregator(comm, dim, k, group)
}

// NewNaiveGTopKAggregator creates the Algorithm 2 variant that reaches
// the same global top-k selection through a full AllGather — used for
// Fig. 1 and for tree-vs-naive equivalence experiments.
func NewNaiveGTopKAggregator(comm *collective.Comm, dim, k int) (*GTopKAggregator, error) {
	a, err := NewGTopKAggregator(comm, dim, k)
	if err != nil {
		return nil, err
	}
	a.naive = true
	return a, nil
}

// Name implements Aggregator: "gtopk", then "-naive" or "-hier" for the
// collective that actually runs, then "-quorum" when quorum mode is on.
func (a *GTopKAggregator) Name() string { return a.name("gtopk") }

// QuorumMissStreak returns how many consecutive rounds this rank's
// contribution has missed a quorum deadline (0 when participating or
// when quorum mode is off) — the signal the cluster runtime turns into
// degraded-rank reports; with group-granular telemetry a whole missed
// group shows up as every one of its members streaking together.
func (a *GTopKAggregator) QuorumMissStreak() int { return a.missStreak }

// SetSchedule installs a per-step selection-count schedule; see
// TopKAggregator.SetSchedule.
func (a *GTopKAggregator) SetSchedule(f func(step int) int) { a.schedule = f }

// Aggregate implements Aggregator.
func (a *GTopKAggregator) Aggregate(ctx context.Context, grad []float32) ([]float32, error) {
	if a.schedule != nil {
		if err := a.SetK(a.schedule(a.step)); err != nil {
			return nil, fmt.Errorf("core: gtopk schedule: %w", err)
		}
	}
	a.step++
	missed, err := a.run(ctx, grad, a.dense)
	if err != nil {
		return nil, fmt.Errorf("core: %s aggregate: %w", a.Name(), err)
	}
	if missed {
		a.missStreak++
	} else {
		a.missStreak = 0
	}
	return a.dense, nil
}
