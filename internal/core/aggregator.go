package core

import (
	"context"
	"fmt"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/sparse"
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
// it in O(nnz), re-zeroing only what they wrote. A sparse aggregator
// allocates that buffer on its first Aggregate: a trainer takes the
// compact update (SparseUpdater) and never asks for it.
type Aggregator interface {
	// Aggregate consumes grad (not retained) and returns the dense update.
	Aggregate(ctx context.Context, grad []float32) ([]float32, error)
	// Name identifies the algorithm in logs and experiment tables.
	Name() string
}

// SparseUpdater is the face of an Aggregator whose update is sparse.
// AggregateSparse runs the same step as Aggregate but returns the update
// compact, as k (index, mean) pairs: the ascending dense support and the
// values (0 + v)·(1/P) aligned with it — the bits Aggregate scatters
// into its dense view, which is zero everywhere else. The vector belongs
// to the aggregator and is valid until its next step; the caller may
// rewrite values in place (the trainer clips them). The optimizer tail
// then touches k entries, and no dim-length update buffer exists.
type SparseUpdater interface {
	Aggregator
	AggregateSparse(ctx context.Context, grad []float32) (*sparse.Vector, error)
}

// denseView is a sparse aggregator's dense update, built only for the
// callers of the dense Aggregate: allocated on the first call, then
// rebuilt in O(k) by MeanIntoSparse, which re-zeroes the previous call's
// support. The values are already means, so the scatter runs at p = 1,
// where (0 + v)·1 leaves their bits unchanged.
type denseView struct {
	buf     []float32
	support []int32
}

// of returns u scattered into the view, or err when the step failed.
func (d *denseView) of(u *sparse.Vector, err error) ([]float32, error) {
	if err != nil {
		return nil, err
	}
	if d.buf == nil {
		d.buf = make([]float32, u.Dim)
	}
	d.support = u.MeanIntoSparse(d.buf, 1, d.support)
	return d.buf, nil
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

// GTopKAggregator implements gTop-k S-SGD (Algorithm 4) and, over other
// collectives, Top-k S-SGD (Algorithm 1) and PS-mode gTop-k: one round —
// local top-k selection with error feedback, aggregation (Algorithm 3's
// tree, the two-level hierarchy over groups, either one's
// straggler-tolerant quorum variant, Algorithm 2's AllGather, the
// parameter-server star, or Algorithm 1's union AllGather), residual
// put-back for locally-sent-but-globally-dropped values, average by P —
// over the whole gradient, ending on the k (index, mean) pairs
// AggregateSparse returns. The embedded round carries the configuration
// surface (SetK, SetSchedule, SetPutBack, SetMomentumCorrection,
// SetQuorum, Sparsifier, Group, QuorumGroup).
type GTopKAggregator struct {
	round
	view       denseView // Aggregate's dense update (nil until first asked for)
	missStreak int       // this rank's consecutive missed quorum rounds
}

// HierarchicalAggregator is the GTopKAggregator constructed over groups
// (NewHierarchicalAggregator); with group >= world (or <= 1) it runs the
// flat tree.
type HierarchicalAggregator = GTopKAggregator

func newGTopKAggregator(comm *collective.Comm, dim, k, group int, kind collectiveKind) (*GTopKAggregator, error) {
	r, err := newRound(comm, dim, k, group)
	if err != nil {
		return nil, err
	}
	r.kind = kind
	return &GTopKAggregator{round: r}, nil
}

// NewGTopKAggregator creates a gTop-k aggregator selecting k of dim
// gradients globally per iteration using the efficient tree algorithm.
func NewGTopKAggregator(comm *collective.Comm, dim, k int) (*GTopKAggregator, error) {
	return newGTopKAggregator(comm, dim, k, 0, treeKind)
}

// NewTopKAggregator creates the Top-k S-SGD aggregator (Algorithm 1):
// each rank's k selected gradients are AllGathered and the update is the
// mean over the union of the supports, so nothing is ever put back.
func NewTopKAggregator(comm *collective.Comm, dim, k int) (*GTopKAggregator, error) {
	return newGTopKAggregator(comm, dim, k, 0, unionKind)
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
	return newGTopKAggregator(comm, dim, k, group, treeKind)
}

// NewNaiveGTopKAggregator creates the Algorithm 2 variant that reaches
// the same global top-k selection through a full AllGather — used for
// Fig. 1 and for tree-vs-naive equivalence experiments.
func NewNaiveGTopKAggregator(comm *collective.Comm, dim, k int) (*GTopKAggregator, error) {
	return newGTopKAggregator(comm, dim, k, 0, naiveKind)
}

// NewPSGTopKAggregator creates the parameter-server variant (footnote 2):
// the same global top-k selection reached through PSGTopKAllReduce's
// star, rank 0 doubling as server and worker as in colocated PS
// deployments.
func NewPSGTopKAggregator(comm *collective.Comm, dim, k int) (*GTopKAggregator, error) {
	return newGTopKAggregator(comm, dim, k, 0, psKind)
}

// Name implements Aggregator: "topk" for the union, else "gtopk", then
// "-naive", "-ps" or "-hier" for the collective that actually runs, then
// "-quorum" when quorum mode is on.
func (a *GTopKAggregator) Name() string { return a.name("gtopk") }

// QuorumMissStreak returns how many consecutive rounds this rank's
// contribution has missed a quorum deadline (0 when participating or
// when quorum mode is off) — the signal the cluster runtime turns into
// degraded-rank reports; with group-granular telemetry a whole missed
// group shows up as every one of its members streaking together.
func (a *GTopKAggregator) QuorumMissStreak() int { return a.missStreak }

// Aggregate implements Aggregator: AggregateSparse scattered into the
// dense view.
func (a *GTopKAggregator) Aggregate(ctx context.Context, grad []float32) ([]float32, error) {
	return a.view.of(a.AggregateSparse(ctx, grad))
}

// AggregateSparse implements SparseUpdater.
func (a *GTopKAggregator) AggregateSparse(ctx context.Context, grad []float32) (*sparse.Vector, error) {
	update, missed, err := a.run(ctx, grad)
	if err != nil {
		return nil, fmt.Errorf("core: %s aggregate: %w", a.Name(), err)
	}
	if missed {
		a.missStreak++
	} else {
		a.missStreak = 0
	}
	return update, nil
}
