package core

import (
	"context"
	"fmt"

	"gtopkssgd/internal/collective"
)

// Update is one iteration's globally agreed model update: the MEAN
// gradient contribution (already divided by P), Values[j] belonging to
// model position At[j], positions ascending. At == nil means dense:
// Values holds all dim entries, and it is the gradient buffer the
// aggregator consumed, reduced in place. A sparse aggregator's At is
// never nil — every round agrees on at least one position — so its
// update is the round's k (index, mean) pairs and no dim-length buffer
// exists. The trainer applies a compact update at its positions alone:
// its momentum was already corrected in the velocity the trainer lent
// the round.
type Update struct {
	At     []int32
	Values []float32
}

// Aggregator turns one worker's local dense gradient into the globally
// agreed model update for this iteration. Implementations differ in what
// they communicate; all must produce bit-identical updates on every rank
// so replicas never diverge: the dense, signSGD and TernGrad aggregators
// write their mean into grad and return it (At == nil), the sparse ones
// the round's compact update. Under momentum the trainer lends its
// velocity to a sparse aggregator of this package and runs momentum over
// a dense update itself; it refuses a compact update from any other
// aggregator.
//
// A dense update is valid until the caller writes grad again, a compact
// one until the aggregator's next Aggregate. The trainer only reads it.
type Aggregator interface {
	// Aggregate consumes grad and returns the update. A dense aggregator
	// overwrites grad with its update; a sparse one does not write it.
	// Neither retains grad past the call.
	Aggregate(ctx context.Context, grad []float32) (Update, error)
	// Name identifies the algorithm in logs and experiment tables.
	Name() string
}

// DenseAggregator implements classic S-SGD: ring AllReduce over the full
// dense gradient (Eq. 3 + Eq. 5), run in the gradient buffer itself.
type DenseAggregator struct {
	comm *collective.Comm
	dim  int
}

// NewDenseAggregator creates a dense-gradient aggregator for a
// dim-parameter model.
func NewDenseAggregator(comm *collective.Comm, dim int) *DenseAggregator {
	return &DenseAggregator{comm: comm, dim: dim}
}

// Name implements Aggregator.
func (a *DenseAggregator) Name() string { return "dense" }

// Aggregate implements Aggregator: grad becomes the mean gradient.
func (a *DenseAggregator) Aggregate(ctx context.Context, grad []float32) (Update, error) {
	if len(grad) != a.dim {
		return Update{}, fmt.Errorf("core: dense aggregate: dim %d, want %d", len(grad), a.dim)
	}
	if err := a.comm.RingAllReduceMean(ctx, grad); err != nil {
		return Update{}, fmt.Errorf("core: dense aggregate: %w", err)
	}
	return Update{Values: grad}, nil
}

// GTopKAggregator implements gTop-k S-SGD (Algorithm 4) and, over other
// collectives, Top-k S-SGD (Algorithm 1) and PS-mode gTop-k: one round —
// local top-k selection with error feedback, aggregation (Algorithm 3's
// tree, the two-level hierarchy over groups, either one's
// straggler-tolerant quorum variant, Algorithm 2's AllGather, the
// parameter-server star, or Algorithm 1's union AllGather), residual
// put-back for locally-sent-but-globally-dropped values, average by P —
// over the whole gradient, ending on the k (index, mean) pairs
// Aggregate returns. The embedded round carries the configuration
// surface (SetK, SetSchedule, SetPutBack, SetQuorum, Sparsifier,
// QuorumGroup); momentum correction is TrainConfig.Momentum, which
// NewTrainer lends to the round.
type GTopKAggregator struct {
	round
	missStreak int // this rank's consecutive missed quorum rounds
}

// HierarchicalAggregator is the GTopKAggregator constructed over groups
// (NewHierarchicalAggregator); with group >= world (or <= 1) it runs the
// flat tree.
type HierarchicalAggregator = GTopKAggregator

func newGTopKAggregator(comm *collective.Comm, dim, k, group int, kind collectiveKind) (*GTopKAggregator, error) {
	r, err := newRound(comm, NewSparsifier(dim), k, group)
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

// Aggregate implements Aggregator.
func (a *GTopKAggregator) Aggregate(ctx context.Context, grad []float32) (Update, error) {
	update, missed, err := a.run(ctx, grad)
	if err != nil {
		return Update{}, fmt.Errorf("core: %s aggregate: %w", a.Name(), err)
	}
	if missed {
		a.missStreak++
	} else {
		a.missStreak = 0
	}
	return Update{At: update.Indices, Values: update.Values}, nil
}
