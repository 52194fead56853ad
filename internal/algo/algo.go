// Package algo is the one place an algorithm name becomes an
// aggregator. gtopk-train and every experiment (through
// internal/bench) and gtopk-worker build through Build, so every binary
// accepts the same names and configures them the same way: a sparse
// algorithm always gets the warmup schedule, and it corrects momentum
// (DGC) in the velocity core.NewTrainer lends it at
// core.TrainConfig.Momentum.
package algo

import (
	"fmt"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/quant"
	"gtopkssgd/internal/sparse"
)

// Names lists the algorithm names Build accepts — the registry CLI
// validation consults.
func Names() []string {
	return []string{"dense", "topk", "gtopk", "gtopk-hier", "gtopk-naive", "gtopk-ps",
		"gtopk-layerwise", "gtopk-bucketed", "signsgd", "terngrad", "gtopk-quant8"}
}

// Tree reports whether the named algorithm aggregates over the gTop-k
// tree, the collective a hierarchy group size and a quorum apply to.
func Tree(name string) bool {
	return name == "gtopk" || name == "gtopk-hier" || name == "gtopk-quant8"
}

// Spec configures one aggregator.
type Spec struct {
	Algo    string
	Density float64
	// WarmupDensities are per-epoch densities, ItersPerEpoch steps each,
	// applied before Density takes over (the paper uses [0.25, 0.0725,
	// 0.015, 0.004]).
	WarmupDensities []float64
	ItersPerEpoch   int
	// HierGroup is the gTop-k hierarchy's group size: gtopk-hier takes 4
	// when it is 0, and gtopk or gtopk-quant8 run the hierarchy when it
	// is > 0.
	HierGroup int
	// DisablePutBack turns off Algorithm 4 line 10 (the residual
	// ablation).
	DisablePutBack bool
	// Quorum, when non-zero, runs the straggler-tolerant quorum
	// collective.
	Quorum core.QuorumConfig
	// Wire is the sparse wire codec the fabric offers (0 means v1).
	Wire sparse.Codec
	Seed uint64
}

// Codec returns the wire codec the spec's fabric must offer: Wire, except
// that gtopk-quant8 is gtopk over v3-qsgd8.
func (s Spec) Codec() sparse.Codec {
	if s.Algo == "gtopk-quant8" {
		return sparse.CodecV3Q8
	}
	return s.Wire
}

// Group returns the hierarchy group size the tree algorithms run with
// (0: the flat tree).
func (s Spec) Group() int {
	if s.HierGroup == 0 && s.Algo == "gtopk-hier" {
		return 4
	}
	return s.HierGroup
}

// CheckQuorum validates the quorum sizes against a world of ranks before
// anything is built, so a command line reports them as usage errors;
// groupFlag names the group size in the messages.
func (s Spec) CheckQuorum(world int, groupFlag string) error {
	q, g := s.Quorum, s.Group()
	switch {
	case q.Q == 0:
		return nil
	case g > 1 && g < world:
		// Hierarchical regime: Q is the intra-group quorum.
		if lo := core.QuorumMin(g); q.Q < lo || q.Q > g {
			return fmt.Errorf("-quorum %d out of range [%d,%d] for %s %d (the intra-group quorum must be a strict majority of one group)", q.Q, lo, g, groupFlag, g)
		}
		numGroups := (world + g - 1) / g
		if lo := core.QuorumMin(numGroups); q.LeaderQ > 0 && (q.LeaderQ < lo || q.LeaderQ > numGroups) {
			return fmt.Errorf("-leader-quorum %d out of range [%d,%d] for %d groups", q.LeaderQ, lo, numGroups, numGroups)
		}
	case q.LeaderQ > 0 || q.Levels != (core.LevelTimeouts{}):
		return fmt.Errorf("group size %d does not split a world of %d into groups (it degenerates to the flat tree), so -leader-quorum and per-level budgets do not apply", g, world)
	default:
		if lo := core.QuorumMin(world); q.Q < lo || q.Q > world {
			return fmt.Errorf("-quorum %d out of range [%d,%d] for a world of %d (a quorum must be a strict majority)", q.Q, lo, world, world)
		}
	}
	return nil
}

// densityAt is the warmup schedule as a per-step density (nil without
// warmup).
func (s Spec) densityAt() func(step int) float64 {
	if len(s.WarmupDensities) == 0 {
		return nil
	}
	warm := append([]float64(nil), s.WarmupDensities...)
	target, iters := s.Density, s.ItersPerEpoch
	return func(step int) float64 {
		if epoch := step / iters; epoch < len(warm) {
			return warm[epoch]
		}
		return target
	}
}

// Build constructs the aggregator spec names over comm for a
// dim-parameter model whose cumulative layer offsets are bounds, after
// attaching the spec's codec compressor to comm. It rejects quorum sizes
// the world cannot hold (CheckQuorum) and the AllGather baselines —
// topk, gtopk-naive, signsgd and terngrad — on a world that is not a
// power of two, so an elastic epoch that shrinks to such a world fails
// at its build, not at its first step.
func Build(spec Spec, comm *collective.Comm, dim int, bounds []int) (core.Aggregator, error) {
	if err := spec.CheckQuorum(comm.Size(), "-hier-group"); err != nil {
		return nil, err
	}
	switch p := comm.Size(); spec.Algo {
	case "topk", "gtopk-naive", "signsgd", "terngrad":
		if p&(p-1) != 0 {
			return nil, fmt.Errorf("algo: %s exchanges through AllGather, which needs a power-of-two world; got %d", spec.Algo, p)
		}
	}
	quant.AttachStack(comm, spec.Codec(), spec.Seed)
	k := core.DensityToK(dim, spec.Density)
	density := spec.densityAt()
	var a *core.GTopKAggregator
	var err error
	switch spec.Algo {
	case "dense":
		return core.NewDenseAggregator(comm, dim), nil
	case "signsgd":
		return quant.NewSignSGDAggregator(comm, dim), nil
	case "terngrad":
		return quant.NewTernGradAggregator(comm, dim, spec.Seed), nil
	case "gtopk-layerwise", "gtopk-bucketed":
		if spec.Algo == "gtopk-bucketed" {
			bounds = core.GroupBounds(bounds, 4)
		}
		b, err := core.NewBucketedAggregator(comm, bounds, spec.Density)
		if err != nil {
			return nil, err
		}
		if density != nil {
			b.SetDensitySchedule(density)
		}
		if err := b.SetQuorum(spec.Quorum); err != nil {
			return nil, err
		}
		return b, nil
	case "topk":
		a, err = core.NewTopKAggregator(comm, dim, k)
	case "gtopk-naive":
		a, err = core.NewNaiveGTopKAggregator(comm, dim, k)
	case "gtopk-ps":
		a, err = core.NewPSGTopKAggregator(comm, dim, k)
	case "gtopk", "gtopk-hier", "gtopk-quant8":
		if g := spec.Group(); g > 0 {
			a, err = core.NewHierarchicalAggregator(comm, dim, k, g)
		} else {
			a, err = core.NewGTopKAggregator(comm, dim, k)
		}
	default:
		return nil, fmt.Errorf("algo: unknown algorithm %q", spec.Algo)
	}
	if err != nil {
		return nil, err
	}
	if density != nil {
		a.SetSchedule(func(step int) int { return core.DensityToK(dim, density(step)) })
	}
	a.SetPutBack(!spec.DisablePutBack)
	if err := a.SetQuorum(spec.Quorum); err != nil {
		return nil, err
	}
	return a, nil
}
