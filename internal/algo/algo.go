// Package algo is the one place an algorithm setting is declared,
// registered as a flag, validated and turned into an aggregator.
// gtopk-train and every experiment (through internal/bench) and
// gtopk-worker hold their algorithm settings in one Spec, register them
// with RegisterFlags and check them with Validate and CheckQuorum, so
// every binary accepts and refuses the same settings with the same
// messages. Build makes the aggregator: a sparse algorithm always gets
// the warmup schedule, and it corrects momentum (DGC) in the velocity
// core.NewTrainer lends it at core.TrainConfig.Momentum.
package algo

import (
	"flag"
	"fmt"
	"slices"
	"strings"

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

// tree reports whether the named algorithm aggregates over the gTop-k
// tree, the collective a hierarchy group size and a quorum apply to.
func tree(name string) bool {
	return name == "gtopk" || name == "gtopk-hier" || name == "gtopk-quant8"
}

// Spec is one algorithm configuration: every setting that picks and
// shapes the aggregator. RegisterFlags binds the command-line ones.
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
	// Quorum, when Quorum.Q > 0, runs the straggler-tolerant quorum
	// collective (-quorum, -leader-quorum and -round-timeout).
	Quorum core.QuorumConfig
	// Wire is the sparse wire codec the fabric offers (0 means v1).
	Wire sparse.Codec
	// Seed seeds the stochastic codecs and TernGrad's sampling.
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

// RegisterFlags registers the algorithm flags on fs — -algo, -density,
// -hier-group, -wire, -quorum, -leader-quorum and -round-timeout —
// bound to s's fields. Each flag's default is the field's value at
// registration, so a binary sets its defaults in the Spec it registers.
func (s *Spec) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Algo, "algo", s.Algo, "algorithm: "+strings.Join(Names(), "|")+
		" (gtopk-quant8 is gtopk over -wire v3-qsgd8, which it forces; the AllGather-based topk, gtopk-naive, signsgd and terngrad need a power-of-two world)")
	fs.Float64Var(&s.Density, "density", s.Density, "gradient density rho in (0,1] (dense ignores it)")
	fs.IntVar(&s.HierGroup, "hier-group", s.HierGroup, "hierarchical gTop-k group size G: ranks aggregate within groups of G and the group leaders exchange globally (0: the flat tree, or G=4 under gtopk-hier; requires -algo gtopk, gtopk-hier or gtopk-quant8; G >= world degenerates to the flat tree)")
	fs.Var((*codecFlag)(&s.Wire), "wire", "sparse wire `codec`: v1 (flat), v3 (delta/varint indices, lossless fp32 values; non-finite values are rejected at decode) or v3-<value> for value codec qsgd8, qsgd2, ternary or sign (lossy; the quantization error folds into the error-feedback residual); a mesh settles on the lowest version any rank offers")
	fs.IntVar(&s.Quorum.Q, "quorum", s.Quorum.Q, "straggler-tolerant quorum size q: each aggregation round closes after q contributions under the -round-timeout deadline, refunding stragglers' blocks to their residuals (0 disables; requires -algo gtopk, gtopk-hier or gtopk-quant8 and a strict majority; with a hierarchy, q is the intra-group quorum q_g over each group of G)")
	fs.IntVar(&s.Quorum.LeaderQ, "leader-quorum", s.Quorum.LeaderQ, "hierarchical quorum's leader-level quorum q_l over the group aggregates: a wholly slow group misses the round as a unit and refunds to residual (0 = wait for every group; requires -quorum and a hierarchy, -hier-group or -algo gtopk-hier)")
	fs.DurationVar(&s.Quorum.Timeout, "round-timeout", s.Quorum.Timeout, "per-round gather deadline for -quorum (must be > 0 when -quorum is set; with a hierarchy the budget splits 1/4:1/2:1/4 across the intra-group, leader and broadcast levels)")
}

// codecFlag is the -wire flag's view of Spec.Wire, where 0 means v1.
type codecFlag sparse.Codec

func (c *codecFlag) String() string {
	if *c == 0 {
		return sparse.CodecV1.String()
	}
	return sparse.Codec(*c).String()
}

func (c *codecFlag) Set(v string) error {
	codec, err := sparse.ParseCodec(v)
	if err == nil {
		*c = codecFlag(codec)
	}
	return err
}

// Validate checks every rule that needs no world size; CheckQuorum
// holds the ones that do. The messages name the flags RegisterFlags
// binds.
func (s Spec) Validate() error {
	q := s.Quorum
	switch {
	case !slices.Contains(Names(), s.Algo):
		return fmt.Errorf("unknown -algo %q (want %s)", s.Algo, strings.Join(Names(), ", "))
	case s.Algo != "dense" && (s.Density <= 0 || s.Density > 1):
		return fmt.Errorf("-density %v out of range: need 0 < rho <= 1", s.Density)
	case s.HierGroup < 0:
		return fmt.Errorf("-hier-group %d out of range: need >= 0", s.HierGroup)
	case s.HierGroup > 0 && !tree(s.Algo):
		return fmt.Errorf("-hier-group requires -algo gtopk, gtopk-hier or gtopk-quant8 (hierarchical aggregation is a gTop-k topology)")
	case q.Q < 0:
		return fmt.Errorf("-quorum %d out of range: need >= 0", q.Q)
	case q.Q > 0 && !tree(s.Algo):
		return fmt.Errorf("-quorum requires -algo gtopk, gtopk-hier or gtopk-quant8 (quorum rounds are a gTop-k collective mode)")
	case q.Q > 0 && q.Timeout <= 0:
		return fmt.Errorf("-quorum requires -round-timeout > 0 (got %v): a quorum without a deadline never closes early", q.Timeout)
	case q.Q == 0 && q.Timeout != 0:
		return fmt.Errorf("-round-timeout requires -quorum (a deadline only bounds quorum rounds)")
	case q.LeaderQ < 0:
		return fmt.Errorf("-leader-quorum %d out of range: need >= 0", q.LeaderQ)
	case q.LeaderQ > 0 && (q.Q == 0 || s.Group() == 0):
		return fmt.Errorf("-leader-quorum requires -quorum and -hier-group (the leader level only exists in the hierarchical quorum collective)")
	}
	return nil
}

// CheckQuorum validates the quorum sizes against a world of ranks
// before anything is built, so a command line reports them as usage
// errors.
func (s Spec) CheckQuorum(world int) error {
	q, g := s.Quorum, s.Group()
	switch {
	case q.Q == 0:
		return nil
	case g > 1 && g < world:
		// Hierarchical regime: Q is the intra-group quorum.
		if lo := core.QuorumMin(g); q.Q < lo || q.Q > g {
			return fmt.Errorf("-quorum %d out of range [%d,%d] for -hier-group %d (the intra-group quorum must be a strict majority of one group)", q.Q, lo, g, g)
		}
		numGroups := (world + g - 1) / g
		if lo := core.QuorumMin(numGroups); q.LeaderQ > 0 && (q.LeaderQ < lo || q.LeaderQ > numGroups) {
			return fmt.Errorf("-leader-quorum %d out of range [%d,%d] for %d groups", q.LeaderQ, lo, numGroups, numGroups)
		}
	case q.LeaderQ > 0:
		return fmt.Errorf("group size %d does not split a world of %d into groups (it degenerates to the flat tree), so -leader-quorum does not apply", g, world)
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
// attaching the spec's codec compressor to comm. It rejects a spec that
// fails Validate, quorum sizes the world cannot hold (CheckQuorum) and
// the AllGather baselines —
// topk, gtopk-naive, signsgd and terngrad — on a world that is not a
// power of two, so an elastic epoch that shrinks to such a world fails
// at its build, not at its first step.
func Build(spec Spec, comm *collective.Comm, dim int, bounds []int) (core.Aggregator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := spec.CheckQuorum(comm.Size()); err != nil {
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
	if err := a.SetQuorum(spec.Quorum); err != nil {
		return nil, err
	}
	return a, nil
}
