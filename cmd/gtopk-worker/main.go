// Command gtopk-worker runs ONE rank of a genuinely multi-process
// distributed training job over TCP. Workers join a gtopk-coordinator
// by name and never learn about ranks or address lists; the coordinator
// assigns both and reassigns them when membership changes:
//
//	gtopk-coordinator -listen 127.0.0.1:7070 -world 4 &
//	for i in 0 1 2 3; do
//	    gtopk-worker -coordinator 127.0.0.1:7070 -name w$i \
//	                 -checkpoint-dir /tmp/gtopk &
//	done
//
// A fixed cluster is the case in which nobody dies and nobody joins. If
// a worker is SIGKILLed mid-training, the survivors re-form the mesh at
// the smaller world size and resume from their last checkpoint —
// momentum and error-feedback residual intact. The reverse works too: a
// worker started against an already-running job (same command line, new
// -name) is parked by the coordinator and admitted at the next epoch
// boundary, adopting the cluster's weights and momentum from a donor
// rank; park and admission events print on stderr. See
// docs/ARCHITECTURE.md for the failure/recovery and grow walkthroughs.
//
// All ranks train the same model with identical seeds; the aggregation
// algorithm keeps replicas bit-identical, which the runtime checks after
// the last step and rank 0 reports. The AllGather baselines (topk,
// gtopk-naive, signsgd, terngrad) need a power-of-two world, so they
// fail at the build of an epoch that shrinks to any other size.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"gtopkssgd/internal/algo"
	"gtopkssgd/internal/cluster"
	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/data"
	"gtopkssgd/internal/metrics"
	"gtopkssgd/internal/nn/models"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/trace"
	"gtopkssgd/internal/transport"
)

// options collects every flag; one struct keeps validation in one
// place and testable.
type options struct {
	// membership, recovery and tracing
	coordinator string
	name        string
	dataAddr    string
	ckptDir     string
	ckptEvery   int
	traceCSV    string
	// training parameters
	algo         string
	steps        int
	batch        int
	density      float64
	lr           float64
	seed         uint64
	timeout      time.Duration
	tcpNoDelay   bool
	wire         string
	hierGroup    int
	quorum       int
	leaderQuorum int
	roundTimeout time.Duration
	groupTO      time.Duration
	leaderTO     time.Duration
	verdictTO    time.Duration

	// wireCodec is the parsed -wire flag.
	wireCodec sparse.Codec
}

// tcpOptions maps the -tcp-nodelay and -wire flags onto the transport
// options; the mesh handshake offers the codec's wire version and
// settles on the minimum any member offers.
func (o *options) tcpOptions() transport.TCPOptions {
	return transport.TCPOptions{
		DisableNoDelay: !o.tcpNoDelay,
		WireVersion:    o.wireCodec.WireVersion(),
	}
}

func main() {
	var o options
	flag.StringVar(&o.coordinator, "coordinator", "", "gtopk-coordinator control address (required)")
	flag.StringVar(&o.name, "name", "", "stable worker name (required)")
	flag.StringVar(&o.dataAddr, "data-addr", "127.0.0.1:0", "data-plane listen address")
	flag.StringVar(&o.ckptDir, "checkpoint-dir", "", "directory for per-worker snapshots; a restarted worker resumes from its own (required)")
	flag.IntVar(&o.ckptEvery, "checkpoint-every", 10, "snapshot cadence in iterations")
	flag.StringVar(&o.traceCSV, "trace", "", "write per-iteration phase timings CSV to this file when training completes")
	flag.StringVar(&o.algo, "algo", "gtopk", "algorithm: "+strings.Join(algo.Names(), "|")+" (gtopk-quant8 is gtopk over -wire v3-qsgd8, which it forces; the AllGather-based topk, gtopk-naive, signsgd and terngrad need a power-of-two world)")
	flag.IntVar(&o.steps, "steps", 50, "training steps")
	flag.IntVar(&o.batch, "batch", 16, "mini-batch size per worker")
	flag.Float64Var(&o.density, "density", 0.01, "gradient density rho in (0,1]")
	flag.Float64Var(&o.lr, "lr", 0.05, "learning rate")
	flag.Uint64Var(&o.seed, "seed", 42, "shared model/data seed")
	flag.DurationVar(&o.timeout, "timeout", 60*time.Second, "per-epoch mesh wire-up bound")
	flag.BoolVar(&o.tcpNoDelay, "tcp-nodelay", true, "enable TCP_NODELAY on mesh sockets (false re-enables Nagle's algorithm)")
	flag.StringVar(&o.wire, "wire", "v3", "sparse wire codec: v1 (flat), v3 (delta/varint indices, lossless fp32 values; non-finite values are rejected at decode) or v3-<value> for value codec fp16, qsgd8, qsgd4, qsgd2, ternary or sign (lossy; the rounding/quantization error folds into the error-feedback residual); meshes settle on the lowest version any worker offers")
	flag.IntVar(&o.hierGroup, "hier-group", 0, "hierarchical gTop-k group size G: workers aggregate within groups of G, leaders exchange globally (0 disables; requires -algo gtopk; G >= world degenerates to the flat tree)")
	flag.IntVar(&o.quorum, "quorum", 0, "straggler-tolerant quorum size q: each aggregation round closes after q contributions under the -round-timeout deadline, refunding stragglers' blocks to their residuals (0 disables; requires -algo gtopk and a strict majority; with -hier-group, q is the intra-group quorum q_g over each group of G)")
	flag.IntVar(&o.leaderQuorum, "leader-quorum", 0, "hierarchical quorum's leader-level quorum q_l over the group aggregates: a wholly slow group misses the round as a unit and refunds to residual (0 = wait for every group; requires -quorum and -hier-group)")
	flag.DurationVar(&o.roundTimeout, "round-timeout", 0, "per-round gather deadline for -quorum (must be > 0 when -quorum is set; with -hier-group it is the whole-round budget the per-level deadlines split)")
	flag.DurationVar(&o.groupTO, "group-timeout", 0, "hierarchical quorum's intra-group gather budget (set all three level budgets or none; zero = the default 1/4:1/2:1/4 split of -round-timeout; requires -quorum and -hier-group)")
	flag.DurationVar(&o.leaderTO, "leader-timeout", 0, "hierarchical quorum's leader-level gather budget (see -group-timeout)")
	flag.DurationVar(&o.verdictTO, "verdict-timeout", 0, "hierarchical quorum's per-attempt verdict broadcast budget (see -group-timeout)")
	flag.Parse()

	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "gtopk-worker: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(&o); err != nil {
		fmt.Fprintln(os.Stderr, "gtopk-worker:", err)
		os.Exit(1)
	}
}

// validate rejects nonsensical flag combinations up front with a usage
// message instead of a late panic deep inside the training loop. The
// quorum ranges need the world size, which only an epoch's
// configuration carries, so each epoch's algo.Build checks them against
// its world (Spec.CheckQuorum).
func (o *options) validate() error {
	if !slices.Contains(algo.Names(), o.algo) {
		return fmt.Errorf("unknown -algo %q (want %s)", o.algo, strings.Join(algo.Names(), ", "))
	}
	if o.steps < 1 {
		return fmt.Errorf("-steps %d out of range: need >= 1", o.steps)
	}
	if o.batch < 1 {
		return fmt.Errorf("-batch %d out of range: need >= 1", o.batch)
	}
	if o.density <= 0 || o.density > 1 {
		return fmt.Errorf("-density %v out of range: need 0 < rho <= 1", o.density)
	}
	if o.lr <= 0 {
		return fmt.Errorf("-lr %v out of range: need > 0", o.lr)
	}
	if o.timeout <= 0 {
		return fmt.Errorf("-timeout %v out of range: need > 0", o.timeout)
	}
	codec, err := sparse.ParseCodec(o.wire)
	if err != nil {
		return fmt.Errorf("-wire: %w", err)
	}
	o.wireCodec = algo.Spec{Algo: o.algo, Wire: codec}.Codec()
	if o.hierGroup < 0 {
		return fmt.Errorf("-hier-group %d out of range: need >= 0", o.hierGroup)
	}
	if o.algo == "gtopk-hier" && o.hierGroup == 0 {
		o.hierGroup = algo.Spec{Algo: o.algo}.Group()
	}
	if o.hierGroup > 0 && !algo.Tree(o.algo) {
		return fmt.Errorf("-hier-group requires -algo gtopk, gtopk-hier or gtopk-quant8 (hierarchical aggregation is a gTop-k topology)")
	}
	if o.quorum < 0 {
		return fmt.Errorf("-quorum %d out of range: need >= 0", o.quorum)
	}
	if o.quorum > 0 {
		if !algo.Tree(o.algo) {
			return fmt.Errorf("-quorum requires -algo gtopk, gtopk-hier or gtopk-quant8 (quorum rounds are a gTop-k collective mode)")
		}
		if o.roundTimeout <= 0 {
			return fmt.Errorf("-quorum requires -round-timeout > 0 (got %v): a quorum without a deadline never closes early", o.roundTimeout)
		}
	} else if o.roundTimeout != 0 {
		return fmt.Errorf("-round-timeout requires -quorum (a deadline only bounds quorum rounds)")
	}
	if o.leaderQuorum < 0 {
		return fmt.Errorf("-leader-quorum %d out of range: need >= 0", o.leaderQuorum)
	}
	if o.leaderQuorum > 0 && (o.quorum == 0 || o.hierGroup == 0) {
		return fmt.Errorf("-leader-quorum requires -quorum and -hier-group (the leader level only exists in the hierarchical quorum collective)")
	}
	if o.groupTO != 0 || o.leaderTO != 0 || o.verdictTO != 0 {
		if o.quorum == 0 || o.hierGroup == 0 {
			return fmt.Errorf("-group-timeout/-leader-timeout/-verdict-timeout require -quorum and -hier-group (per-level budgets only exist in the hierarchical quorum collective)")
		}
		if o.groupTO <= 0 || o.leaderTO <= 0 || o.verdictTO <= 0 {
			return fmt.Errorf("per-level budgets must all be set and positive (got -group-timeout %v, -leader-timeout %v, -verdict-timeout %v; zero all three for the default 1/4:1/2:1/4 split)",
				o.groupTO, o.leaderTO, o.verdictTO)
		}
		if sum := o.groupTO + o.leaderTO + o.verdictTO; sum > o.roundTimeout {
			return fmt.Errorf("per-level budgets %v + %v + %v = %v exceed -round-timeout %v", o.groupTO, o.leaderTO, o.verdictTO, sum, o.roundTimeout)
		}
	}
	switch {
	case o.coordinator == "":
		return fmt.Errorf("need -coordinator (the gtopk-coordinator control address the worker joins)")
	case o.name == "":
		return fmt.Errorf("-coordinator requires -name (the worker's stable identity)")
	case o.ckptDir == "":
		return fmt.Errorf("-coordinator requires -checkpoint-dir (failure recovery resumes from snapshots)")
	case o.ckptEvery < 1:
		return fmt.Errorf("-checkpoint-every %d out of range: need >= 1", o.ckptEvery)
	}
	return nil
}

// spec assembles the parsed flags into the aggregator specification.
// Zero level budgets select the default split, and without -quorum the
// quorum configuration is zero. Momentum is not the spec's: the trainer
// runs at TrainConfig.Momentum 0.9, which a sparse aggregator corrects
// (DGC) in the velocity the trainer lends it.
func (o *options) spec() algo.Spec {
	return algo.Spec{
		Algo: o.algo, Density: o.density, HierGroup: o.hierGroup, Wire: o.wireCodec, Seed: o.seed,
		Quorum: core.QuorumConfig{
			Q:       o.quorum,
			LeaderQ: o.leaderQuorum,
			Timeout: o.roundTimeout,
			Levels:  core.LevelTimeouts{Group: o.groupTO, Leader: o.leaderTO, Broadcast: o.verdictTO},
		},
	}
}

// degradeAfter is the consecutive-missed-round streak at which a
// worker reports itself degraded to the coordinator (telemetry
// only; the epoch is never reformed for a slow rank).
const degradeAfter = 3

// run joins a coordinator and trains until the job completes,
// surviving membership changes.
func run(o *options) error {
	ds, err := data.NewImages(o.seed+1, 10, 3, 8, 8, 0.4)
	if err != nil {
		return err
	}
	// One tally and one trace across epochs: per-worker compression
	// totals and phase timings survive membership changes the way the
	// communication Stats do.
	tally := &metrics.WireTally{}
	rec := trace.NewRecorder()
	var negotiated string
	res, err := cluster.Run(context.Background(), cluster.RuntimeConfig{
		Name:            o.name,
		Coordinator:     o.coordinator,
		DataAddr:        o.dataAddr,
		Steps:           o.steps,
		CheckpointPath:  filepath.Join(o.ckptDir, o.name+".gtkc"),
		CheckpointEvery: o.ckptEvery,
		MeshTimeout:     o.timeout,
		TCP:             o.tcpOptions(),
		DegradeAfter:    degradeAfter,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
		OnStep: func(info cluster.StepInfo) error {
			if info.Rank == 0 && (info.Iter%10 == 0 || info.Iter == o.steps) {
				fmt.Printf("epoch %d  iter %4d  loss %.4f  (world %d)\n", info.Epoch, info.Iter, info.Loss, info.World)
				fmt.Printf("wire: codec=%s %s\n", negotiated, tally.Snapshot())
			}
			return nil
		},
		Build: func(rank, world int, comm *collective.Comm) (*cluster.Session, error) {
			comm.SetWireTally(tally)
			cls := models.MLP(ds.Dim(), 64, 10)
			cls.Net.Init(o.seed)
			// An illegal (quorum, group, world) combination, or an
			// AllGather baseline at a world that is not a power of two,
			// fails the epoch build loudly instead of wedging a round.
			agg, err := algo.Build(o.spec(), comm, cls.Net.ParamCount(), cls.Net.LayerBounds())
			if err != nil {
				return nil, err
			}
			negotiated = comm.WireCodec().String()
			tr, err := core.NewTrainer(core.TrainConfig{LR: float32(o.lr), Momentum: 0.9},
				agg, cls.Net.Parameters(), models.GradFn(cls, ds, rank, world, o.batch))
			if err != nil {
				return nil, err
			}
			if o.traceCSV != "" {
				tr.SetPhaseHook(func(iter int, pt core.PhaseTimes) {
					rec.Record(iter, trace.PhaseCompute, pt.Compute)
					rec.Record(iter, trace.PhaseAggregate, pt.Aggregate)
					rec.Record(iter, trace.PhaseUpdate, pt.Update)
				})
			}
			// A sparse aggregator's Sparsifier owns the residual the
			// snapshots carry (a bucketed one's across all buckets).
			sess := &cluster.Session{Trainer: tr, Params: cls.Net.Parameters()}
			if sp, ok := agg.(interface{ Sparsifier() *core.Sparsifier }); ok {
				sess.Sparsifier = sp.Sparsifier()
			}
			if q, ok := agg.(interface{ QuorumMissStreak() int }); ok && o.quorum > 0 {
				sess.QuorumMisses = q.QuorumMissStreak
			}
			if g, ok := agg.(interface{ QuorumGroup() int }); ok && o.quorum > 0 {
				// Group-granular degraded telemetry: a wholly partitioned
				// hierarchy group streaks — and reports — as a unit.
				sess.QuorumGroup = g.QuorumGroup
			}
			return sess, nil
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s: completed %d steps across %d epoch(s); final loss %.4f at world %d (rank %d)\n",
		o.name, res.Steps, res.Epochs, res.LastLoss, res.FinalWorld, res.FinalRank)
	if res.FinalRank == 0 {
		// Run returned, so the completion agreement found every rank's
		// weights bit-identical.
		fmt.Printf("replicas CONSISTENT across %d workers\n", res.FinalWorld)
	}
	if o.traceCSV == "" {
		return nil
	}
	f, err := os.Create(o.traceCSV)
	if err != nil {
		return err
	}
	if err := rec.WriteCSV(f); err != nil {
		f.Close() //nolint:errcheck // error path
		return err
	}
	return f.Close()
}
