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
	// training parameters; spec holds the algorithm flags, which
	// algo.Spec registers and validates
	spec    algo.Spec
	steps   int
	batch   int
	lr      float64
	timeout time.Duration
}

func main() {
	o := options{spec: algo.Spec{Algo: "gtopk", Density: 0.01, Wire: sparse.CodecV3}}
	o.spec.RegisterFlags(flag.CommandLine)
	flag.StringVar(&o.coordinator, "coordinator", "", "gtopk-coordinator control address (required)")
	flag.StringVar(&o.name, "name", "", "stable worker name (required)")
	flag.StringVar(&o.dataAddr, "data-addr", "127.0.0.1:0", "data-plane listen address")
	flag.StringVar(&o.ckptDir, "checkpoint-dir", "", "directory for per-worker snapshots; a restarted worker resumes from its own (required)")
	flag.IntVar(&o.ckptEvery, "checkpoint-every", 10, "snapshot cadence in iterations")
	flag.StringVar(&o.traceCSV, "trace", "", "write per-iteration phase timings CSV to this file when training completes")
	flag.IntVar(&o.steps, "steps", 50, "training steps")
	flag.IntVar(&o.batch, "batch", 16, "mini-batch size per worker")
	flag.Float64Var(&o.lr, "lr", 0.05, "learning rate")
	flag.Uint64Var(&o.spec.Seed, "seed", 42, "shared model/data seed")
	flag.DurationVar(&o.timeout, "timeout", 60*time.Second, "per-epoch mesh wire-up bound")
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
	if err := o.spec.Validate(); err != nil {
		return err
	}
	switch {
	case o.steps < 1:
		return fmt.Errorf("-steps %d out of range: need >= 1", o.steps)
	case o.batch < 1:
		return fmt.Errorf("-batch %d out of range: need >= 1", o.batch)
	case o.lr <= 0:
		return fmt.Errorf("-lr %v out of range: need > 0", o.lr)
	case o.timeout <= 0:
		return fmt.Errorf("-timeout %v out of range: need > 0", o.timeout)
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

// degradeAfter is the consecutive-missed-round streak at which a
// worker reports itself degraded to the coordinator (telemetry
// only; the epoch is never reformed for a slow rank).
const degradeAfter = 3

// run joins a coordinator and trains until the job completes,
// surviving membership changes.
func run(o *options) error {
	ds, err := data.NewImages(o.spec.Seed+1, 10, 3, 8, 8, 0.4)
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
		// The mesh handshake offers the codec's wire version and settles
		// on the minimum any member offers.
		TCP:          transport.TCPOptions{WireVersion: o.spec.Codec().WireVersion()},
		DegradeAfter: degradeAfter,
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
			cls.Net.Init(o.spec.Seed)
			// An illegal (quorum, group, world) combination, or an
			// AllGather baseline at a world that is not a power of two,
			// fails the epoch build loudly instead of wedging a round.
			// Momentum is not the spec's: the trainer runs at
			// TrainConfig.Momentum 0.9, which a sparse aggregator corrects
			// (DGC) in the velocity the trainer lends it.
			agg, err := algo.Build(o.spec, comm, cls.Net.ParamCount(), cls.Net.LayerBounds())
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
			if q, ok := agg.(interface{ QuorumMissStreak() int }); ok && o.spec.Quorum.Q > 0 {
				sess.QuorumMisses = q.QuorumMissStreak
			}
			if g, ok := agg.(interface{ QuorumGroup() int }); ok && o.spec.Quorum.Q > 0 {
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
