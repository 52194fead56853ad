// Command gtopk-worker runs ONE rank of a genuinely multi-process
// distributed training job over TCP, in one of two modes.
//
// Elastic mode (preferred): workers join a gtopk-coordinator by name
// and never learn about ranks or address lists; the coordinator assigns
// both and reassigns them when membership changes:
//
//	gtopk-coordinator -listen 127.0.0.1:7070 -world 4 &
//	for i in 0 1 2 3; do
//	    gtopk-worker -coordinator 127.0.0.1:7070 -name w$i \
//	                 -checkpoint-dir /tmp/gtopk &
//	done
//
// If a worker is SIGKILLed mid-training, the survivors re-form the mesh
// at the smaller world size and resume from their last checkpoint —
// momentum and error-feedback residual intact. The reverse works too: a
// worker started against an already-running job (same command line, new
// -name) is parked by the coordinator and admitted at the next epoch
// boundary, adopting the cluster's weights and momentum from a donor
// rank; park and admission events print on stderr. See
// docs/ARCHITECTURE.md for the failure/recovery and grow walkthroughs.
//
// Static mode (legacy): a fixed, hand-written membership; the job dies
// with its weakest worker:
//
//	gtopk-worker -rank 0 -addrs 127.0.0.1:7000,127.0.0.1:7001 &
//	gtopk-worker -rank 1 -addrs 127.0.0.1:7000,127.0.0.1:7001 &
//
// All ranks train the same model with identical seeds; the aggregation
// algorithm keeps replicas bit-identical, which rank 0 reports at the
// end.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gtopkssgd/internal/checkpoint"
	"gtopkssgd/internal/cluster"
	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/data"
	"gtopkssgd/internal/metrics"
	"gtopkssgd/internal/nn/models"
	"gtopkssgd/internal/quant"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/trace"
	"gtopkssgd/internal/transport"
)

// options collects every flag; one struct keeps validation in one
// place and testable.
type options struct {
	// elastic mode
	coordinator string
	name        string
	dataAddr    string
	ckptDir     string
	ckptEvery   int
	// static mode
	rank     int
	addrList string
	ckptPath string
	traceCSV string
	// shared training parameters
	algo         string
	steps        int
	batch        int
	density      float64
	lr           float64
	seed         uint64
	timeout      time.Duration
	tcpNoDelay   bool
	wire         string
	selectShards int
	hierGroup    int
	quorum       int
	leaderQuorum int
	roundTimeout time.Duration
	groupTO      time.Duration
	leaderTO     time.Duration
	verdictTO    time.Duration
	kernels      string

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
	flag.StringVar(&o.coordinator, "coordinator", "", "coordinator control address (enables elastic mode)")
	flag.StringVar(&o.name, "name", "", "stable worker name (elastic mode; required with -coordinator)")
	flag.StringVar(&o.dataAddr, "data-addr", "127.0.0.1:0", "data-plane listen address (elastic mode)")
	flag.StringVar(&o.ckptDir, "checkpoint-dir", "", "directory for per-worker snapshots (elastic mode; required)")
	flag.IntVar(&o.ckptEvery, "checkpoint-every", 10, "snapshot cadence in iterations (elastic mode)")
	flag.IntVar(&o.rank, "rank", 0, "this worker's rank (static mode)")
	flag.StringVar(&o.addrList, "addrs", "", "comma-separated host:port per rank (static mode)")
	flag.StringVar(&o.ckptPath, "checkpoint", "", "checkpoint file: resume if present, save at end (static mode)")
	flag.StringVar(&o.traceCSV, "trace", "", "write per-iteration phase timings CSV to this file (static mode)")
	flag.StringVar(&o.algo, "algo", "gtopk", "dense|topk|gtopk")
	flag.IntVar(&o.steps, "steps", 50, "training steps")
	flag.IntVar(&o.batch, "batch", 16, "mini-batch size per worker")
	flag.Float64Var(&o.density, "density", 0.01, "gradient density rho in (0,1]")
	flag.Float64Var(&o.lr, "lr", 0.05, "learning rate")
	flag.Uint64Var(&o.seed, "seed", 42, "shared model/data seed")
	flag.DurationVar(&o.timeout, "timeout", 60*time.Second, "static: mesh setup + training deadline; elastic: per-epoch mesh rebuild bound")
	flag.BoolVar(&o.tcpNoDelay, "tcp-nodelay", true, "enable TCP_NODELAY on mesh sockets (false re-enables Nagle's algorithm)")
	flag.StringVar(&o.wire, "wire", "v3", "sparse wire codec: v1 (flat), v3 (delta/varint indices, lossless fp32 values; non-finite values are rejected at decode) or v3-<value> for value codec fp16, qsgd8, qsgd4, qsgd2, ternary or sign (lossy; the rounding/quantization error folds into the error-feedback residual); meshes settle on the lowest version any worker offers")
	flag.IntVar(&o.selectShards, "select-shards", 0, "parallel shards for the local top-k selection (0 = one per core, 1 = serial; results are bit-identical)")
	flag.IntVar(&o.hierGroup, "hier-group", 0, "hierarchical gTop-k group size G: workers aggregate within groups of G, leaders exchange globally (0 disables; requires -algo gtopk; G >= world degenerates to the flat tree)")
	flag.IntVar(&o.quorum, "quorum", 0, "straggler-tolerant quorum size q: each aggregation round closes after q contributions under the -round-timeout deadline, refunding stragglers' blocks to their residuals (0 disables; requires -algo gtopk and a strict majority; with -hier-group, q is the intra-group quorum q_g over each group of G)")
	flag.IntVar(&o.leaderQuorum, "leader-quorum", 0, "hierarchical quorum's leader-level quorum q_l over the group aggregates: a wholly slow group misses the round as a unit and refunds to residual (0 = wait for every group; requires -quorum and -hier-group)")
	flag.DurationVar(&o.roundTimeout, "round-timeout", 0, "per-round gather deadline for -quorum (must be > 0 when -quorum is set; with -hier-group it is the whole-round budget the per-level deadlines split)")
	flag.DurationVar(&o.groupTO, "group-timeout", 0, "hierarchical quorum's intra-group gather budget (set all three level budgets or none; zero = the default 1/4:1/2:1/4 split of -round-timeout; requires -quorum and -hier-group)")
	flag.DurationVar(&o.leaderTO, "leader-timeout", 0, "hierarchical quorum's leader-level gather budget (see -group-timeout)")
	flag.DurationVar(&o.verdictTO, "verdict-timeout", 0, "hierarchical quorum's per-attempt verdict broadcast budget (see -group-timeout)")
	flag.StringVar(&o.kernels, "kernels", sparse.DefaultKernels(), "sparse kernel implementation: fast (vectorized, where the build supports it) or pure; results are bit-identical")
	flag.Parse()

	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "gtopk-worker: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if o.coordinator != "" {
		err = runElastic(&o)
	} else {
		err = runStatic(&o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtopk-worker:", err)
		os.Exit(1)
	}
}

// validate rejects nonsensical flag combinations up front with a usage
// message instead of a late panic deep inside the training loop.
func (o *options) validate() error {
	switch o.algo {
	case "dense", "topk", "gtopk":
	default:
		return fmt.Errorf("unknown -algo %q (want dense, topk or gtopk)", o.algo)
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
	o.wireCodec = codec
	if o.selectShards < 0 {
		return fmt.Errorf("-select-shards %d out of range: need >= 0", o.selectShards)
	}
	if o.hierGroup < 0 {
		return fmt.Errorf("-hier-group %d out of range: need >= 0", o.hierGroup)
	}
	if o.hierGroup > 0 && o.algo != "gtopk" {
		return fmt.Errorf("-hier-group requires -algo gtopk (hierarchical aggregation is a gTop-k topology)")
	}
	if o.quorum < 0 {
		return fmt.Errorf("-quorum %d out of range: need >= 0", o.quorum)
	}
	if o.quorum > 0 {
		if o.algo != "gtopk" {
			return fmt.Errorf("-quorum requires -algo gtopk (quorum rounds are a gTop-k collective mode)")
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
	if err := sparse.SetKernels(o.kernels); err != nil {
		return fmt.Errorf("-kernels: %w", err)
	}

	if o.coordinator != "" {
		// Elastic mode.
		if o.name == "" {
			return fmt.Errorf("-coordinator requires -name (the worker's stable identity)")
		}
		if o.ckptDir == "" {
			return fmt.Errorf("-coordinator requires -checkpoint-dir (failure recovery resumes from snapshots)")
		}
		if o.ckptEvery < 1 {
			return fmt.Errorf("-checkpoint-every %d out of range: need >= 1", o.ckptEvery)
		}
		if o.algo == "topk" {
			// topk's AllGather still requires power-of-two worlds, so the
			// first shrink (4 -> 3) would kill the job elasticity exists
			// to save. dense and gtopk work at any world size.
			return fmt.Errorf("-algo topk is not elastic-safe (AllGather needs power-of-two worlds); use gtopk or dense")
		}
		if o.addrList != "" {
			return fmt.Errorf("-addrs conflicts with -coordinator: elastic membership comes from the coordinator")
		}
		if o.ckptPath != "" {
			return fmt.Errorf("-checkpoint conflicts with -coordinator: elastic snapshots live in -checkpoint-dir, keyed by -name")
		}
		if o.traceCSV != "" {
			return fmt.Errorf("-trace is static-mode only")
		}
		return nil
	}

	// Static mode.
	if o.addrList == "" {
		return fmt.Errorf("need either -coordinator (elastic mode) or -addrs (static mode)")
	}
	addrs := strings.Split(o.addrList, ",")
	for i, a := range addrs {
		if strings.TrimSpace(a) == "" {
			return fmt.Errorf("-addrs entry %d is empty (got %q)", i, o.addrList)
		}
	}
	if o.rank < 0 || o.rank >= len(addrs) {
		return fmt.Errorf("-rank %d out of range [0,%d) for %d-entry -addrs", o.rank, len(addrs), len(addrs))
	}
	// Static mode knows the world size at parse time, so the quorum range
	// checks happen here; elastic mode defers them to Build, where the
	// coordinator's epoch world is known (SetQuorum validates).
	if o.quorum > 0 {
		world := len(addrs)
		if o.hierGroup > 1 && o.hierGroup < world {
			// Hierarchical regime: -quorum is the intra-group quorum q_g.
			if lo := core.QuorumMin(o.hierGroup); o.quorum < lo || o.quorum > o.hierGroup {
				return fmt.Errorf("-quorum %d out of range [%d,%d] for -hier-group %d (the intra-group quorum must be a strict majority of one group)",
					o.quorum, lo, o.hierGroup, o.hierGroup)
			}
			numGroups := (world + o.hierGroup - 1) / o.hierGroup
			if o.leaderQuorum > 0 {
				if lo := core.QuorumMin(numGroups); o.leaderQuorum < lo || o.leaderQuorum > numGroups {
					return fmt.Errorf("-leader-quorum %d out of range [%d,%d] for %d groups of -hier-group %d",
						o.leaderQuorum, lo, numGroups, numGroups, o.hierGroup)
				}
			}
		} else {
			if o.leaderQuorum > 0 || o.groupTO != 0 {
				return fmt.Errorf("-hier-group %d does not split a %d-entry -addrs world into groups (it degenerates to the flat tree), so -leader-quorum and per-level budgets do not apply",
					o.hierGroup, world)
			}
			if lo := core.QuorumMin(world); o.quorum < lo || o.quorum > world {
				return fmt.Errorf("-quorum %d out of range [%d,%d] for %d-entry -addrs (a quorum must be a strict majority)",
					o.quorum, lo, world, world)
			}
		}
	}
	return nil
}

// quorumConfig assembles the parsed quorum flags into the core
// configuration (zero level budgets select the default split).
func (o *options) quorumConfig() core.QuorumConfig {
	return core.QuorumConfig{
		Q:       o.quorum,
		LeaderQ: o.leaderQuorum,
		Timeout: o.roundTimeout,
		Levels: core.LevelTimeouts{
			Group:     o.groupTO,
			Leader:    o.leaderTO,
			Broadcast: o.verdictTO,
		},
	}
}

// buildAggregator assembles the configured aggregation algorithm over a
// communicator, applying the -wire value-precision preference and the
// -select-shards selection parallelism; sp is non-nil for the
// sparsifying algorithms.
func buildAggregator(o *options, comm *collective.Comm, dim int) (agg core.Aggregator, sp *core.Sparsifier, err error) {
	quant.AttachStack(comm, o.wireCodec, o.seed)
	k := core.DensityToK(dim, o.density)
	switch o.algo {
	case "dense":
		return core.NewDenseAggregator(comm, dim), nil, nil
	case "topk":
		a, err := core.NewTopKAggregator(comm, dim, k)
		if err != nil {
			return nil, nil, err
		}
		sp = a.Sparsifier()
		sp.SetShards(o.selectShards)
		return a, sp, nil
	case "gtopk":
		var a *core.GTopKAggregator
		if o.hierGroup > 0 {
			a, err = core.NewHierarchicalAggregator(comm, dim, k, o.hierGroup)
		} else {
			a, err = core.NewGTopKAggregator(comm, dim, k)
		}
		if err != nil {
			return nil, nil, err
		}
		if o.quorum > 0 {
			// Elastic worlds first learn their size here; an illegal
			// (quorum, group, world) combination fails the epoch build
			// loudly instead of wedging a round.
			if err := a.SetQuorum(o.quorumConfig()); err != nil {
				return nil, nil, err
			}
		}
		sp = a.Sparsifier()
		sp.SetShards(o.selectShards)
		return a, sp, nil
	}
	return nil, nil, fmt.Errorf("unknown algorithm %q", o.algo)
}

// degradeAfter is the consecutive-missed-round streak at which an
// elastic worker reports itself degraded to the coordinator (telemetry
// only; the epoch is never reformed for a slow rank).
const degradeAfter = 3

// runElastic joins a coordinator and trains until the job completes,
// surviving membership changes.
func runElastic(o *options) error {
	ds, err := data.NewImages(o.seed+1, 10, 3, 8, 8, 0.4)
	if err != nil {
		return err
	}
	// One tally across epochs: per-worker compression totals survive
	// membership changes the way the communication Stats do.
	tally := &metrics.WireTally{}
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
			agg, sp, err := buildAggregator(o, comm, cls.Net.ParamCount())
			if err != nil {
				return nil, err
			}
			negotiated = comm.WireCodec().String()
			tr, err := core.NewTrainer(core.TrainConfig{LR: float32(o.lr), Momentum: 0.9},
				agg, cls.Net.Parameters(), models.GradFn(cls, ds, rank, world, o.batch))
			if err != nil {
				return nil, err
			}
			sess := &cluster.Session{Trainer: tr, Params: cls.Net.Parameters(), Sparsifier: sp}
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
	return nil
}

// runStatic is the fixed-membership path: the address list is frozen at
// launch and any worker death kills the job.
func runStatic(o *options) error {
	addrs := strings.Split(o.addrList, ",")
	workers := len(addrs)

	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()
	conn, err := transport.JoinMesh(ctx, transport.MeshConfig{
		Rank: o.rank, Addrs: addrs, TCP: o.tcpOptions(),
	})
	if err != nil {
		return fmt.Errorf("join mesh: %w", err)
	}
	defer conn.Close() //nolint:errcheck // process exit follows

	comm := collective.New(conn)
	tally := &metrics.WireTally{}
	comm.SetWireTally(tally)
	ds, err := data.NewImages(o.seed+1, 10, 3, 8, 8, 0.4)
	if err != nil {
		return err
	}
	cls := models.MLP(ds.Dim(), 64, 10)
	cls.Net.Init(o.seed)

	agg, sp, err := buildAggregator(o, comm, cls.Net.ParamCount())
	if err != nil {
		return err
	}
	trainer, err := core.NewTrainer(core.TrainConfig{LR: float32(o.lr), Momentum: 0.9},
		agg, cls.Net.Parameters(), models.GradFn(cls, ds, o.rank, workers, o.batch))
	if err != nil {
		return err
	}
	rec := trace.NewRecorder()
	if o.traceCSV != "" {
		trainer.SetPhaseHook(func(iter int, pt core.PhaseTimes) {
			rec.Record(iter, trace.PhaseCompute, pt.Compute)
			rec.Record(iter, trace.PhaseAggregate, pt.Aggregate)
			rec.Record(iter, trace.PhaseUpdate, pt.Update)
		})
	}

	// Resume if a checkpoint exists.
	if o.ckptPath != "" {
		if st, err := checkpoint.LoadFile(o.ckptPath); err == nil {
			copy(cls.Net.Parameters(), st.Weights)
			if err := trainer.Restore(int(st.Iter), st.Velocity); err != nil {
				return fmt.Errorf("restore: %w", err)
			}
			if sp != nil {
				if err := sp.RestoreResidual(st.Residual); err != nil {
					return fmt.Errorf("restore residual: %w", err)
				}
			}
			fmt.Printf("rank %d: resumed from %s at iteration %d\n", o.rank, o.ckptPath, st.Iter)
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "rank %d: ignoring unreadable checkpoint: %v\n", o.rank, err)
		}
	}

	var lastLoss float64
	for s := 0; s < o.steps; s++ {
		loss, err := trainer.Step(ctx)
		if err != nil {
			return fmt.Errorf("step %d: %w", s, err)
		}
		lastLoss = loss
		if o.rank == 0 && (s%10 == 0 || s == o.steps-1) {
			fmt.Printf("iter %4d  loss %.4f\n", trainer.Iter(), loss)
			fmt.Printf("wire: codec=%s %s\n", comm.WireCodec(), tally.Snapshot())
		}
	}

	if o.ckptPath != "" {
		st := &checkpoint.State{
			Iter:     uint64(trainer.Iter()),
			Weights:  cls.Net.Parameters(),
			Velocity: trainer.Velocity(),
			Meta:     map[string]string{"algo": o.algo, "model": "mlp"},
		}
		if sp != nil {
			st.Residual = sp.Residual()
		}
		if err := checkpoint.SaveFile(o.ckptPath, st); err != nil {
			return err
		}
		fmt.Printf("rank %d: checkpoint saved to %s\n", o.rank, o.ckptPath)
	}
	if o.traceCSV != "" {
		f, err := os.Create(o.traceCSV)
		if err != nil {
			return err
		}
		if err := rec.WriteCSV(f); err != nil {
			f.Close() //nolint:errcheck // error path
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	// Replica-consistency check: everyone agrees on a weight digest.
	digest := []float32{checksum(cls.Net.Parameters())}
	if err := comm.RingAllReduceSum(ctx, digest); err != nil {
		return err
	}
	if o.rank == 0 {
		expected := checksum(cls.Net.Parameters()) * float32(workers)
		status := "CONSISTENT"
		if digest[0] != expected {
			status = "DIVERGED"
		}
		fmt.Printf("final loss %.4f; replicas %s across %d workers\n", lastLoss, status, workers)
	}
	return nil
}

// checksum folds a weight vector into one float (order-dependent, which
// is what we want: replicas must match element-wise).
func checksum(w []float32) float32 {
	var s float32
	for i, v := range w {
		s += v * float32(i%97+1)
	}
	return s
}
