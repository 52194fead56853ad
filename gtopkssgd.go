// Package gtopkssgd is a from-scratch Go reproduction of
//
//	Shi et al., "A Distributed Synchronous SGD Algorithm with Global
//	Top-k Sparsification for Low Bandwidth Networks", ICDCS 2019.
//
// It provides the paper's gTop-k gradient sparsification and the
// gTopKAllReduce collective (O(k·logP) communication), the baselines it
// is evaluated against (dense ring AllReduce, AllGather-based
// TopKAllReduce), a deterministic message-passing substrate (in-process
// and TCP fabrics), an α-β network cost model for low-bandwidth-network
// timing, and a compact neural-network training stack used by the
// convergence experiments.
//
// This file is the public facade: it re-exports the stable surface of
// the internal packages so downstream users interact with a single
// import. See README.md for a walkthrough and the examples/ directory
// for runnable programs.
//
// # Quick start
//
//	fabric, _ := gtopkssgd.NewInProcFabric(4)
//	defer fabric.Close()
//	results, err := gtopkssgd.RunCluster(ctx, gtopkssgd.ClusterConfig{
//		Workers: 4, Steps: 100,
//	}, func(rank int, comm *gtopkssgd.Comm) (*gtopkssgd.Trainer, error) {
//		agg, _ := gtopkssgd.NewGTopKAggregator(comm, dim, gtopkssgd.DensityToK(dim, 0.001))
//		return gtopkssgd.NewTrainer(gtopkssgd.TrainConfig{LR: 0.1, Momentum: 0.9},
//			agg, weights, gradFn)
//	})
package gtopkssgd

import (
	"context"

	"gtopkssgd/internal/checkpoint"
	"gtopkssgd/internal/cluster"
	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/metrics"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/quant"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/trace"
	"gtopkssgd/internal/transport"
)

// Re-exported types. Aliases keep the internal packages as the single
// source of truth while making the whole training surface reachable from
// one import path.
type (
	// Vector is a sparse gradient slice: parallel (Indices, Values)
	// arrays over a dense dimension.
	Vector = sparse.Vector

	// Conn is one rank's endpoint into a message-passing fabric.
	Conn = transport.Conn
	// Fabric is a connected set of rank endpoints.
	Fabric = transport.Fabric

	// Comm is a rank communicator providing MPI-style collectives.
	Comm = collective.Comm
	// CommStats counts messages, bytes and rounds per rank.
	CommStats = collective.Stats

	// NetModel is the α-β communication cost model.
	NetModel = netsim.Model
	// Clock accumulates simulated communication time for one worker.
	Clock = netsim.Clock

	// Aggregator converts a local dense gradient into the replicated
	// global update (the algorithm under study).
	Aggregator = core.Aggregator
	// Sparsifier owns a worker's error-feedback residual.
	Sparsifier = core.Sparsifier
	// GradFn computes a worker's mini-batch gradient.
	GradFn = core.GradFn
	// TrainConfig holds SGD hyper-parameters.
	TrainConfig = core.TrainConfig
	// Trainer drives one worker's S-SGD loop.
	Trainer = core.Trainer
	// ClusterConfig describes a simulated training cluster.
	ClusterConfig = core.ClusterConfig
	// WorkerResult is one rank's training telemetry.
	WorkerResult = core.WorkerResult
	// WorkerSetup builds a rank's trainer inside its goroutine.
	WorkerSetup = core.WorkerSetup
	// PipelinedTrainer overlaps communication with computation
	// (one-step-stale updates; the paper's future-work pipelining).
	PipelinedTrainer = core.PipelinedTrainer
	// StreamGradFn computes a gradient and announces per-layer readiness,
	// enabling same-step communication/computation overlap.
	StreamGradFn = core.StreamGradFn
	// BucketStreamer is the streaming aggregation contract implemented by
	// BucketedAggregator (Begin / Ready / Finish per iteration).
	BucketStreamer = core.BucketStreamer
	// GroupComms is the member/leader communicator pair of a group
	// hierarchy (Comm.ForkGroup) — what HierarchicalGTopKAllReduce runs
	// over.
	GroupComms = collective.GroupComms
	// HierarchicalAggregator is the gTop-k aggregator constructed over
	// groups (NewHierarchicalAggregator): intra-group gTop-k, a
	// leader-level exchange across groups, and a broadcast back down.
	HierarchicalAggregator = core.HierarchicalAggregator

	// BucketedAggregator runs gTop-k per layer-aligned bucket with
	// bucket collectives overlapping each other and the backward pass.
	BucketedAggregator = core.BucketedAggregator
	// PhaseTimes carries per-iteration phase durations to observers.
	PhaseTimes = core.PhaseTimes

	// CheckpointState snapshots one worker's full training state.
	CheckpointState = checkpoint.State
	// TraceRecorder accumulates per-iteration phase timings.
	TraceRecorder = trace.Recorder

	// ClusterCoordinator is the rendezvous/membership service of an
	// elastic job (workers join by name, failures declare new epochs).
	ClusterCoordinator = cluster.Coordinator
	// ClusterCoordinatorConfig parameterises a ClusterCoordinator.
	ClusterCoordinatorConfig = cluster.CoordinatorConfig
	// ElasticWorkerConfig parameterises one elastic worker; see
	// RunElasticWorker.
	ElasticWorkerConfig = cluster.RuntimeConfig
	// ElasticWorkerResult summarises a completed elastic training run.
	ElasticWorkerResult = cluster.RunResult
	// ElasticSession is one epoch's training assembly, produced by an
	// ElasticWorkerConfig.Build function.
	ElasticSession = cluster.Session

	// QuorumConfig switches gTop-k rounds to straggler-tolerant quorum
	// mode: a round's gather closes after Q of P contributions under a
	// per-round deadline, and a straggler's block is refunded to its
	// error-feedback residual (GTopKAggregator.SetQuorum).
	QuorumConfig = core.QuorumConfig
	// FaultPlan is a seeded, deterministic schedule of link-level
	// faults (delay, jitter, stalls, drops) for a FaultInjector.
	FaultPlan = transport.FaultPlan
	// FaultInjector wraps any Fabric with a FaultPlan, making
	// straggler schedules reproducible in tests and benchmarks.
	FaultInjector = transport.FaultInjector
	// LinkModel prices heterogeneous topologies: intra-group and
	// inter-group α-β models with a rank→group mapping
	// (Comm.WithLinks).
	LinkModel = netsim.LinkModel
)

// NewInProcFabric connects n ranks through in-memory mailboxes — the
// default substrate for simulated clusters (deterministic, race-free).
func NewInProcFabric(n int) (Fabric, error) { return transport.NewInProc(n) }

// NewTCPFabric connects n ranks through a loopback TCP mesh,
// demonstrating the collectives over a real network stack.
func NewTCPFabric(n int) (Fabric, error) { return transport.NewTCP(n) }

// NewComm wraps a fabric endpoint in a communicator.
func NewComm(conn Conn) *Comm { return collective.New(conn) }

// Paper1GbE returns the α-β model with the constants the paper measured
// on its 1 Gbps Ethernet cluster (α = 0.436 ms, β = 3.6e-5 ms/element).
func Paper1GbE() NetModel { return netsim.Paper1GbE() }

// NewFaultInjector wraps a fabric with a seeded link-level fault plan.
func NewFaultInjector(inner Fabric, plan FaultPlan) *FaultInjector {
	return transport.NewFaultInjector(inner, plan)
}

// NewLinkModel builds a heterogeneous per-link α-β model: ranks in the
// same group of groupSize pay intra, ranks across groups pay inter.
func NewLinkModel(intra, inter NetModel, groupSize int) (*LinkModel, error) {
	return netsim.NewLinkModel(intra, inter, groupSize)
}

// QuorumMin returns the smallest legal quorum for a P-rank world — a
// strict majority, so two disjoint quorums can never close the same
// round with different participant sets.
func QuorumMin(p int) int { return core.QuorumMin(p) }

// TopKSelect returns the k largest-magnitude entries of x with
// deterministic tie-breaking (lowest index wins), the local selection
// primitive of all sparsified algorithms.
func TopKSelect(x []float32, k int) *Vector { return sparse.TopK(x, k) }

// Merge is the paper's Definition 1 ⊕ operator: the top-k entries of the
// element-wise sum of two sparse vectors.
func Merge(a, b *Vector, k int) (*Vector, error) { return sparse.Merge(a, b, k) }

// MergeInto is the allocation-free ⊕: the result lands in dst (capacity
// reused), with the intermediate sum in pooled scratch. See
// sparse.MergeInto.
func MergeInto(dst, a, b *Vector, k int) error { return sparse.MergeInto(dst, a, b, k) }

// DecodeView parses the sparse wire format without copying: the returned
// vector aliases the frame until it is released. See sparse.DecodeView
// for the ownership rules.
func DecodeView(buf []byte) (Vector, error) { return sparse.DecodeView(buf) }

// Codec selects the sparse wire encoding: CodecV1 (flat frames) or one
// of the v3 codecs (sorted-index delta/varint frames × a value codec,
// lossless under CodecV3). Meshes negotiate the wire version in their
// handshake and settle on the minimum any member offers; Comm.WireCodec
// reports the effective codec.
type Codec = sparse.Codec

// The wire codecs (see Codec).
const (
	// CodecV1 is the flat 8-bytes-per-entry wire format.
	CodecV1 = sparse.CodecV1
	// CodecV3 is the compound wire format with lossless fp32 values.
	CodecV3 = sparse.CodecV3
	// CodecV3F16 is the compound wire format with binary16 values.
	CodecV3F16 = sparse.CodecV3F16
	// CodecV3Q8 is the compound wire format with QSGD 8-bit values.
	CodecV3Q8 = sparse.CodecV3Q8
	// CodecV3Q4 is the compound wire format with QSGD 4-bit values.
	CodecV3Q4 = sparse.CodecV3Q4
	// CodecV3Q2 is the compound wire format with QSGD 2-bit values.
	CodecV3Q2 = sparse.CodecV3Q2
	// CodecV3T is the compound wire format with ternary values.
	CodecV3T = sparse.CodecV3T
	// CodecV3S is the compound wire format with 1-bit sign values.
	CodecV3S = sparse.CodecV3S
)

// ParseCodec parses the -wire flag spellings: v1, v3, or
// v3-<value> for any ParseValueCodec spelling except fp32.
func ParseCodec(s string) (Codec, error) { return sparse.ParseCodec(s) }

// ValueCodec names the value-stream treatment of a compound (v3) codec:
// how the selected gradient values are transformed and packed after
// top-k selection picks the support.
type ValueCodec = sparse.ValueCodec

// ParseValueCodec parses the value-codec spellings: fp32, fp16, qsgd8,
// qsgd4, qsgd2, ternary, sign.
func ParseValueCodec(s string) (ValueCodec, error) { return sparse.ParseValueCodec(s) }

// CodecForWireValue resolves a negotiated wire version plus a value
// codec preference into the effective codec: v1 (exact values) on a
// pre-v3 mesh, whatever the preference.
func CodecForWireValue(version byte, vc ValueCodec) Codec {
	return sparse.CodecForWireValue(version, vc)
}

// Compressor is the pluggable select→transform→encode value-stream
// stage of the compound pipeline: it maps a hop's selected values onto
// its quantization lattice (mutating them in place so the sender's copy
// matches what every receiver decodes) and reports the levels to encode.
// Install one with Comm.SetCompressor; quantization error belongs in
// the error-feedback residual (Sparsifier.FoldError), which the
// aggregators wire up automatically.
type Compressor = sparse.Compressor

// NewCompressor builds the standard Compressor stack for a value codec
// (stochastic QSGD rounding, Bernoulli ternary, deterministic sign).
// The seed must be the same on every rank — the broadcast roots draw
// their shared stream (Compressor.Shared) from it — and each rank
// attaches its own stream, NewCompressor(vc, seed).Fork(rank), rather
// than mixing the rank into the seed.
func NewCompressor(vc ValueCodec, seed uint64) Compressor { return quant.NewStack(vc, seed) }

// DensityController adapts a bucket's selection count toward a
// wire-byte budget (DGC-style): feed it replica-agreed per-round byte
// observations and read the seeded, deterministic k schedule back. The
// bucketed aggregator embeds one per bucket via SetAdaptiveDensity.
type DensityController = core.DensityController

// NewDensityController creates a density controller starting at k0,
// clamped to [kMin, kMax], steering toward budgetBytes per round.
func NewDensityController(k0, kMin, kMax int, budgetBytes int64, seed uint64) (*DensityController, error) {
	return core.NewDensityController(k0, kMin, kMax, budgetBytes, seed)
}

// WireTally accumulates raw-vs-encoded wire-byte counters for the sparse
// frames a communicator sends (attach with Comm.SetWireTally), making
// codec compression observable in real runs.
type WireTally = metrics.WireTally

// WireCounters is one consistent reading of a WireTally.
type WireCounters = metrics.WireCounters

// DensityToK converts a density ρ into the selection count k = ρ·m,
// clamped to [1, dim].
func DensityToK(dim int, density float64) int { return core.DensityToK(dim, density) }

// NewSparsifier creates an error-feedback sparsifier for a dim-parameter
// model.
func NewSparsifier(dim int) *Sparsifier { return core.NewSparsifier(dim) }

// GTopKAllReduce runs the paper's Algorithm 3: tree-reduce the workers'
// sparse vectors with ⊕ and broadcast the global top-k, in
// 2·⌈log₂P⌉−1 rounds (the top reduce round and the first broadcast
// round are one pairwise swap), at any worker count.
func GTopKAllReduce(ctx context.Context, comm *Comm, local *Vector, k int) (*Vector, error) {
	return core.GTopKAllReduce(ctx, comm, local, k)
}

// GTopKAllReduceInto is the zero-allocation form of GTopKAllReduce: the
// result lands in out (capacity reused across iterations) and each tree
// round's payload is pipelined as `chunks` frames. Every rank must pass
// the same chunks value; the result bits do not depend on it.
func GTopKAllReduceInto(ctx context.Context, comm *Comm, local *Vector, k, chunks int, out *Vector) error {
	return core.GTopKAllReduceInto(ctx, comm, local, k, chunks, out)
}

// TopKAllReduce runs the AllGather-based sparse aggregation baseline
// (Algorithm 1 lines 12-21), returning the exact sum over the union
// support.
func TopKAllReduce(ctx context.Context, comm *Comm, local *Vector) (*Vector, error) {
	return core.TopKAllReduce(ctx, comm, local)
}

// NaiveGTopKAllReduce computes the exact global top-k of the sum via
// AllGather (Algorithm 2) — the reference the tree is verified against.
func NaiveGTopKAllReduce(ctx context.Context, comm *Comm, local *Vector, k int) (*Vector, error) {
	return core.NaiveGTopKAllReduce(ctx, comm, local, k)
}

// HierarchicalGTopKAllReduce runs the two-level hierarchical gTop-k for
// large worlds: groups of g ranks reduce to their leader along the
// tree, group leaders run a gTop-k over the g-fold smaller leader
// world, and the global top-k broadcasts back down from every leader. g <= 1 or g >= world is bit-identical to GTopKAllReduce.
func HierarchicalGTopKAllReduce(ctx context.Context, comm *Comm, local *Vector, k, g int) (*Vector, error) {
	return core.HierarchicalGTopKAllReduce(ctx, comm, local, k, g)
}

// PSGTopKAllReduce computes the global top-k through a parameter-server
// star topology (works for any P; scales worse than the tree).
func PSGTopKAllReduce(ctx context.Context, comm *Comm, local *Vector, k int) (*Vector, error) {
	return core.PSGTopKAllReduce(ctx, comm, local, k)
}

// NewDenseAggregator builds classic S-SGD aggregation (ring AllReduce of
// the full gradient).
func NewDenseAggregator(comm *Comm, dim int) Aggregator {
	return core.NewDenseAggregator(comm, dim)
}

// asAggregator widens a concrete constructor's result to the Aggregator
// interface, keeping a failed construction an untyped nil.
func asAggregator[T Aggregator](agg T, err error) (Aggregator, error) {
	if err != nil {
		return nil, err
	}
	return agg, nil
}

// NewTopKAggregator builds Top-k S-SGD aggregation (Algorithm 1): the
// gTop-k round over TopKAllReduce's union, with nothing put back.
func NewTopKAggregator(comm *Comm, dim, k int) (Aggregator, error) {
	return asAggregator(core.NewTopKAggregator(comm, dim, k))
}

// NewGTopKAggregator builds gTop-k S-SGD aggregation (Algorithm 4, tree
// based), the paper's contribution.
func NewGTopKAggregator(comm *Comm, dim, k int) (Aggregator, error) {
	return asAggregator(core.NewGTopKAggregator(comm, dim, k))
}

// NewPSGTopKAggregator builds the parameter-server-mode gTop-k extension:
// the gTop-k round over PSGTopKAllReduce's star.
func NewPSGTopKAggregator(comm *Comm, dim, k int) (Aggregator, error) {
	return asAggregator(core.NewPSGTopKAggregator(comm, dim, k))
}

// NewBucketedAggregator builds the bucketed, overlapped gTop-k pipeline:
// each bucket (cumulative offsets in bounds) selects density·size of its
// gradients and aggregates them via GTopKAllReduce on a tag-isolated
// sub-communicator, concurrently with the other buckets. Install a
// StreamGradFn on the trainer to also overlap with the backward pass.
func NewBucketedAggregator(comm *Comm, bounds []int, density float64) (*BucketedAggregator, error) {
	return core.NewBucketedAggregator(comm, bounds, density)
}

// NewHierarchicalAggregator builds a gTop-k aggregator whose global
// exchange runs the two-level hierarchical collective over groups of
// `group` ranks (see HierarchicalGTopKAllReduce). Replica updates stay
// bit-identical across ranks; group >= world degenerates to
// NewGTopKAggregator, bit for bit.
func NewHierarchicalAggregator(comm *Comm, dim, k, group int) (*HierarchicalAggregator, error) {
	return core.NewHierarchicalAggregator(comm, dim, k, group)
}

// NewHierarchicalBucketedAggregator is NewBucketedAggregator with every
// bucket's collective replaced by the two-level hierarchical gTop-k
// over groups of `group` ranks.
func NewHierarchicalBucketedAggregator(comm *Comm, bounds []int, density float64, group int) (*BucketedAggregator, error) {
	return core.NewHierarchicalBucketedAggregator(comm, bounds, density, group)
}

// GroupBounds coalesces per-layer cumulative offsets into at most n
// bucket bounds of roughly equal parameter mass (for NewBucketedAggregator).
func GroupBounds(layerBounds []int, n int) []int { return core.GroupBounds(layerBounds, n) }

// NewLayerwiseGTopKAggregator builds the layer-wise gTop-k extension —
// the bucketed pipeline with one bucket per layer; bounds are cumulative
// per-layer parameter offsets.
func NewLayerwiseGTopKAggregator(comm *Comm, bounds []int, density float64) (Aggregator, error) {
	return asAggregator(core.NewLayerwiseGTopKAggregator(comm, bounds, density))
}

// NewTrainer assembles a worker's S-SGD loop; weights must be identically
// initialised on every rank.
func NewTrainer(cfg TrainConfig, agg Aggregator, weights []float32, gradFn GradFn) (*Trainer, error) {
	return core.NewTrainer(cfg, agg, weights, gradFn)
}

// NewPipelinedTrainer assembles the communication/computation-overlapped
// trainer (one-step-stale updates); call Flush after the final Step.
func NewPipelinedTrainer(cfg TrainConfig, agg Aggregator, weights []float32, gradFn GradFn) (*PipelinedTrainer, error) {
	return core.NewPipelinedTrainer(cfg, agg, weights, gradFn)
}

// RunCluster spawns the configured number of goroutine workers and runs
// synchronous training, returning per-rank results.
func RunCluster(ctx context.Context, cfg ClusterConfig, setup WorkerSetup) ([]*WorkerResult, error) {
	return core.RunCluster(ctx, cfg, setup)
}

// NewTCPWorker joins a MULTI-PROCESS TCP fabric as one rank; every
// worker process passes its own rank and the shared address list. See
// cmd/gtopk-worker for a complete deployment example.
func NewTCPWorker(ctx context.Context, rank int, addrs []string) (Conn, error) {
	return transport.NewTCPWorker(ctx, rank, addrs)
}

// NewClusterCoordinator creates the rendezvous/membership service of an
// elastic multi-process job; serve it with Coordinator.Serve. Workers
// join with RunElasticWorker (or cluster.Join for just the control
// plane). See cmd/gtopk-coordinator.
func NewClusterCoordinator(cfg ClusterCoordinatorConfig) (*ClusterCoordinator, error) {
	return cluster.NewCoordinator(cfg)
}

// RunElasticWorker executes one elastic worker from join to job
// completion: it rendezvouses through the coordinator, survives
// membership changes by rebuilding the mesh each epoch, and resumes
// from its checkpoint after failures. See cmd/gtopk-worker's elastic
// mode and docs/ARCHITECTURE.md.
func RunElasticWorker(ctx context.Context, cfg ElasticWorkerConfig) (*ElasticWorkerResult, error) {
	return cluster.Run(ctx, cfg)
}

// NewSignSGDAggregator builds the signSGD-with-majority-vote baseline
// (1 bit per gradient, the quantization-family ceiling).
func NewSignSGDAggregator(comm *Comm, dim int) Aggregator {
	return quant.NewSignSGDAggregator(comm, dim)
}

// NewTernGradAggregator builds the TernGrad baseline (unbiased ternary
// quantization). seed must be shared across runs but ranks derive
// independent streams from it.
func NewTernGradAggregator(comm *Comm, dim int, seed uint64) Aggregator {
	return quant.NewTernGradAggregator(comm, dim, seed)
}

// SaveCheckpoint atomically persists a training-state snapshot to path.
func SaveCheckpoint(path string, s *CheckpointState) error {
	return checkpoint.SaveFile(path, s)
}

// LoadCheckpoint reads a training-state snapshot from path, validating
// its checksum.
func LoadCheckpoint(path string) (*CheckpointState, error) {
	return checkpoint.LoadFile(path)
}

// NewTraceRecorder creates a per-iteration phase-timing recorder to
// install via Trainer.SetPhaseHook.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }
