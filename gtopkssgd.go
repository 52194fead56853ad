// Package gtopkssgd is a from-scratch Go reproduction of
//
//	Shi et al., "A Distributed Synchronous SGD Algorithm with Global
//	Top-k Sparsification for Low Bandwidth Networks", ICDCS 2019.
//
// It provides the paper's gTop-k gradient sparsification and the
// gTopKAllReduce collective (O(k·logP) communication), the baselines it
// is evaluated against (dense ring AllReduce, and Top-k, naive gTop-k
// and parameter-server gTop-k as other plans for the same sparse
// executor), a deterministic message-passing substrate (in-process and
// TCP fabrics), an α-β network cost model for low-bandwidth-network
// timing, and a compact neural-network training stack used by the
// convergence experiments.
//
// This file is the public facade: it re-exports, from the internal
// packages, the names the programs in examples/ use, so they build
// against a single import. See README.md for a walkthrough and the
// examples/ directory for runnable programs.
//
// # Quick start
//
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
	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/netsim"
)

// Re-exported types. Aliases keep the internal packages as the single
// source of truth while making the training surface reachable from one
// import path.
type (
	// Comm is a rank communicator providing MPI-style collectives.
	Comm = collective.Comm

	// NetModel is the α-β communication cost model.
	NetModel = netsim.Model

	// Aggregator converts a local dense gradient into the replicated
	// global update (the algorithm under study); a dense one reduces in
	// the gradient buffer and returns it.
	Aggregator = core.Aggregator
	// Sparsifier owns a worker's error-feedback residual.
	Sparsifier = core.Sparsifier
	// GradFn computes a worker's mini-batch gradient, writing every
	// entry of the buffer it is given: the trainer does not zero it.
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

	// BucketedAggregator runs gTop-k per layer-aligned bucket with
	// bucket collectives overlapping each other and the backward pass.
	BucketedAggregator = core.BucketedAggregator

	// CheckpointState snapshots one worker's full training state.
	CheckpointState = checkpoint.State
)

// Paper1GbE returns the α-β model with the constants the paper measured
// on its 1 Gbps Ethernet cluster (α = 0.436 ms, β = 3.6e-5 ms/element).
func Paper1GbE() NetModel { return netsim.Paper1GbE() }

// DensityToK converts a density ρ into the selection count k = ρ·m,
// clamped to [1, dim].
func DensityToK(dim int, density float64) int { return core.DensityToK(dim, density) }

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

// NewGTopKAggregator builds gTop-k S-SGD aggregation (Algorithm 4, tree
// based), the paper's contribution.
func NewGTopKAggregator(comm *Comm, dim, k int) (Aggregator, error) {
	return asAggregator(core.NewGTopKAggregator(comm, dim, k))
}

// NewBucketedAggregator builds the bucketed, overlapped gTop-k pipeline:
// each bucket (cumulative offsets in bounds) selects density·size of its
// gradients and aggregates them via core.GTopKInto on a tag-isolated
// sub-communicator, concurrently with the other buckets. Install a
// StreamGradFn on the trainer to also overlap with the backward pass.
func NewBucketedAggregator(comm *Comm, bounds []int, density float64) (*BucketedAggregator, error) {
	return core.NewBucketedAggregator(comm, bounds, density)
}

// GroupBounds coalesces per-layer cumulative offsets into at most n
// bucket bounds of roughly equal parameter mass (for NewBucketedAggregator).
func GroupBounds(layerBounds []int, n int) []int { return core.GroupBounds(layerBounds, n) }

// NewTrainer assembles a worker's S-SGD loop; weights must be identically
// initialised on every rank.
func NewTrainer(cfg TrainConfig, agg Aggregator, weights []float32, gradFn GradFn) (*Trainer, error) {
	return core.NewTrainer(cfg, agg, weights, gradFn)
}

// RunCluster spawns the configured number of goroutine workers and runs
// synchronous training, returning per-rank results.
func RunCluster(ctx context.Context, cfg ClusterConfig, setup WorkerSetup) ([]*WorkerResult, error) {
	return core.RunCluster(ctx, cfg, setup)
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
