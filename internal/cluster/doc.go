// Package cluster turns the fixed-membership gTop-k S-SGD reproduction
// into an elastic distributed job: a coordinator hands out ranks and
// the data-plane address list to workers that join by name, workers
// exchange heartbeats with the coordinator, and when a worker dies the
// survivors re-form the mesh at the smaller world size and resume
// training from the last checkpoint — momentum and error-feedback
// residual intact, so gTop-k convergence behaviour is preserved across
// the shrink. The momentum is the trainer's velocity, which a sparse
// aggregator corrects in place (core.TrainConfig.Momentum), and the
// residual is the aggregator's whole Sparsifier, the bucketed
// pipeline's included, so both reach snapshots and donor broadcasts. The job is elastic in both directions: a worker joining
// a running job is parked and admitted at the next epoch boundary (up
// to CoordinatorConfig.MaxWorld, gated by a pluggable AutoscalePolicy),
// adopting the cluster's weights and momentum from a donor rank.
//
// # Roles
//
//   - Coordinator (one per job): accepts control-plane connections,
//     assigns ranks, detects failures (heartbeat timeout or control
//     connection loss) and declares cluster epochs.
//   - Member (one per worker): the control-plane client — joins by
//     name, streams heartbeats, and surfaces each newly declared epoch
//     configuration to the runtime.
//   - Runtime (one per worker): composes Member, transport.JoinMesh,
//     collective.Rebuild and core.Trainer into a training loop that
//     survives membership changes.
//
// # Epoch state machine
//
// The job advances through monotonically increasing epochs. Epoch e is
// a frozen membership list: names, ranks and data-plane addresses. All
// collective traffic is confined to one epoch's mesh; transport
// handshakes are epoch-stamped so stragglers can never leak frames
// across epochs.
//
//	coordinator:  gathering ──(world full)──▶ running(e=1)
//	                 ▲                          │   ▲ member dies (missed
//	                 │                          │   │ heartbeats / conn
//	              (late join:                   ▼   │ lost), or parked
//	               parked until the           running(e±1)  … until a
//	               next epoch boundary,       worker reports completion
//	               admitted up to max-world)
//
//	worker:  join ─▶ wait config(e) ─▶ mesh(e) ─▶ sync resume
//	              ▲                                iteration ─▶ train
//	              │                                   │
//	              └── step error / new config ────────┘
//
// A worker whose training step fails (a peer died mid-collective) does
// not exit: it waits for the next epoch's configuration, rebuilds the
// mesh via transport.JoinMesh (same listener, new epoch stamp),
// re-forks its sub-communicator from the rebuilt collective.Comm, and
// restores its own checkpoint. The epoch then syncs a resume point via
// a Gather/Bcast round on the new mesh: rank 0 picks the highest
// iteration any member holds, verifies every member already there has
// bit-identical weights (compared by checksum), and elects a donor.
// Members behind the resume point — an admitted joiner with no
// checkpoint, a rejoiner with a stale one — adopt the donor's weights
// and momentum over two broadcasts and restart their error-feedback
// residual at zero (a sparse aggregator's momentum is per rank, like the
// residual, so the donor's is a warm start). Rank assignment is a pure function of the
// name-sorted member set (Reshard), so every member independently
// derives the same data shard (ShardRange) regardless of arrival
// order.
//
// # What a failure costs
//
// Steps since the last checkpoint are recomputed at the new world size,
// and the dead worker's residual (gradient mass it had queued locally)
// is lost — exactly the semantics of the paper's error-feedback
// formulation when a worker's local state vanishes. Everything else —
// weights, momentum, every survivor's residual — carries over, which is
// why the post-resume trajectory is bit-identical to a fresh job of the
// surviving size started from the same snapshots (asserted by
// TestElasticShrinkMatchesFreshRun, and by TestElasticGrowMatchesFreshRun
// for the 3→4 grow direction).
package cluster
