package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net"
	"os"
	"time"

	"gtopkssgd/internal/checkpoint"
	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/transport"
)

// Session is one epoch's training assembly, produced by a BuildFn: the
// trainer plus the state the runtime checkpoints and restores around
// epoch changes.
type Session struct {
	// Trainer drives the S-SGD loop for this epoch.
	Trainer *core.Trainer
	// Params aliases the model's flat parameter buffer (the weights the
	// runtime snapshots, and overwrites on restore).
	Params []float32
	// Sparsifier, when non-nil, owns the error-feedback residual that
	// must ride along in every snapshot.
	Sparsifier *core.Sparsifier
	// QuorumMisses, when non-nil, reports this rank's consecutive missed
	// quorum rounds (e.g. GTopKAggregator.QuorumMissStreak). Paired with
	// RuntimeConfig.DegradeAfter it drives degraded-rank reporting.
	QuorumMisses func() int
	// QuorumGroup, when non-nil, reports this rank's hierarchy group
	// index (e.g. GTopKAggregator.QuorumGroup; negative for a
	// flat quorum). Degraded reports carry it so the coordinator can
	// aggregate a wholly-missed group's members — who streak together —
	// as one group-granular signal.
	QuorumGroup func() int
}

// BuildFn assembles a fresh Session for one epoch. It runs once per
// epoch with that epoch's rank, world size and training communicator
// (an epoch-private fork; see RuntimeConfig). Model weights must be
// initialised from the same seed on every rank — the runtime overwrites
// them from the checkpoint when one exists, but epoch 1 of a fresh job
// trains from the built initialisation.
type BuildFn func(rank, world int, comm *collective.Comm) (*Session, error)

// StepInfo reports one completed training step to an OnStep observer.
type StepInfo struct {
	// Epoch is the cluster epoch the step ran in.
	Epoch uint64
	// Rank and World locate this worker within the epoch.
	Rank, World int
	// Iter is the number of completed steps (the step just finished is
	// iteration Iter-1 counting from zero).
	Iter int
	// Loss is the local mini-batch loss of the completed step.
	Loss float64
}

// RuntimeConfig parameterises an elastic worker; see Run.
type RuntimeConfig struct {
	// Name is this worker's stable identity (ranks change across
	// epochs, names never do). Required.
	Name string
	// Coordinator is the control-plane host:port. Required.
	Coordinator string
	// DataAddr is the data-plane listen address; "" means
	// "127.0.0.1:0" (loopback, OS-assigned port). The concrete address
	// is advertised to the coordinator and reused across epochs.
	DataAddr string
	// Steps is the total training length in iterations. Required.
	Steps int
	// CheckpointPath is this worker's snapshot file. Required: failure
	// recovery resumes from it, so an elastic worker without one would
	// silently restart from scratch on the first membership change.
	CheckpointPath string
	// CheckpointEvery saves a snapshot after every n-th completed
	// iteration; 0 means 10. All workers must use the same cadence —
	// survivors can only agree on a resume point they all snapshotted.
	CheckpointEvery int
	// Build assembles each epoch's model, aggregator and trainer.
	// Required.
	Build BuildFn
	// OnStep, when non-nil, observes every completed step. Returning a
	// non-nil error hard-aborts the worker — no leave message, control
	// and data planes severed — exactly the footprint of a SIGKILL,
	// which is what the failure tests use it for.
	OnStep func(StepInfo) error
	// DegradeAfter, when > 0 and the Session exposes QuorumMisses,
	// reports this worker to the coordinator as degraded once it has
	// missed that many CONSECUTIVE quorum rounds. One report per streak:
	// the worker re-arms only after participating again. The epoch keeps
	// running either way — degradation is telemetry, not failure.
	DegradeAfter int
	// MeshTimeout bounds one mesh wire-up attempt; 0 means 30s.
	MeshTimeout time.Duration
	// TCP tunes the data-plane sockets of every epoch's mesh; the zero
	// value enables TCP_NODELAY (right for the small synchronous
	// collective frames).
	TCP transport.TCPOptions
	// Logf, when non-nil, receives progress events.
	Logf func(format string, args ...any)
}

func (c *RuntimeConfig) validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("cluster: runtime needs a worker name")
	case c.Coordinator == "":
		return fmt.Errorf("cluster: runtime needs a coordinator address")
	case c.Steps < 1:
		return fmt.Errorf("cluster: step count %d < 1", c.Steps)
	case c.CheckpointPath == "":
		return fmt.Errorf("cluster: runtime needs a checkpoint path (recovery resumes from it)")
	case c.CheckpointEvery < 0:
		return fmt.Errorf("cluster: negative checkpoint cadence %d", c.CheckpointEvery)
	case c.Build == nil:
		return fmt.Errorf("cluster: runtime needs a build function")
	}
	return nil
}

// RunResult summarises a completed elastic training run.
type RunResult struct {
	// Steps is the total completed iterations (== RuntimeConfig.Steps).
	Steps int
	// Epochs counts the cluster epochs this worker trained in.
	Epochs int
	// FinalEpoch, FinalRank and FinalWorld describe the last epoch.
	FinalEpoch uint64
	// FinalRank is this worker's rank in the final epoch.
	FinalRank int
	// FinalWorld is the final epoch's world size.
	FinalWorld int
	// FinalWeights is a copy of the converged parameters.
	FinalWeights []float32
	// LastLoss is the final step's local mini-batch loss.
	LastLoss float64
	// Stats accumulates communication counters across all epochs.
	Stats collective.Stats
}

// errEpochSuperseded marks an epoch torn down because a newer
// configuration arrived; the runtime loops instead of failing.
var errEpochSuperseded = errors.New("cluster: epoch superseded")

// errHardAbort marks a deliberate OnStep abort: terminal by definition,
// never reinterpreted as a reconfiguration.
var errHardAbort = errors.New("cluster: hard abort")

// Run executes one elastic worker from join to job completion. It
// opens the data-plane listener, joins the coordinator, and then loops:
// wire the epoch's mesh, agree on the resume iteration, train, and on
// membership changes tear down and start the next epoch. It returns
// when all Steps are complete, the job aborts, or ctx is cancelled.
func Run(ctx context.Context, cfg RuntimeConfig) (*RunResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 10
	}
	if cfg.MeshTimeout <= 0 {
		cfg.MeshTimeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	dataAddr := cfg.DataAddr
	if dataAddr == "" {
		dataAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", dataAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: data listener on %s: %w", dataAddr, err)
	}
	defer ln.Close() //nolint:errcheck // runtime owns the data listener

	member, err := Join(ctx, cfg.Coordinator, cfg.Name, ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer member.Close() //nolint:errcheck // idempotent; Leave already closed on success
	if member.Parked() {
		cfg.Logf("%s: join parked by coordinator; awaiting admission at the next epoch boundary", cfg.Name)
	}

	r := &runtime{cfg: cfg, ln: ln, member: member}
	return r.run(ctx)
}

// runtime is the per-worker elastic loop state.
type runtime struct {
	cfg     RuntimeConfig
	ln      net.Listener
	member  *Member
	carried collective.Stats // communication totals across epochs
	epochs  int
}

func (r *runtime) run(ctx context.Context) (*RunResult, error) {
	var lastEpoch uint64
	for {
		conf, changed := r.member.Config()
		if conf == nil || conf.Epoch <= lastEpoch {
			select {
			case <-changed:
				continue
			case <-r.member.Done():
				return nil, r.memberErr()
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		lastEpoch = conf.Epoch
		r.epochs++
		res, err := r.runEpoch(ctx, conf)
		switch {
		case err == nil:
			return res, nil
		case errors.Is(err, errEpochSuperseded):
			r.cfg.Logf("%s: epoch %d superseded, reconfiguring", r.cfg.Name, conf.Epoch)
			continue
		default:
			return nil, err
		}
	}
}

func (r *runtime) memberErr() error {
	if err := r.member.Err(); err != nil {
		return err
	}
	return fmt.Errorf("cluster: control plane closed before training completed")
}

// runEpoch wires one epoch's mesh and trains on it until completion or
// supersession. The returned error is errEpochSuperseded when a newer
// configuration interrupted the epoch.
func (r *runtime) runEpoch(ctx context.Context, conf *Config) (res *RunResult, err error) {
	r.cfg.Logf("%s: epoch %d: rank %d of %d", r.cfg.Name, conf.Epoch, conf.Rank, conf.World)

	// The epoch context is cancelled the moment a newer configuration
	// (or control-plane death) arrives, unblocking any collective the
	// trainer is stuck in — that is what lets a survivor paused inside
	// a half-dead AllReduce abandon it and rejoin the next epoch.
	epochCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	cur, changed := r.member.Config()
	if cur != nil && cur.Epoch > conf.Epoch {
		return nil, errEpochSuperseded // a newer config landed while this one was queued
	}
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-changed:
			cancel()
		case <-r.member.Done():
			cancel()
		case <-watchDone:
		}
	}()

	// Rebuild the mesh for this epoch on the persistent listener.
	meshCtx, meshCancel := context.WithTimeout(epochCtx, r.cfg.MeshTimeout)
	conn, err := transport.JoinMesh(meshCtx, transport.MeshConfig{
		Rank:     conf.Rank,
		Addrs:    conf.Addrs,
		Epoch:    conf.Epoch,
		Listener: r.ln,
		TCP:      r.cfg.TCP,
	})
	meshCancel()
	if err != nil {
		return nil, r.classify(epochCtx, fmt.Errorf("cluster: epoch %d mesh: %w", conf.Epoch, err))
	}
	defer conn.Close() //nolint:errcheck // epoch teardown

	// The rebuilt parent communicator carries the communication totals
	// of earlier epochs; training runs on a fork so control traffic
	// (resume agreement, completion barrier) never shares tag space
	// with the aggregator's collectives.
	comm := collective.Rebuild(conn, r.carried)
	kids, err := comm.Fork(1)
	if err != nil {
		return nil, err
	}
	train := kids[0]
	// Fold this epoch's traffic into the carried totals on EVERY exit —
	// an epoch ended by supersession did real communication too, and
	// the next epoch's Rebuild must inherit it.
	folded := false
	foldStats := func() {
		if !folded {
			folded = true
			comm.AddStats(train.Stats())
			r.carried = comm.Stats()
		}
	}
	defer foldStats()

	sess, err := r.cfg.Build(conf.Rank, conf.World, train)
	if err != nil {
		return nil, fmt.Errorf("cluster: epoch %d build: %w", conf.Epoch, err)
	}
	if sess == nil || sess.Trainer == nil || sess.Params == nil {
		return nil, fmt.Errorf("cluster: epoch %d build returned an incomplete session", conf.Epoch)
	}

	resumeIter, err := r.restore(sess, conf)
	if err != nil {
		return nil, err
	}
	resumeIter, err = r.syncResume(epochCtx, comm, conf, resumeIter, sess)
	if err != nil {
		return nil, r.classify(epochCtx, err)
	}
	if resumeIter > 0 {
		r.cfg.Logf("%s: epoch %d: resuming at iteration %d", r.cfg.Name, conf.Epoch, resumeIter)
	}

	lastLoss, err := r.trainLoop(epochCtx, conf, sess)
	if errors.Is(err, errHardAbort) {
		return nil, err
	}
	if err != nil {
		return nil, r.classify(epochCtx, err)
	}

	// Completion: final snapshot, then a barrier so nobody's leave can
	// race a peer still inside its last collective, then a graceful
	// leave that tells the coordinator the job is done.
	if err := r.snapshot(sess, conf); err != nil {
		return nil, err
	}
	if err := comm.Barrier(epochCtx); err != nil {
		return nil, r.classify(epochCtx, err)
	}
	foldStats()
	if err := r.member.Leave(true); err != nil {
		r.cfg.Logf("%s: leave after completion: %v (job already done; ignoring)", r.cfg.Name, err)
	}
	return &RunResult{
		Steps:        sess.Trainer.Iter(),
		Epochs:       r.epochs,
		FinalEpoch:   conf.Epoch,
		FinalRank:    conf.Rank,
		FinalWorld:   conf.World,
		FinalWeights: append([]float32(nil), sess.Params...),
		LastLoss:     lastLoss,
		Stats:        r.carried,
	}, nil
}

// trainLoop steps the trainer from its restored iteration to Steps,
// snapshotting on the configured cadence.
func (r *runtime) trainLoop(epochCtx context.Context, conf *Config, sess *Session) (float64, error) {
	var lastLoss float64
	degradedReported := false
	for sess.Trainer.Iter() < r.cfg.Steps {
		loss, err := sess.Trainer.Step(epochCtx)
		if err != nil {
			return 0, fmt.Errorf("cluster: epoch %d step %d: %w", conf.Epoch, sess.Trainer.Iter(), err)
		}
		lastLoss = loss
		if r.cfg.OnStep != nil {
			info := StepInfo{
				Epoch: conf.Epoch, Rank: conf.Rank, World: conf.World,
				Iter: sess.Trainer.Iter(), Loss: loss,
			}
			if err := r.cfg.OnStep(info); err != nil {
				// Hard abort requested: die like a SIGKILL would — no
				// leave, no final snapshot, sockets simply vanish.
				r.member.Close() //nolint:errcheck // abrupt by design
				return 0, fmt.Errorf("%w: %s at iteration %d: %w", errHardAbort, r.cfg.Name, info.Iter, err)
			}
		}
		if r.cfg.DegradeAfter > 0 && sess.QuorumMisses != nil {
			switch streak := sess.QuorumMisses(); {
			case streak >= r.cfg.DegradeAfter && !degradedReported:
				// One report per streak; a failed write just means the
				// control plane is going down, which its own path handles.
				degradedReported = true
				reason := fmt.Sprintf("missed %d consecutive quorum rounds", streak)
				group := -1
				if sess.QuorumGroup != nil {
					group = sess.QuorumGroup()
				}
				if group >= 0 {
					reason = fmt.Sprintf("%s (hierarchy group %d)", reason, group)
				}
				r.cfg.Logf("%s: epoch %d: degraded: %s (training continues)", r.cfg.Name, conf.Epoch, reason)
				if err := r.member.ReportDegradedGroup(reason, group); err != nil {
					r.cfg.Logf("%s: degraded report failed: %v", r.cfg.Name, err)
				}
			case streak == 0:
				degradedReported = false // participating again: re-arm
			}
		}
		iter := sess.Trainer.Iter()
		if iter < r.cfg.Steps && iter%r.cfg.CheckpointEvery == 0 {
			if err := r.snapshot(sess, conf); err != nil {
				return 0, err
			}
		}
	}
	return lastLoss, nil
}

// restore loads this worker's snapshot into the fresh session and
// returns the iteration to resume from (0 when no snapshot exists —
// the signature of a late joiner, which syncResume then catches up).
func (r *runtime) restore(sess *Session, conf *Config) (int, error) {
	st, err := checkpoint.LoadFile(r.cfg.CheckpointPath)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("cluster: load checkpoint: %w", err)
	}
	if err := st.ValidateName(r.cfg.Name); err != nil {
		return 0, err
	}
	if len(st.Weights) != len(sess.Params) {
		return 0, fmt.Errorf("cluster: checkpoint has %d weights, model has %d", len(st.Weights), len(sess.Params))
	}
	copy(sess.Params, st.Weights)
	if err := sess.Trainer.Restore(int(st.Iter), st.Velocity); err != nil {
		return 0, fmt.Errorf("cluster: restore trainer: %w", err)
	}
	if sess.Sparsifier != nil && st.Residual != nil {
		if err := sess.Sparsifier.RestoreResidual(st.Residual); err != nil {
			return 0, fmt.Errorf("cluster: restore residual: %w", err)
		}
	}
	if members, ok := st.Members(); ok && !sameMembers(members, conf.Names) {
		// The deterministic re-shard moved this worker's data slice:
		// the epoch's member set differs from the snapshot's. Purely
		// informational — Build already derived the shard from the new
		// (rank, world) — but invaluable when auditing a grown job.
		r.cfg.Logf("%s: epoch %d: re-shard since snapshot: %v -> %v (rank %d of %d)",
			r.cfg.Name, conf.Epoch, members, conf.Names, conf.Rank, conf.World)
	}
	return int(st.Iter), nil
}

// sameMembers reports whether two rank-ordered member lists coincide.
func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// snapshot atomically persists the session's full optimizer state —
// weights, momentum, error-feedback residual — plus the cluster
// coordinates of the save and the epoch's re-shard assignment.
func (r *runtime) snapshot(sess *Session, conf *Config) error {
	st := &checkpoint.State{
		Iter:     uint64(sess.Trainer.Iter()),
		Weights:  sess.Params,
		Velocity: sess.Trainer.Velocity(),
	}
	if sess.Sparsifier != nil {
		st.Residual = sess.Sparsifier.Residual()
	}
	st.SetClusterMeta(conf.Epoch, conf.World, conf.Rank, r.cfg.Name)
	if err := st.SetMembers(conf.Names); err != nil {
		return fmt.Errorf("cluster: snapshot at iteration %d: %w", st.Iter, err)
	}
	if err := checkpoint.SaveFile(r.cfg.CheckpointPath, st); err != nil {
		return fmt.Errorf("cluster: snapshot at iteration %d: %w", st.Iter, err)
	}
	return nil
}

// Resume-sync verdict layout: 'K' | u64 resume iter | u32 donor rank |
// u32 laggard count. Anything not starting with 'K' is an error text.
const syncVerdictLen = 17

// syncResume replaces the shrink-era "all ranks must hold the same
// snapshot" gate with its grow-capable generalisation. Every rank
// contributes (iter, crc32(weights)) via a Gather to rank 0, which
// declares the epoch's resume point:
//
//   - The resume iteration is the MOST ADVANCED snapshot present; the
//     lowest rank holding it is the donor.
//   - Every rank at the resume iteration must hold bit-identical
//     weights (CRC), exactly the old divergence gate.
//   - Ranks below it — late joiners with no checkpoint, or a survivor
//     whose final pre-reconfiguration snapshot lost a race with the
//     epoch teardown — are laggards: the donor broadcasts weights and
//     momentum, and each laggard adopts them with a zeroed
//     error-feedback residual (a joiner has no queued gradient mass by
//     definition; DGC's error-feedback semantics make the zero state
//     the correct fresh start).
//
// The laggard broadcast only happens when someone actually lags, so a
// steady-state epoch costs exactly what the old agreement did: one
// 12-byte Gather and one verdict Bcast. Returns the agreed resume
// iteration, which for a laggard exceeds what restore() reported.
func (r *runtime) syncResume(ctx context.Context, comm *collective.Comm, conf *Config, iter int, sess *Session) (int, error) {
	blob := make([]byte, 12)
	binary.LittleEndian.PutUint64(blob[0:8], uint64(iter))
	binary.LittleEndian.PutUint32(blob[8:12], weightsCRC(sess.Params))
	blobs, err := comm.Gather(ctx, 0, blob)
	if err != nil {
		return 0, fmt.Errorf("cluster: epoch %d resume sync: %w", conf.Epoch, err)
	}
	verdict := []byte("malformed sync round")
	if comm.Rank() == 0 {
		verdict = resumeVerdict(blobs)
	}
	out, err := comm.Bcast(ctx, 0, verdict)
	if err != nil {
		return 0, fmt.Errorf("cluster: epoch %d resume verdict: %w", conf.Epoch, err)
	}
	if len(out) != syncVerdictLen || out[0] != 'K' {
		return 0, fmt.Errorf("cluster: epoch %d resume sync failed: %s", conf.Epoch, out)
	}
	resume := int(binary.LittleEndian.Uint64(out[1:9]))
	donor := int(binary.LittleEndian.Uint32(out[9:13]))
	laggards := int(binary.LittleEndian.Uint32(out[13:17]))
	if laggards == 0 {
		return resume, nil
	}

	// Someone needs the cluster state. Weights are bit-identical on every
	// up-to-date rank under synchronous training, and so is the velocity
	// of a dense aggregator; a sparse one corrects momentum per rank, and
	// a laggard takes the donor's as a warm start. The lowest rank is
	// chosen only to make the broadcast root deterministic.
	weights, err := comm.BcastFloat32s(ctx, donor, sess.Params)
	if err != nil {
		return 0, fmt.Errorf("cluster: epoch %d state sync (weights): %w", conf.Epoch, err)
	}
	velocity, err := comm.BcastFloat32s(ctx, donor, sess.Trainer.Velocity())
	if err != nil {
		return 0, fmt.Errorf("cluster: epoch %d state sync (momentum): %w", conf.Epoch, err)
	}
	if iter < resume {
		if len(weights) != len(sess.Params) {
			return 0, fmt.Errorf("cluster: epoch %d state sync: donor sent %d weights, model has %d",
				conf.Epoch, len(weights), len(sess.Params))
		}
		copy(sess.Params, weights)
		if err := sess.Trainer.Restore(resume, velocity); err != nil {
			return 0, fmt.Errorf("cluster: epoch %d state sync: %w", conf.Epoch, err)
		}
		if sess.Sparsifier != nil {
			if err := sess.Sparsifier.RestoreResidual(make([]float32, len(sess.Params))); err != nil {
				return 0, fmt.Errorf("cluster: epoch %d state sync: %w", conf.Epoch, err)
			}
		}
		r.cfg.Logf("%s: epoch %d: adopted cluster state at iteration %d from rank %d (joined with local iteration %d)",
			r.cfg.Name, conf.Epoch, resume, donor, iter)
	}
	return resume, nil
}

// resumeVerdict is rank 0's half of syncResume: fold the gathered
// (iter, crc) pairs into a verdict blob.
func resumeVerdict(blobs [][]byte) []byte {
	resume, donor, laggards := uint64(0), -1, 0
	for rank, b := range blobs {
		if len(b) != 12 {
			return []byte(fmt.Sprintf("rank %d sent malformed sync blob", rank))
		}
		if got := binary.LittleEndian.Uint64(b[0:8]); got > resume {
			resume = got
		}
	}
	var crc uint32
	for rank, b := range blobs {
		switch got := binary.LittleEndian.Uint64(b[0:8]); {
		case got < resume:
			laggards++
		case donor == -1:
			donor = rank
			crc = binary.LittleEndian.Uint32(b[8:12])
		case binary.LittleEndian.Uint32(b[8:12]) != crc:
			return []byte(fmt.Sprintf("rank %d weights diverge from rank %d at iteration %d", rank, donor, resume))
		}
	}
	verdict := make([]byte, syncVerdictLen)
	verdict[0] = 'K'
	binary.LittleEndian.PutUint64(verdict[1:9], resume)
	binary.LittleEndian.PutUint32(verdict[9:13], uint32(donor))
	binary.LittleEndian.PutUint32(verdict[13:17], uint32(laggards))
	return verdict
}

// classify decides whether an epoch error is a reconfiguration (a newer
// config arrived — or will shortly, once the coordinator's failure
// detector fires) or a genuine failure. On a bare error it waits up to
// the failure-detection window for the coordinator's verdict.
func (r *runtime) classify(epochCtx context.Context, err error) error {
	conf, changed := r.member.Config()
	latest := uint64(0)
	if conf != nil {
		latest = conf.Epoch
	}
	select {
	case <-changed:
		return errEpochSuperseded
	default:
	}
	if epochCtx.Err() == nil {
		// The step failed but no reconfiguration has arrived yet. A dead
		// peer takes the coordinator up to the heartbeat timeout to
		// detect; wait for its verdict before declaring the job broken.
		grace := 2*r.member.HeartbeatTimeout() + time.Second
		select {
		case <-changed:
			return errEpochSuperseded
		case <-r.member.Done():
			return r.memberErr()
		case <-time.After(grace):
			return fmt.Errorf("%w (no reconfiguration within %v of epoch %d)", err, grace, latest)
		}
	}
	select {
	case <-r.member.Done():
		return r.memberErr()
	default:
	}
	return errEpochSuperseded
}

// weightsCRC fingerprints a weight vector for the resume agreement.
func weightsCRC(w []float32) uint32 {
	crc := crc32.NewIEEE()
	var buf [4]byte
	for _, v := range w {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		crc.Write(buf[:]) //nolint:errcheck // hash.Hash never errors
	}
	return crc.Sum32()
}
