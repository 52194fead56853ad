package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/data"
	"gtopkssgd/internal/nn/models"
	"gtopkssgd/internal/transport"
)

// Shared hyper-parameters: elastic runs and their non-elastic reference
// runs must agree on every one of these for bit-level comparison.
const (
	elDensity = 0.05
	elBatch   = 4
	elLR      = 0.05
	elMom     = 0.9
	elSeed    = 7
	elHidden  = 16
)

func elasticDataset(t *testing.T) *data.Images {
	t.Helper()
	ds, err := data.NewImages(11, 10, 3, 8, 8, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// elasticBuild returns the BuildFn every elastic worker uses: an MLP +
// gTop-k aggregator + momentum trainer, sharded by the epoch's
// (rank, world).
func elasticBuild(ds *data.Images) BuildFn { return elasticBuildWith(ds, elMom) }

// elasticBuildWith is elasticBuild with the trainer momentum mom; at 0
// the trainer holds no velocity, and its snapshots and donor broadcasts
// carry an empty one.
func elasticBuildWith(ds *data.Images, mom float32) BuildFn {
	return func(rank, world int, comm *collective.Comm) (*Session, error) {
		cls := models.MLP(ds.Dim(), elHidden, 10)
		cls.Net.Init(elSeed)
		dim := cls.Net.ParamCount()
		agg, err := core.NewGTopKAggregator(comm, dim, core.DensityToK(dim, elDensity))
		if err != nil {
			return nil, err
		}
		tr, err := core.NewTrainer(core.TrainConfig{LR: elLR, Momentum: mom},
			agg, cls.Net.Parameters(), models.GradFn(cls, ds, rank, world, elBatch))
		if err != nil {
			return nil, err
		}
		return &Session{Trainer: tr, Params: cls.Net.Parameters(), Sparsifier: agg.Sparsifier()}, nil
	}
}

// refState captures one rank's full optimizer state from a non-elastic
// reference run.
type refState struct {
	weights  []float32
	velocity []float32
	residual []float32
}

// refRun runs a plain (non-elastic, in-process-goroutine but real-TCP-
// free) cluster for `steps` additional steps, optionally restoring
// per-rank state first, and returns per-rank losses, final states and
// final weights.
func refRun(t *testing.T, ds *data.Images, workers, steps int, restore []*refState, fromIter int) ([][]float64, []*refState) {
	t.Helper()
	return refRunOn(t, ds, workers, steps, restore, fromIter, nil, elMom)
}

// refRunOn is refRun on an explicit fabric (nil means the default
// in-process one) — bit-identity claims are checked against references
// on both inproc and real TCP transports — with trainer momentum mom.
func refRunOn(t *testing.T, ds *data.Images, workers, steps int, restore []*refState, fromIter int, fabric transport.Fabric, mom float32) ([][]float64, []*refState) {
	t.Helper()
	type rankRefs struct {
		cls *models.Classifier
		agg *core.GTopKAggregator
		tr  *core.Trainer
	}
	refs := make([]*rankRefs, workers)
	results, err := core.RunCluster(context.Background(),
		core.ClusterConfig{Workers: workers, Steps: steps, Fabric: fabric},
		func(rank int, comm *collective.Comm) (*core.Trainer, error) {
			cls := models.MLP(ds.Dim(), elHidden, 10)
			cls.Net.Init(elSeed)
			dim := cls.Net.ParamCount()
			agg, err := core.NewGTopKAggregator(comm, dim, core.DensityToK(dim, elDensity))
			if err != nil {
				return nil, err
			}
			tr, err := core.NewTrainer(core.TrainConfig{LR: elLR, Momentum: mom},
				agg, cls.Net.Parameters(), models.GradFn(cls, ds, rank, workers, elBatch))
			if err != nil {
				return nil, err
			}
			if restore != nil {
				st := restore[rank]
				copy(cls.Net.Parameters(), st.weights)
				if err := tr.Restore(fromIter, st.velocity); err != nil {
					return nil, err
				}
				if err := agg.Sparsifier().RestoreResidual(st.residual); err != nil {
					return nil, err
				}
			}
			refs[rank] = &rankRefs{cls: cls, agg: agg, tr: tr}
			return tr, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	losses := make([][]float64, workers)
	states := make([]*refState, workers)
	for rank, res := range results {
		losses[rank] = res.Losses
		states[rank] = &refState{
			weights:  append([]float32(nil), refs[rank].cls.Net.Parameters()...),
			velocity: append([]float32(nil), refs[rank].tr.Velocity()...),
			residual: append([]float32(nil), refs[rank].agg.Sparsifier().Residual()...),
		}
	}
	return losses, states
}

// stepRecord is one observed training step of one elastic worker.
type stepRecord struct {
	epoch       uint64
	rank, world int
	iter        int
	loss        float64
}

// TestElasticShrinkMatchesFreshRun is the subsystem's acceptance test:
// a 4-worker job launched through the coordinator survives the
// SIGKILL-equivalent death of one worker mid-training, re-forms at
// world size 3, resumes from the last checkpoint — and its post-resume
// loss trajectory and final weights are BIT-IDENTICAL to a fresh
// 3-worker run restored from the same snapshots.
func TestElasticShrinkMatchesFreshRun(t *testing.T) {
	const (
		workers   = 4
		steps     = 24
		ckptEvery = 4
		killIter  = 14 // between checkpoints at 12 and 16
		victim    = "w1"
	)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ds := elasticDataset(t)
	dir := t.TempDir()

	addr, _, served := startCoordinator(t, ctx, fastHB(CoordinatorConfig{World: workers}))

	var (
		recMu   sync.Mutex
		records = make(map[string][]stepRecord)
	)
	killErr := errors.New("test kill switch")
	runResults := make(map[string]*RunResult)
	runErrs := make(map[string]error)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		name := fmt.Sprintf("w%d", i)
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			res, err := Run(ctx, RuntimeConfig{
				Name:            name,
				Coordinator:     addr,
				Steps:           steps,
				CheckpointPath:  filepath.Join(dir, name+".gtkc"),
				CheckpointEvery: ckptEvery,
				Build:           elasticBuild(ds),
				OnStep: func(info StepInfo) error {
					recMu.Lock()
					records[name] = append(records[name], stepRecord{
						epoch: info.Epoch, rank: info.Rank, world: info.World,
						iter: info.Iter, loss: info.Loss,
					})
					recMu.Unlock()
					if name == victim && info.Iter == killIter {
						return killErr
					}
					return nil
				},
			})
			recMu.Lock()
			runResults[name] = res
			runErrs[name] = err
			recMu.Unlock()
		}(name)
	}
	wg.Wait()

	// The victim must report its own abort; everyone else completes.
	if err := runErrs[victim]; err == nil || !errors.Is(err, killErr) {
		t.Fatalf("victim error = %v, want the kill switch", err)
	}
	for i := 0; i < workers; i++ {
		name := fmt.Sprintf("w%d", i)
		if name == victim {
			continue
		}
		if runErrs[name] != nil {
			t.Fatalf("%s failed: %v", name, runErrs[name])
		}
		res := runResults[name]
		if res.Steps != steps || res.FinalWorld != workers-1 || res.FinalEpoch != 2 || res.Epochs != 2 {
			t.Fatalf("%s result %+v, want %d steps at world %d in epoch 2", name, res, steps, workers-1)
		}
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("coordinator Serve = %v, want nil (job completed)", err)
		}
	case <-ctx.Done():
		t.Fatal("coordinator did not finish")
	}

	// Epoch-1 ranks are name-ordered: w0→0 … w3→3; survivors keep
	// relative order in epoch 2.
	survivors := []string{"w0", "w2", "w3"}
	oldRank := map[string]int{"w0": 0, "w2": 2, "w3": 3}
	resumeIter := -1
	for newRank, name := range survivors {
		var sawEpoch2 bool
		for _, rec := range records[name] {
			switch rec.epoch {
			case 1:
				if rec.rank != oldRank[name] || rec.world != workers {
					t.Fatalf("%s epoch-1 record %+v, want rank %d world %d", name, rec, oldRank[name], workers)
				}
			case 2:
				if rec.rank != newRank || rec.world != workers-1 {
					t.Fatalf("%s epoch-2 record %+v, want rank %d world %d", name, rec, newRank, workers-1)
				}
				if !sawEpoch2 {
					sawEpoch2 = true
					if resumeIter == -1 {
						resumeIter = rec.iter - 1
					} else if rec.iter-1 != resumeIter {
						t.Fatalf("%s resumed at %d, others at %d", name, rec.iter-1, resumeIter)
					}
				}
			}
		}
		if !sawEpoch2 {
			t.Fatalf("%s never trained in epoch 2", name)
		}
	}
	// The kill at iteration 14 must have rolled back to the snapshot at
	// 12 (cadence 4; 16 was never reached).
	if resumeIter != 12 {
		t.Fatalf("survivors resumed at iteration %d, want 12", resumeIter)
	}

	// Reference: a fresh 4-rank run to the resume point, then a fresh
	// 3-rank run restored from the survivors' states. The elastic
	// post-resume trajectory must match it bit for bit.
	_, statesAtResume := refRun(t, ds, workers, resumeIter, nil, 0)
	restore3 := make([]*refState, len(survivors))
	for newRank, name := range survivors {
		restore3[newRank] = statesAtResume[oldRank[name]]
	}
	refLosses, refStates := refRun(t, ds, len(survivors), steps-resumeIter, restore3, resumeIter)

	for newRank, name := range survivors {
		var got []stepRecord
		for _, rec := range records[name] {
			if rec.epoch == 2 {
				got = append(got, rec)
			}
		}
		want := refLosses[newRank]
		if len(got) != len(want) {
			t.Fatalf("%s: %d epoch-2 steps, reference has %d", name, len(got), len(want))
		}
		for s, rec := range got {
			if rec.iter != resumeIter+s+1 {
				t.Fatalf("%s: epoch-2 step %d has iter %d, want %d", name, s, rec.iter, resumeIter+s+1)
			}
			if rec.loss != want[s] {
				t.Fatalf("%s iteration %d: loss %v, reference %v (trajectories must be bit-identical)",
					name, rec.iter, rec.loss, want[s])
			}
		}
		final := runResults[name].FinalWeights
		refW := refStates[newRank].weights
		if len(final) != len(refW) {
			t.Fatalf("%s: %d final weights, reference %d", name, len(final), len(refW))
		}
		for i := range final {
			if final[i] != refW[i] {
				t.Fatalf("%s weight %d: %v, reference %v", name, i, final[i], refW[i])
			}
		}
	}
}

// TestElasticSingleWorkerCompletes sanity-checks the degenerate world:
// one worker, no failures, checkpointed completion.
func TestElasticSingleWorkerCompletes(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ds := elasticDataset(t)
	addr, _, served := startCoordinator(t, ctx, fastHB(CoordinatorConfig{World: 1}))

	res, err := Run(ctx, RuntimeConfig{
		Name:           "solo",
		Coordinator:    addr,
		Steps:          6,
		CheckpointPath: filepath.Join(t.TempDir(), "solo.gtkc"),
		Build:          elasticBuild(ds),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 6 || res.FinalWorld != 1 || res.FinalEpoch != 1 {
		t.Fatalf("result %+v, want 6 steps at world 1 epoch 1", res)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve = %v", err)
	}
}

// TestElasticResumeAgreementCatchesForeignCheckpoint: restoring another
// worker's snapshot must fail loudly, not fork the replicas.
func TestElasticResumeAgreementCatchesForeignCheckpoint(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ds := elasticDataset(t)
	dir := t.TempDir()
	addr, _, _ := startCoordinator(t, ctx, fastHB(CoordinatorConfig{World: 1}))

	// Produce a snapshot owned by "other".
	if _, err := Run(ctx, RuntimeConfig{
		Name: "other", Coordinator: addr, Steps: 3,
		CheckpointPath: filepath.Join(dir, "other.gtkc"),
		Build:          elasticBuild(ds),
	}); err != nil {
		t.Fatal(err)
	}

	addr2, _, _ := startCoordinator(t, ctx, fastHB(CoordinatorConfig{World: 1}))
	_, err := Run(ctx, RuntimeConfig{
		Name: "thief", Coordinator: addr2, Steps: 6,
		CheckpointPath: filepath.Join(dir, "other.gtkc"),
		Build:          elasticBuild(ds),
	})
	if err == nil || !strings.Contains(err.Error(), "belongs to worker") {
		t.Fatalf("err = %v, want foreign-snapshot rejection", err)
	}
}

// TestElasticCompletionCatchesDivergedReplica: the agreement run after
// the last step is the job's replica check — a rank whose weights move
// after its final step fails Run on every rank, naming both ranks, and
// at once: no reconfiguration can mend diverged replicas, so no rank
// waits out the failure-detection grace (1.5 s under fastHB).
func TestElasticCompletionCatchesDivergedReplica(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ds := elasticDataset(t)
	dir := t.TempDir()
	addr, _, _ := startCoordinator(t, ctx, fastHB(CoordinatorConfig{World: 2}))

	const steps = 6
	names := []string{"w0", "w1"} // name order makes w1 rank 1
	start := time.Now()
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		var params []float32
		build := elasticBuild(ds)
		cfg := RuntimeConfig{
			Name: name, Coordinator: addr, Steps: steps,
			CheckpointPath: filepath.Join(dir, name+".gtkc"),
			Build: func(rank, world int, comm *collective.Comm) (*Session, error) {
				sess, err := build(rank, world, comm)
				if err == nil {
					params = sess.Params
				}
				return sess, err
			},
			OnStep: func(info StepInfo) error {
				if info.Rank == 1 && info.Iter == steps {
					params[0] += 1 // diverge after the last step
				}
				return nil
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = Run(ctx, cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "rank 1 weights diverge from rank 0 at iteration 6") {
			t.Errorf("%s: err = %v, want the completion check to name ranks 1 and 0", names[i], err)
		}
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("the failed check took %v to surface, want it terminal without the grace wait", took)
	}
}

// TestElasticFailedAgreementAbortsJob forces the ordering in which a
// failed replica agreement used to end in a job that reported success:
// rank 1 sends a malformed sync blob and does not read rank 0's verdict
// until rank 0's Run has returned. Rank 0 must report the verdict to the
// coordinator before it leaves, so the coordinator aborts the job —
// rank 1's control plane ends with the verdict — instead of treating
// rank 0's departure as a death and re-forming the epoch around rank 1.
func TestElasticFailedAgreementAbortsJob(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addr, _, served := startCoordinator(t, ctx, fastHB(CoordinatorConfig{World: 2}))

	cfg := RuntimeConfig{
		Name: "w0", Coordinator: addr, Steps: 6,
		CheckpointPath: filepath.Join(t.TempDir(), "w0.gtkc"),
		Build:          elasticBuild(elasticDataset(t)),
	}
	ran := make(chan error, 1)
	go func() {
		_, err := Run(ctx, cfg)
		ran <- err
	}()

	// Rank 1 by hand: join, wire the epoch's mesh and send a blob the
	// agreement cannot parse.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck // test teardown
	m, err := Join(ctx, addr, "w1", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() //nolint:errcheck // test teardown
	conf := awaitConfig(t, ctx, m, 1)
	_, changed := m.Config() // closed if the coordinator forms epoch 2
	conn, err := transport.JoinMesh(ctx, transport.MeshConfig{
		Rank: conf.Rank, Addrs: conf.Addrs, Epoch: conf.Epoch, Listener: ln,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck // test teardown
	comm := collective.New(conn)
	if _, err := comm.Fork(1); err != nil { // the runtime's training fork
		t.Fatal(err)
	}
	if _, err := comm.Gather(ctx, 0, []byte("bad")); err != nil {
		t.Fatal(err)
	}

	const verdict = "rank 1 sent malformed sync blob"
	if err := <-ran; err == nil || !strings.Contains(err.Error(), verdict) {
		t.Fatalf("w0: err = %v, want the failed agreement", err)
	}
	select {
	case <-m.Done():
		if err := m.Err(); err == nil || !strings.Contains(err.Error(), "job aborted by coordinator") || !strings.Contains(err.Error(), verdict) {
			t.Fatalf("w1's control plane ended with %v, want the abort naming the verdict", err)
		}
	case <-changed:
		latest, _ := m.Config()
		t.Fatalf("the coordinator re-formed epoch %d around w1 after a failed agreement", latest.Epoch)
	case <-ctx.Done():
		t.Fatal("timeout waiting for the abort")
	}
	if err := <-served; err == nil || !strings.Contains(err.Error(), verdict) {
		t.Fatalf("Serve = %v, want the failed agreement", err)
	}
}
