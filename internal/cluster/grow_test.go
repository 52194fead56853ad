package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gtopkssgd/internal/transport"
)

// TestElasticGrowMatchesFreshRun is the scale-UP acceptance test, the
// grow-side twin of TestElasticShrinkMatchesFreshRun: a 3-worker job is
// joined mid-training by a fourth worker, which the coordinator parks
// and admits at the next epoch boundary. No process dies. The grown
// 4-rank epoch resumes from the survivors' last common checkpoint, the
// joiner adopts the cluster state from a donor rank — and the
// post-admission loss trajectory and final weights must be
// BIT-IDENTICAL to a fresh 4-rank run restored from the same
// iteration-aligned snapshots, checked against references on both the
// in-process and the real-TCP fabric.
//
// The joiner's name ("w15") sorts BETWEEN two founders ("w1" < "w15" <
// "w2"), so admission exercises the hard part of the deterministic
// re-shard: a surviving worker (w2) has its rank shifted (2 -> 3) and
// its data shard moved by a join it had nothing to do with.
//
// At trainer momentum 0 the donor's velocity is empty: the broadcast
// carries nothing and the joiner restores from nothing.
func TestElasticGrowMatchesFreshRun(t *testing.T) {
	for _, mom := range []float32{elMom, 0} {
		t.Run(fmt.Sprintf("momentum=%v", mom), func(t *testing.T) { testElasticGrow(t, mom) })
	}
}

func testElasticGrow(t *testing.T, mom float32) {
	const (
		initial   = 3
		maxWorld  = 4
		steps     = 24
		ckptEvery = 4
		joiner    = "w15"
		// All founders pause inside OnStep at this iteration while the
		// joiner is admitted (monitor tick is ~12ms under fastHB, the
		// hold is 40x that), so the epoch teardown lands while nobody is
		// mid-collective and the resume point is exactly the checkpoint
		// at iteration 8 — deterministic, not a race.
		holdIter = 10
		hold     = 500 * time.Millisecond
	)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	ds := elasticDataset(t)
	dir := t.TempDir()

	addr, _, served := startCoordinator(t, ctx,
		fastHB(CoordinatorConfig{World: initial, MaxWorld: maxWorld}))

	var (
		recMu      sync.Mutex
		records    = make(map[string][]stepRecord)
		runResults = make(map[string]*RunResult)
		runErrs    = make(map[string]error)
		joinOnce   sync.Once
		wg         sync.WaitGroup
	)
	var launch func(name string)
	launch = func(name string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(ctx, RuntimeConfig{
				Name:            name,
				Coordinator:     addr,
				Steps:           steps,
				CheckpointPath:  filepath.Join(dir, name+".gtkc"),
				CheckpointEvery: ckptEvery,
				Build:           elasticBuildWith(ds, mom),
				OnStep: func(info StepInfo) error {
					recMu.Lock()
					records[name] = append(records[name], stepRecord{
						epoch: info.Epoch, rank: info.Rank, world: info.World,
						iter: info.Iter, loss: info.Loss,
					})
					recMu.Unlock()
					if info.Epoch == 1 && info.Iter == holdIter {
						joinOnce.Do(func() { launch(joiner) })
						time.Sleep(hold)
					}
					return nil
				},
			})
			recMu.Lock()
			runResults[name] = res
			runErrs[name] = err
			recMu.Unlock()
		}()
	}
	for i := 0; i < initial; i++ {
		launch(fmt.Sprintf("w%d", i))
	}
	wg.Wait()

	// Everyone — founders and joiner — must complete the full job.
	all := []string{"w0", "w1", joiner, "w2"} // epoch-2 rank order
	for _, name := range all {
		if runErrs[name] != nil {
			t.Fatalf("%s failed: %v", name, runErrs[name])
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
	for newRank, name := range all {
		res := runResults[name]
		wantEpochs := 2
		if name == joiner {
			wantEpochs = 1 // parked through epoch 1, trained only in epoch 2
		}
		if res.Steps != steps || res.FinalWorld != maxWorld || res.FinalEpoch != 2 ||
			res.FinalRank != newRank || res.Epochs != wantEpochs {
			t.Fatalf("%s result %+v, want %d steps at rank %d of %d in epoch 2 (%d epochs)",
				name, res, steps, newRank, maxWorld, wantEpochs)
		}
	}

	// Epoch-1 ranks are name-ordered over the founders; epoch 2 slots the
	// joiner at its name-order position, shifting w2 up.
	oldRank := map[string]int{"w0": 0, "w1": 1, "w2": 2}
	resumeIter := -1
	for newRank, name := range all {
		var sawEpoch2 bool
		for _, rec := range records[name] {
			switch rec.epoch {
			case 1:
				if name == joiner {
					t.Fatalf("joiner trained in epoch 1: %+v", rec)
				}
				if rec.rank != oldRank[name] || rec.world != initial {
					t.Fatalf("%s epoch-1 record %+v, want rank %d world %d", name, rec, oldRank[name], initial)
				}
			case 2:
				if rec.rank != newRank || rec.world != maxWorld {
					t.Fatalf("%s epoch-2 record %+v, want rank %d world %d", name, rec, newRank, maxWorld)
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
	// Admission at the iteration-10 hold must roll back only to the
	// cadence-4 checkpoint at 8 — no training beyond the last snapshot is
	// kept, none before it is lost.
	if resumeIter != 8 {
		t.Fatalf("grown epoch resumed at iteration %d, want 8", resumeIter)
	}

	// Reference: a fresh 3-rank run to the resume point yields the
	// founders' snapshots; the joiner's state is the donor's (rank 0)
	// weights and momentum with a zeroed error-feedback residual —
	// exactly what syncResume hands it. A fresh 4-rank run restored from
	// those states must reproduce the elastic run bit for bit, whether
	// the reference talks over in-process channels or real TCP sockets.
	_, statesAtResume := refRunOn(t, ds, initial, resumeIter, nil, 0, nil, mom)
	wantVelocity := len(statesAtResume[0].weights)
	if mom == 0 {
		wantVelocity = 0
	}
	if got := len(statesAtResume[0].velocity); got != wantVelocity {
		t.Fatalf("the donor's velocity has %d entries, want %d", got, wantVelocity)
	}
	dim := len(statesAtResume[0].weights)
	restore4 := []*refState{
		statesAtResume[0], // w0
		statesAtResume[1], // w1
		{ // w15, the joiner
			weights:  statesAtResume[0].weights,
			velocity: statesAtResume[0].velocity,
			residual: make([]float32, dim),
		},
		statesAtResume[2], // w2
	}
	fabrics := map[string]transport.Fabric{"inproc": nil}
	tcpFab, err := transport.NewTCP(maxWorld)
	if err != nil {
		t.Fatal(err)
	}
	fabrics["tcp"] = tcpFab

	for fabName, fabric := range fabrics {
		refLosses, refStates := refRunOn(t, ds, maxWorld, steps-resumeIter, restore4, resumeIter, fabric, mom)
		for newRank, name := range all {
			var got []stepRecord
			for _, rec := range records[name] {
				if rec.epoch == 2 {
					got = append(got, rec)
				}
			}
			want := refLosses[newRank]
			if len(got) != len(want) {
				t.Fatalf("[%s ref] %s: %d epoch-2 steps, reference has %d", fabName, name, len(got), len(want))
			}
			for s, rec := range got {
				if rec.iter != resumeIter+s+1 {
					t.Fatalf("[%s ref] %s: epoch-2 step %d has iter %d, want %d",
						fabName, name, s, rec.iter, resumeIter+s+1)
				}
				if rec.loss != want[s] {
					t.Fatalf("[%s ref] %s iteration %d: loss %v, reference %v (trajectories must be bit-identical)",
						fabName, name, rec.iter, rec.loss, want[s])
				}
			}
			final := runResults[name].FinalWeights
			refW := refStates[newRank].weights
			if len(final) != len(refW) {
				t.Fatalf("[%s ref] %s: %d final weights, reference %d", fabName, name, len(final), len(refW))
			}
			for i := range final {
				if final[i] != refW[i] {
					t.Fatalf("[%s ref] %s weight %d: %v, reference %v", fabName, name, i, final[i], refW[i])
				}
			}
		}
	}
}

// TestLateJoinParksAndGrows pins the coordinator-level grow contract
// without a training loop: a late joiner is parked (welcome carries the
// marker), the autoscaler admits it at the next monitor tick, and the
// grown epoch re-ranks everyone by name with the joiner slotted in
// name order.
func TestLateJoinParksAndGrows(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	addr, _, _ := startCoordinator(t, ctx, fastHB(CoordinatorConfig{World: 2, MaxWorld: 3}))

	founders := make(map[string]*Member, 2)
	for _, name := range []string{"alpha", "zulu"} {
		m, err := Join(ctx, addr, name, "127.0.0.1:1")
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close() //nolint:errcheck // test teardown
		if m.Parked() {
			t.Fatalf("founder %s parked, want immediate membership", name)
		}
		founders[name] = m
	}
	for _, m := range founders {
		awaitConfig(t, ctx, m, 1)
	}

	late, err := Join(ctx, addr, "mike", "127.0.0.1:2")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close() //nolint:errcheck // test teardown
	if !late.Parked() {
		t.Fatal("late joiner not parked")
	}

	// The default autoscaler admits it at the next tick; "mike" sorts
	// between the founders, so zulu's rank shifts 1 -> 2.
	wantRanks := map[string]int{"alpha": 0, "mike": 1, "zulu": 2}
	for name, m := range map[string]*Member{"alpha": founders["alpha"], "zulu": founders["zulu"], "mike": late} {
		conf := awaitConfig(t, ctx, m, 2)
		if conf.World != 3 || conf.Rank != wantRanks[name] {
			t.Fatalf("%s epoch-2 config %+v, want rank %d of 3", name, conf, wantRanks[name])
		}
		if len(conf.Names) != 3 || conf.Names[0] != "alpha" || conf.Names[1] != "mike" || conf.Names[2] != "zulu" {
			t.Fatalf("epoch-2 names %v, want [alpha mike zulu]", conf.Names)
		}
	}
}

// TestDuplicateNameJoinRejected pins the duplicate-identity guard: a
// joiner reusing a live member's name — or a parked joiner's — must be
// rejected explicitly, not admitted as a doppelganger that would
// corrupt the name-keyed re-shard mapping.
func TestDuplicateNameJoinRejected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	addr, _, _ := startCoordinator(t, ctx, fastHB(CoordinatorConfig{World: 2, MaxWorld: 4}))

	a, err := Join(ctx, addr, "alpha", "127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() //nolint:errcheck // test teardown

	// Duplicate of a pre-start member.
	if _, err := Join(ctx, addr, "alpha", "127.0.0.1:2"); err == nil ||
		!strings.Contains(err.Error(), "already joined") {
		t.Fatalf("duplicate pre-start join error = %v, want explicit name rejection", err)
	}

	b, err := Join(ctx, addr, "bravo", "127.0.0.1:3")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close() //nolint:errcheck // test teardown
	awaitConfig(t, ctx, a, 1)

	// Duplicate of a live member after start. MaxWorld has room (4), so
	// the rejection is the name guard, not the world-full guard.
	if _, err := Join(ctx, addr, "bravo", "127.0.0.1:4"); err == nil ||
		!strings.Contains(err.Error(), "already joined") {
		t.Fatalf("duplicate live-member join error = %v, want explicit name rejection", err)
	}

	// Duplicate of a parked (or freshly admitted) joiner: "charlie" is
	// queued or already grown into the epoch — either way its name is
	// taken.
	cjoin, err := Join(ctx, addr, "charlie", "127.0.0.1:5")
	if err != nil {
		t.Fatal(err)
	}
	defer cjoin.Close() //nolint:errcheck // test teardown
	if _, err := Join(ctx, addr, "charlie", "127.0.0.1:6"); err == nil ||
		!strings.Contains(err.Error(), "already joined") {
		t.Fatalf("duplicate parked-joiner join error = %v, want explicit name rejection", err)
	}
}
