package core

import (
	"context"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/transport"
)

func TestPhaseHookReceivesEveryIteration(t *testing.T) {
	f, err := transport.NewInProc(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	agg := NewDenseAggregator(collective.New(f.Conn(0)), 8)
	tr, err := NewTrainer(TrainConfig{LR: 0.1, Momentum: 0.9}, agg, make([]float32, 8),
		func(_ int, _, grad []float32) float64 {
			time.Sleep(time.Millisecond) // make compute measurable
			clear(grad)
			grad[0] = 1
			return 0
		})
	if err != nil {
		t.Fatal(err)
	}
	var (
		iters  []int
		phases []PhaseTimes
	)
	tr.SetPhaseHook(func(iter int, pt PhaseTimes) {
		iters = append(iters, iter)
		phases = append(phases, pt)
	})
	const steps = 5
	for s := 0; s < steps; s++ {
		if _, err := tr.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if len(iters) != steps {
		t.Fatalf("hook fired %d times, want %d", len(iters), steps)
	}
	for s, it := range iters {
		if it != s {
			t.Fatalf("hook iter %d at position %d", it, s)
		}
	}
	for s, pt := range phases {
		if pt.Compute < time.Millisecond/2 {
			t.Fatalf("step %d: compute %v implausibly small", s, pt.Compute)
		}
		if pt.Compute+pt.Aggregate+pt.Update <= 0 {
			t.Fatalf("step %d: zero total phase time", s)
		}
	}
	// Removing the hook stops deliveries.
	tr.SetPhaseHook(nil)
	if _, err := tr.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(iters) != steps {
		t.Fatal("hook fired after removal")
	}
}
