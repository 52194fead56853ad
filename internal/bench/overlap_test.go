package bench

import (
	"testing"
	"time"

	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/nn/models"
)

func TestWfbpScheduleBounds(t *testing.T) {
	compute := 100 * time.Millisecond
	compress := 10 * time.Millisecond
	comms := []time.Duration{20 * time.Millisecond, 5 * time.Millisecond, 40 * time.Millisecond}

	got := wfbpSchedule(compute, compress, comms)
	if got < compute+compress {
		t.Fatalf("schedule %v below compute+compress floor %v", got, compute+compress)
	}
	var sum time.Duration
	for _, c := range comms {
		sum += c
	}
	serialized := compute + compress + sum
	if got >= serialized {
		t.Fatalf("overlapped schedule %v not below serialized %v", got, serialized)
	}
	if empty := wfbpSchedule(compute, compress, nil); empty != compute+compress {
		t.Fatalf("no-bucket schedule = %v, want %v", empty, compute+compress)
	}
}

// TestBucketedOverlapBeatsSerialized asserts the acceptance property of
// the overlap scenario: for every paper model the overlapped pipeline's
// simulated wall-clock is strictly below the serialized baseline.
func TestBucketedOverlapBeatsSerialized(t *testing.T) {
	model := netsim.Paper1GbE()
	const p, rho = 32, 0.001
	for _, pm := range models.PaperModels() {
		bd := iterBreakdown(model, pm, "gtopk", p)
		comms := bucketComms(model, p, pm.Params, overlapBuckets, rho)
		var sum time.Duration
		for _, c := range comms {
			sum += c
		}
		serialized := bd.Compute + bd.Compress + sum
		overlapped := wfbpSchedule(bd.Compute, bd.Compress, comms)
		if overlapped >= serialized {
			t.Errorf("%s: overlapped %v >= serialized %v", pm.Name, overlapped, serialized)
		}
		if overlapped >= bd.Total() {
			t.Errorf("%s: overlapped %v >= unbucketed serial iteration %v", pm.Name, overlapped, bd.Total())
		}
	}
}

func TestRegistryHasBucketedExperiments(t *testing.T) {
	for _, id := range []string{"bucketed-overlap", "bucketed-convergence"} {
		if _, err := Lookup(id); err != nil {
			t.Errorf("experiment %q not registered: %v", id, err)
		}
	}
}
