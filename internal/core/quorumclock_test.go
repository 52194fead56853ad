package core_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/quant"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// runQuorumClockWorld drives one full-quorum round under codec with a
// private simulated clock per rank, returning each rank's clock reading
// and the round's merged result.
func runQuorumClockWorld(t *testing.T, codec sparse.Codec, vecs []*sparse.Vector, k int, model netsim.Model) ([]time.Duration, *sparse.Vector) {
	t.Helper()
	p := len(vecs)
	fab, err := transport.NewInProcWire(p, codec.WireVersion())
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close() //nolint:errcheck // test fabric
	qc := core.QuorumConfig{Q: p, Timeout: 5 * time.Second}
	times := make([]time.Duration, p)
	outs := make([]*sparse.Vector, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var clock netsim.Clock
			c := collective.New(fab.Conn(r)).WithClock(&clock, model)
			quant.AttachStack(c, codec, 42)
			outs[r] = &sparse.Vector{}
			_, _, errs[r] = core.HierQuorumGTopKAllReduceInto(context.Background(), c, nil, vecs[r].Clone(), k, 0, qc, outs[r])
			times[r] = clock.Now()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("codec %v rank %d: %v", codec, r, err)
		}
	}
	return times, outs[0]
}

// TestQuorumClockChargesMeasuredVerdictBytes pins the verdict-leg
// charging rule across codecs: under v1 the broadcast is modelled at the
// flat-equivalent element count, but under a compressed codec it must
// charge the MEASURED encoded bytes — the clock has to agree with the
// wire tally, not with a layout the mesh never shipped. The old code
// charged every codec at the v1 flat equivalent, which made a v3-qsgd8
// round cost exactly a v1 round on the simulated clock; with ~5x fewer
// verdict bytes on the wire the qsgd8 round must now be strictly
// cheaper, and all per-rank clocks must still agree (the charge is a
// pure function of the verdict).
func TestQuorumClockChargesMeasuredVerdictBytes(t *testing.T) {
	const p, dim, k = 4, 300, 12
	vecs := compoundVectors(6006, p, dim, k, "gauss")
	model := netsim.Paper1GbE()

	v1Times, v1Out := runQuorumClockWorld(t, sparse.CodecV1, vecs, k, model)
	q8Times, _ := runQuorumClockWorld(t, sparse.CodecV3Q8, vecs, k, model)

	for r := 1; r < p; r++ {
		if v1Times[r] != v1Times[0] {
			t.Fatalf("v1 rank %d clock %v, rank 0 %v", r, v1Times[r], v1Times[0])
		}
		if q8Times[r] != q8Times[0] {
			t.Fatalf("qsgd8 rank %d clock %v, rank 0 %v", r, q8Times[r], q8Times[0])
		}
	}
	// The v1 charge is exact: a modelled 2k-element gather plus the flat
	// encoded verdict size in elements.
	wantV1 := model.Round(p, 2*k) + model.Round(p, sparse.EncodedSize(v1Out.NNZ())/4)
	if v1Times[0] != wantV1 {
		t.Fatalf("v1 clock %v, want %v", v1Times[0], wantV1)
	}
	// The compressed round still pays the modelled gather but a strictly
	// smaller verdict leg.
	gather := model.Round(p, 2*k)
	if q8Times[0] <= gather {
		t.Fatalf("qsgd8 clock %v advanced no verdict leg (gather alone is %v)", q8Times[0], gather)
	}
	if q8Times[0] >= v1Times[0] {
		t.Fatalf("qsgd8 clock %v not below the v1 clock %v — the verdict leg is still charged at the v1 flat equivalent", q8Times[0], v1Times[0])
	}
}
