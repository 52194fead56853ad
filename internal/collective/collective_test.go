package collective

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/transport"
)

// runSPMD executes body concurrently on every rank of a fresh in-process
// fabric and fails the test on any per-rank error.
func runSPMD(t *testing.T, p int, body func(c *Comm) error) {
	t.Helper()
	f, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runSPMDOn(t, f, body)
}

func runSPMDOn(t *testing.T, f transport.Fabric, body func(c *Comm) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, f.Size())
	for r := 0; r < f.Size(); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = body(New(f.Conn(rank)))
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8, 16} {
		for root := 0; root < p; root++ {
			t.Run(fmt.Sprintf("p=%d/root=%d", p, root), func(t *testing.T) {
				payload := []byte(fmt.Sprintf("hello from %d", root))
				runSPMD(t, p, func(c *Comm) error {
					var in []byte
					if c.Rank() == root {
						in = payload
					}
					got, err := c.Bcast(context.Background(), root, in)
					if err != nil {
						return err
					}
					if string(got) != string(payload) {
						return fmt.Errorf("rank %d got %q", c.Rank(), got)
					}
					return nil
				})
			})
		}
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	runSPMD(t, 2, func(c *Comm) error {
		if _, err := c.Bcast(context.Background(), 5, nil); err == nil {
			return fmt.Errorf("invalid root accepted")
		}
		return nil
	})
}

func TestAllGather(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			runSPMD(t, p, func(c *Comm) error {
				mine := []byte(fmt.Sprintf("rank-%d-data", c.Rank()))
				all, err := c.AllGather(context.Background(), mine)
				if err != nil {
					return err
				}
				if len(all) != p {
					return fmt.Errorf("got %d entries", len(all))
				}
				for r, blob := range all {
					if want := fmt.Sprintf("rank-%d-data", r); string(blob) != want {
						return fmt.Errorf("entry %d = %q, want %q", r, blob, want)
					}
				}
				return nil
			})
		})
	}
}

func TestAllGatherRejectsNonPow2(t *testing.T) {
	runSPMD(t, 3, func(c *Comm) error {
		if _, err := c.AllGather(context.Background(), nil); err == nil {
			return fmt.Errorf("non-power-of-two size accepted")
		}
		return nil
	})
}

func TestAllGatherVariableSizes(t *testing.T) {
	// Ranks contribute different-length payloads (as sparse vectors with
	// differing nnz would).
	runSPMD(t, 8, func(c *Comm) error {
		mine := make([]byte, c.Rank()*3)
		for i := range mine {
			mine[i] = byte(c.Rank())
		}
		all, err := c.AllGather(context.Background(), mine)
		if err != nil {
			return err
		}
		for r, blob := range all {
			if len(blob) != r*3 {
				return fmt.Errorf("entry %d has %d bytes, want %d", r, len(blob), r*3)
			}
			for _, b := range blob {
				if b != byte(r) {
					return fmt.Errorf("entry %d corrupted", r)
				}
			}
		}
		return nil
	})
}

func TestRingAllReduceSumMatchesSequential(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 8} {
		for _, n := range []int{1, 7, 64, 1000} {
			t.Run(fmt.Sprintf("p=%d/n=%d", p, n), func(t *testing.T) {
				// Build per-rank inputs and the expected sum first.
				inputs := make([][]float32, p)
				want := make([]float64, n)
				src := prng.New(uint64(p*1000 + n))
				for r := range inputs {
					inputs[r] = make([]float32, n)
					for i := range inputs[r] {
						inputs[r][i] = float32(src.NormFloat64())
						want[i] += float64(inputs[r][i])
					}
				}
				runSPMD(t, p, func(c *Comm) error {
					x := append([]float32(nil), inputs[c.Rank()]...)
					if err := c.RingAllReduceSum(context.Background(), x); err != nil {
						return err
					}
					for i, v := range x {
						if math.Abs(float64(v)-want[i]) > 1e-3 {
							return fmt.Errorf("elem %d: got %v want %v", i, v, want[i])
						}
					}
					return nil
				})
			})
		}
	}
}

func TestRingAllReduceMean(t *testing.T) {
	const p = 4
	runSPMD(t, p, func(c *Comm) error {
		x := []float32{float32(c.Rank()), 10 * float32(c.Rank())}
		if err := c.RingAllReduceMean(context.Background(), x); err != nil {
			return err
		}
		// mean of 0..3 = 1.5; mean of 0,10,20,30 = 15.
		if math.Abs(float64(x[0])-1.5) > 1e-5 || math.Abs(float64(x[1])-15) > 1e-4 {
			return fmt.Errorf("mean = %v", x)
		}
		return nil
	})
}

func TestRingAllReduceShorterThanRanks(t *testing.T) {
	// Vector shorter than P: some chunks are empty; must still work.
	const p = 8
	runSPMD(t, p, func(c *Comm) error {
		x := []float32{1, 2, 3}
		if err := c.RingAllReduceSum(context.Background(), x); err != nil {
			return err
		}
		want := []float32{8, 16, 24}
		for i := range x {
			if x[i] != want[i] {
				return fmt.Errorf("got %v want %v", x, want)
			}
		}
		return nil
	})
}

func TestCollectivesOverTCP(t *testing.T) {
	f, err := transport.NewTCP(4)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runSPMDOn(t, f, func(c *Comm) error {
		x := []float32{float32(c.Rank() + 1)}
		if err := c.RingAllReduceSum(context.Background(), x); err != nil {
			return err
		}
		if x[0] != 10 {
			return fmt.Errorf("sum = %v, want 10", x[0])
		}
		got, err := c.Bcast(context.Background(), 2, []byte{42})
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != 42 {
			return fmt.Errorf("bcast got %v", got)
		}
		return nil
	})
}

func TestStatsCounting(t *testing.T) {
	runSPMD(t, 4, func(c *Comm) error {
		if err := c.RingAllReduceSum(context.Background(), make([]float32, 400)); err != nil {
			return err
		}
		st := c.Stats()
		// Ring: 2(P-1) = 6 sends and receives of 100-element (400-byte) chunks.
		if st.MsgsSent != 6 || st.MsgsRecv != 6 {
			return fmt.Errorf("msgs = %d/%d, want 6/6", st.MsgsSent, st.MsgsRecv)
		}
		if st.BytesSent != 6*400 || st.BytesRecv != 6*400 {
			return fmt.Errorf("bytes = %d/%d, want 2400", st.BytesSent, st.BytesRecv)
		}
		if st.Rounds != 6 {
			return fmt.Errorf("rounds = %d, want 6", st.Rounds)
		}
		c.ResetStats()
		if c.Stats() != (Stats{}) {
			return fmt.Errorf("ResetStats did not zero counters")
		}
		return nil
	})
}

func TestTimedRingAllReduceMatchesEq5(t *testing.T) {
	// With a clock attached, ring AllReduce must charge the paper's Eq. 5
	// within rounding: 2(P-1)alpha + 2*(P-1)/P*m*beta.
	const p, m = 4, 10000
	model := netsim.Paper1GbE()
	want := model.DenseAllReduce(p, m)
	f, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	times := make([]time.Duration, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var clock netsim.Clock
			c := New(f.Conn(rank)).WithClock(&clock, model)
			if err := c.RingAllReduceSum(context.Background(), make([]float32, m)); err != nil {
				t.Error(err)
				return
			}
			times[rank] = clock.Now()
		}(r)
	}
	wg.Wait()
	for rank, got := range times {
		diff := math.Abs(float64(got - want))
		if diff/float64(want) > 0.01 {
			t.Errorf("rank %d: charged %v, Eq.5 predicts %v", rank, got, want)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1024: 10}
	for in, want := range cases {
		if got := log2(in); got != want {
			t.Errorf("log2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestRequirePow2(t *testing.T) {
	for _, ok := range []int{1, 2, 4, 8, 64} {
		if err := requirePow2(ok); err != nil {
			t.Errorf("requirePow2(%d) = %v", ok, err)
		}
	}
	for _, bad := range []int{0, -1, 3, 6, 12} {
		if err := requirePow2(bad); err == nil {
			t.Errorf("requirePow2(%d) accepted", bad)
		}
	}
}

func TestSequentialCollectivesDoNotInterfere(t *testing.T) {
	// Back-to-back different collectives must not cross wires thanks to
	// tag sequencing.
	runSPMD(t, 4, func(c *Comm) error {
		ctx := context.Background()
		x := []float32{float32(c.Rank())}
		if err := c.RingAllReduceSum(ctx, x); err != nil {
			return err
		}
		got, err := c.Bcast(ctx, 1, []byte{9})
		if err != nil {
			return err
		}
		if got[0] != 9 {
			return fmt.Errorf("bcast corrupted: %v", got)
		}
		all, err := c.AllGather(ctx, []byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		for r, b := range all {
			if len(b) != 1 || b[0] != byte(r) {
				return fmt.Errorf("allgather corrupted at %d: %v", r, b)
			}
		}
		return nil
	})
}
