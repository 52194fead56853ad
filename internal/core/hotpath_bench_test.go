package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// Benchmarks for the aggregation collectives over the in-process fabric.
// All report allocations: with reused result vectors (the *Into entry
// point) the tree collective allocates nothing in steady state (pinned
// by TestCollectiveAllocFree).

func benchRankVectors(p, dim, k int) []*sparse.Vector {
	vecs, _ := benchVectorsAndSum(p, dim, k)
	return vecs
}

func benchVectorsAndSum(p, dim, k int) ([]*sparse.Vector, []float32) {
	dense, vecs := makeWorkerVectors(uint64(31+p), p, dim, k)
	sum := make([]float32, dim)
	for _, g := range dense {
		for i, v := range g {
			sum[i] += v
		}
	}
	return vecs, sum
}

func BenchmarkGTopKAllReduce(b *testing.B) {
	const dim = 100_000
	for _, rho := range []float64{0.001, 0.01} {
		k := DensityToK(dim, rho)
		for _, p := range []int{2, 4, 8} {
			vecs := benchRankVectors(p, dim, k)
			b.Run(fmt.Sprintf("rho=%g/P=%d", rho, p), func(b *testing.B) {
				fab, err := transport.NewInProc(p)
				if err != nil {
					b.Fatal(err)
				}
				defer fab.Close()
				comms := make([]*collective.Comm, p)
				outs := make([]sparse.Vector, p)
				for r := range comms {
					comms[r] = collective.New(fab.Conn(r))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for r := range comms {
						wg.Add(1)
						go func(rank int) {
							defer wg.Done()
							if err := GTopKInto(context.Background(), comms[rank], nil, vecs[rank], k, &outs[rank]); err != nil {
								b.Error(err)
							}
						}(r)
					}
					wg.Wait()
				}
			})
		}
	}
}

func BenchmarkTopKAllReduce(b *testing.B) {
	const dim, rho = 100_000, 0.001
	k := DensityToK(dim, rho)
	for _, p := range []int{2, 4, 8} {
		vecs := benchRankVectors(p, dim, k)
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			fab, err := transport.NewInProc(p)
			if err != nil {
				b.Fatal(err)
			}
			defer fab.Close()
			comms := make([]*collective.Comm, p)
			outs := make([]sparse.Vector, p)
			for r := range comms {
				comms[r] = collective.New(fab.Conn(r))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for r := range comms {
					wg.Add(1)
					go func(rank int) {
						defer wg.Done()
						if err := TopKUnionInto(context.Background(), comms[rank], vecs[rank], &outs[rank]); err != nil {
							b.Error(err)
						}
					}(r)
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkSelectStep1M is one rank's local half of a sel-inproc step —
// momentum fold, residual add and top-k select at dim 10^6, k = 1000 —
// through Sparsifier.SelectMomentum, with a put-back of every other
// selected entry so the residual evolves as it does in training. The
// dense-selection kernel alone is sparse's BenchmarkTopK1M; comm-tcp's
// select (n = 10^5, k = 2 000) with its candidate count is sparse's
// BenchmarkTopKAccumulate100k.
func BenchmarkSelectStep1M(b *testing.B) {
	const dim, k, mu = 1_000_000, 1000, 0.9
	src := prng.New(1)
	grad := make([]float32, dim)
	for i := range grad {
		grad[i] = float32(src.NormFloat64())
	}
	sp := NewSparsifier(dim)
	velocity := make([]float32, dim)
	var global []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, err := sp.SelectMomentum(mu, velocity, grad, k)
		if err != nil {
			b.Fatal(err)
		}
		global = global[:0]
		for j := 0; j < sel.NNZ(); j += 2 {
			global = append(global, sel.Indices[j])
		}
		sp.PutBack(sel, global)
	}
}

// poolDropsPuts reports whether sync.Pool is discarding Puts — the race
// detector drops a quarter of them at random — which makes every
// allocation count that leans on the vector and buffer pools
// nondeterministic.
func poolDropsPuts() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// TestAggregateAllocCeiling is the aggregator-level companion of
// sparse's TestMergeLoopZeroAlloc: one steady-state Aggregate (P=1, v1)
// allocates nothing for the flat and the hierarchical aggregator and the
// three baselines — the selection lands in the sparsifier's reused
// result vector, the plan's result in the round's, the mean update is
// rebuilt in place — and twice for a two-bucket pipeline (the two bucket
// goroutines). The shared round must not add a per-step allocation to
// any of them.
func TestAggregateAllocCeiling(t *testing.T) {
	if poolDropsPuts() {
		t.Skip("sync.Pool drops puts (race mode); allocation counts are not deterministic")
	}
	const dim, k = 4096, 64
	grad, _ := makeWorkerVectors(5, 1, dim, k)
	for _, tc := range []struct {
		name    string
		ceiling float64
		build   func(c *collective.Comm) (Aggregator, error)
	}{
		{"gtopk", 0, func(c *collective.Comm) (Aggregator, error) { return NewGTopKAggregator(c, dim, k) }},
		{"hierarchical", 0, func(c *collective.Comm) (Aggregator, error) { return NewHierarchicalAggregator(c, dim, k, 1) }},
		{"topk", 0, func(c *collective.Comm) (Aggregator, error) { return NewTopKAggregator(c, dim, k) }},
		{"gtopk-naive", 0, func(c *collective.Comm) (Aggregator, error) { return NewNaiveGTopKAggregator(c, dim, k) }},
		{"gtopk-ps", 0, func(c *collective.Comm) (Aggregator, error) { return NewPSGTopKAggregator(c, dim, k) }},
		{"bucketed-2", 2, func(c *collective.Comm) (Aggregator, error) {
			return NewBucketedAggregator(c, []int{0, dim / 2, dim}, float64(k)/dim)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			agg, err := tc.build(newSingleRankComm(t))
			if err != nil {
				t.Fatal(err)
			}
			step := func() {
				if _, err := agg.Aggregate(context.Background(), grad[0]); err != nil {
					t.Fatal(err)
				}
			}
			step() // warm the pools and the reusable result vectors
			if allocs := testing.AllocsPerRun(50, step); allocs > tc.ceiling {
				t.Fatalf("Aggregate allocates %v times per step, ceiling %v", allocs, tc.ceiling)
			}
		})
	}
}

// TestCollectiveAllocFree pins the steady state of the whole flat
// collective, of the hierarchy (G=4) and of the parameter server's plan
// at zero allocations on both fabrics: reduce frames go back to the pool
// at their receiver, and so does every broadcast frame — a root keeps
// the one frame it encoded or received and sends each child a pooled
// copy. P=8 exercises the swap, both roots, a root with several
// children and a relay; the hierarchy adds the group gather, its fold
// and the leader's fan-out; the parameter server a gather of every rank
// at one root, its Σ fold and a fan-out to every rank.
func TestCollectiveAllocFree(t *testing.T) {
	if poolDropsPuts() {
		t.Skip("sync.Pool drops puts (race mode); allocation counts are not deterministic")
	}
	const p, dim, k = 8, 4096, 300
	_, vecs := makeWorkerVectors(9, p, dim, k)
	for _, tc := range []struct{ name, fabric string }{
		{"inproc", "inproc"}, {"tcp", "tcp"}, {"hier-inproc", "inproc"}, {"hier-tcp", "tcp"},
		{"ps-inproc", "inproc"}, {"ps-tcp", "tcp"},
	} {
		fabric, hier, ps := tc.fabric, strings.HasPrefix(tc.name, "hier"), strings.HasPrefix(tc.name, "ps")
		t.Run(tc.name, func(t *testing.T) {
			var f transport.Fabric
			var err error
			if fabric == "tcp" {
				f, err = transport.NewTCP(p)
			} else {
				f, err = transport.NewInProc(p)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// Persistent rank goroutines, so the measured step spawns
			// nothing.
			start := make([]chan struct{}, p)
			errs := make([]error, p)
			var wg sync.WaitGroup
			for r := range start {
				start[r] = make(chan struct{})
				go func(rank int) {
					comm, out := collective.New(f.Conn(rank)), &sparse.Vector{}
					var gc *collective.GroupComms
					var star *GTopKAggregator
					if hier {
						gc, errs[rank] = ForkHier(comm, 4)
					}
					if ps {
						star, errs[rank] = NewPSGTopKAggregator(comm, dim, k)
					}
					for range start[rank] {
						var err error
						if ps {
							err = runLevels(context.Background(), comm, &star.plan, vecs[rank], k, out)
						} else {
							err = GTopKInto(context.Background(), comm, gc, vecs[rank], k, out)
						}
						if err != nil {
							errs[rank] = err
						}
						foldHierStats(comm, gc)
						wg.Done()
					}
				}(r)
			}
			step := func() {
				wg.Add(p)
				for _, c := range start {
					c <- struct{}{}
				}
				wg.Wait()
			}
			// Warm the pools and the reusable result vectors under the one
			// P AllocsPerRun measures on: which frames are live at once
			// depends on the interleaving, and the pools grow to the
			// largest such set once.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			for i := 0; i < 50; i++ {
				step()
			}
			allocs := testing.AllocsPerRun(50, step)
			for _, c := range start {
				close(c)
			}
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rank, err)
				}
			}
			if allocs > 0 {
				t.Fatalf("a steady-state P=%d %s collective allocates %v times", p, tc.name, allocs)
			}
		})
	}
}
