package gtopkssgd

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/quant"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/trace"
	"gtopkssgd/internal/transport"
)

func TestPublicQuantAggregators(t *testing.T) {
	const p, dim = 4, 32
	src := prng.New(4)
	target := make([]float32, dim)
	for i := range target {
		target[i] = float32(src.NormFloat64())
	}
	gradFn := func(_ int, weights, grad []float32) float64 {
		var loss float64
		for i := range weights {
			d := weights[i] - target[i]
			grad[i] = d
			loss += float64(d) * float64(d)
		}
		return loss / dim
	}
	for _, algo := range []string{"signsgd", "terngrad", "gtopk-quant8"} {
		t.Run(algo, func(t *testing.T) {
			cfg := ClusterConfig{Workers: p, Steps: 150}
			if algo == "gtopk-quant8" {
				// gtopk-quant8 is gtopk over the v3-qsgd8 codec.
				fab, err := transport.NewInProcWire(p, transport.WireV3)
				if err != nil {
					t.Fatal(err)
				}
				defer fab.Close() //nolint:errcheck // in-process close never fails
				cfg.Fabric = fab
			}
			results, err := RunCluster(context.Background(), cfg,
				func(rank int, comm *Comm) (*Trainer, error) {
					var (
						agg Aggregator
						err error
					)
					switch algo {
					case "signsgd":
						agg = quant.NewSignSGDAggregator(comm, dim)
					case "terngrad":
						agg = quant.NewTernGradAggregator(comm, dim, 9)
					case "gtopk-quant8":
						comm.SetCompressor(quant.NewStack(sparse.ValueQ8, 9).Fork(uint64(rank)))
						agg, err = NewGTopKAggregator(comm, dim, 4)
					}
					if err != nil {
						return nil, err
					}
					lr := float32(0.05)
					if algo == "signsgd" {
						lr = 0.02
					}
					return NewTrainer(TrainConfig{LR: lr}, agg, make([]float32, dim), gradFn)
				})
			if err != nil {
				t.Fatal(err)
			}
			first, last := results[0].Losses[0], results[0].Losses[149]
			if last > first/2 {
				t.Fatalf("%s did not make progress: %v -> %v", algo, first, last)
			}
		})
	}
}

func TestPublicCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.ckpt")
	s := &CheckpointState{
		Iter:     7,
		Weights:  []float32{1, 2, 3},
		Velocity: []float32{4, 5, 6},
		Residual: []float32{7, 8, 9},
		Meta:     map[string]string{"model": "mlp"},
	}
	if err := SaveCheckpoint(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 7 || got.Weights[2] != 3 || got.Meta["model"] != "mlp" {
		t.Fatalf("round trip altered state: %+v", got)
	}
}

func TestPublicTraceRecorderViaHook(t *testing.T) {
	fabric, err := transport.NewInProc(1)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	agg := NewDenseAggregator(collective.New(fabric.Conn(0)), 2)
	tr, err := NewTrainer(TrainConfig{LR: 0.1}, agg, make([]float32, 2),
		func(_ int, _, grad []float32) float64 { grad[0], grad[1] = 1, 0; return 0 })
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	tr.SetPhaseHook(func(iter int, pt core.PhaseTimes) {
		rec.Record(iter, "compute", pt.Compute)
		rec.Record(iter, "aggregate", pt.Aggregate)
	})
	for i := 0; i < 3; i++ {
		if _, err := tr.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Len() != 6 {
		t.Fatalf("recorded %d events, want 6", rec.Len())
	}
	totals := rec.Totals()
	if totals["aggregate"] <= 0 || totals["aggregate"] > time.Second {
		t.Fatalf("implausible aggregate total %v", totals["aggregate"])
	}
}

func TestPublicMultiProcessWorkerAPI(t *testing.T) {
	// Single-rank worker mesh is a degenerate but valid deployment.
	conn, err := transport.JoinMesh(context.Background(), transport.MeshConfig{Addrs: []string{"127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Size() != 1 {
		t.Fatalf("size = %d", conn.Size())
	}
}

// TestPublicHierarchicalSurface drives the hierarchical collective and
// aggregator over communicators on an in-process fabric: the G=P
// degenerate must match GTopKAllReduceInto bit for bit, and the real two-level regime must keep
// replicas identical.
func TestPublicHierarchicalSurface(t *testing.T) {
	const p, g, dim, k = 4, 2, 100, 5
	fabric, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()

	locals := make([]*sparse.Vector, p)
	for r := range locals {
		src := prng.New(uint64(r + 50))
		grad := make([]float32, dim)
		for i := range grad {
			grad[i] = float32(src.NormFloat64())
		}
		locals[r] = sparse.TopK(grad, k)
	}

	run := func(group int) []*sparse.Vector {
		out := make([]*sparse.Vector, p)
		errs := make([]error, p)
		done := make(chan struct{}, p)
		for r := 0; r < p; r++ {
			go func(rank int) {
				defer func() { done <- struct{}{} }()
				comm := collective.New(fabric.Conn(rank))
				out[rank] = &sparse.Vector{}
				gc, err := core.ForkHier(comm, group)
				if err == nil {
					err = core.HierarchicalGTopKAllReduceInto(context.Background(), comm, gc, locals[rank].Clone(), k, core.ChunksFor(k), out[rank])
				}
				errs[rank] = err
			}(r)
		}
		for i := 0; i < p; i++ {
			<-done
		}
		for r, err := range errs {
			if err != nil {
				t.Fatalf("group %d rank %d: %v", group, r, err)
			}
		}
		return out
	}

	flatEquiv := run(p) // degenerate: bit-identical to the flat tree
	hier := run(g)
	for r := 1; r < p; r++ {
		for _, set := range [][]*sparse.Vector{flatEquiv, hier} {
			if set[r].NNZ() != set[0].NNZ() {
				t.Fatalf("rank %d disagrees on nnz", r)
			}
			for i := range set[0].Indices {
				if set[r].Indices[i] != set[0].Indices[i] || set[r].Values[i] != set[0].Values[i] {
					t.Fatalf("rank %d entry %d diverged", r, i)
				}
			}
		}
	}

	if _, err := core.NewHierarchicalAggregator(collective.New(fabric.Conn(0)), dim, k, 0); err == nil {
		t.Fatal("group 0 accepted")
	}
}
