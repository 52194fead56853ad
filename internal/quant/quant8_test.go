package quant_test

import (
	"context"
	"math"
	"testing"

	"gtopkssgd/internal/algo"
	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/quant"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// TestQuantizedGTopKConvergesAndCompresses pins what -algo gtopk-quant8
// is: gtopk over the v3-qsgd8 codec, its bytes counted on the wire. Built
// by name it sends exactly the bytes from rank 0 (Comm.Stats().BytesSent)
// that gtopk with an attached v3-qsgd8 stack sends, ends on the same
// replicas bit for bit, converges, and sends fewer bytes than gtopk over
// lossless v3 frames.
func TestQuantizedGTopKConvergesAndCompresses(t *testing.T) {
	const p, dim, steps, seed = 4, 64, 400, 13
	src := prng.New(99)
	target := make([]float32, dim)
	for i := range target {
		target[i] = float32(src.NormFloat64())
	}
	run := func(codec sparse.Codec, build func(*collective.Comm) (core.Aggregator, error)) []*core.WorkerResult {
		t.Helper()
		fab, err := transport.NewInProcWire(p, codec.WireVersion())
		if err != nil {
			t.Fatal(err)
		}
		defer fab.Close() //nolint:errcheck // in-process close never fails
		results, err := core.RunCluster(context.Background(), core.ClusterConfig{Workers: p, Steps: steps, Fabric: fab},
			func(_ int, comm *collective.Comm) (*core.Trainer, error) {
				agg, err := build(comm)
				if err != nil {
					return nil, err
				}
				gradFn := func(_ int, weights, grad []float32) float64 {
					var loss float64
					for i := range weights {
						d := weights[i] - target[i]
						grad[i] = d
						loss += 0.5 * float64(d) * float64(d)
					}
					return loss / dim
				}
				return core.NewTrainer(core.TrainConfig{LR: 0.05}, agg, make([]float32, dim), gradFn)
			})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	gtopkOver := func(codec sparse.Codec) func(*collective.Comm) (core.Aggregator, error) {
		return func(comm *collective.Comm) (core.Aggregator, error) {
			quant.AttachStack(comm, codec, seed)
			return core.NewGTopKAggregator(comm, dim, 6)
		}
	}
	byName := run(sparse.CodecV3Q8, func(comm *collective.Comm) (core.Aggregator, error) {
		return algo.Build(algo.Spec{Algo: "gtopk-quant8", Density: 0.1, Seed: seed}, comm, dim, []int{0, dim})
	})
	composed := run(sparse.CodecV3Q8, gtopkOver(sparse.CodecV3Q8))
	lossless := run(sparse.CodecV3, gtopkOver(sparse.CodecV3))

	sent := byName[0].CommStats.BytesSent
	if want := composed[0].CommStats.BytesSent; sent != want {
		t.Fatalf("gtopk-quant8 rank 0 sent %d bytes, gtopk over v3-qsgd8 %d", sent, want)
	}
	if full := lossless[0].CommStats.BytesSent; sent >= full {
		t.Fatalf("gtopk-quant8 sent %d bytes, not fewer than lossless v3's %d", sent, full)
	}
	for r := range byName {
		for i, w := range byName[r].FinalWeights {
			if math.Float32bits(w) != math.Float32bits(composed[0].FinalWeights[i]) {
				t.Fatalf("rank %d weight %d: %v, gtopk over v3-qsgd8 rank 0 %v", r, i, w, composed[0].FinalWeights[i])
			}
		}
	}
	if first, last := byName[0].Losses[0], byName[0].Losses[steps-1]; last > first/5 {
		t.Fatalf("gtopk-quant8 did not converge: %v -> %v", first, last)
	}
}
