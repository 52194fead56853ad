package models

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"gtopkssgd/internal/core"
	"gtopkssgd/internal/data"
	"gtopkssgd/internal/tensor"
)

// Values the compiler cannot fold, for fusesMulAdd.
var fmaX, fmaZ = float32(1 + 0x1p-12), float32(-1)

// fusesMulAdd reports whether this build rounds x*y + z once (arm64,
// GOAMD64=v3, ...) instead of twice: x*x is 1 + 2⁻¹¹ + 2⁻²⁴, whose last
// term a separate float32 multiply rounds away.
func fusesMulAdd() bool { return fmaX*fmaX+fmaZ != 0x1p-11 }

// trainBits runs steps of plain SGD on one worker and hashes every loss
// and the final weights, bit for bit. extra, if set, runs between the
// last step and one more step (an evaluation at another batch size) and
// returns more bits to hash.
func trainBits(t *testing.T, grad core.GradFn, w []float32, steps int, lr, clip float32, extra func() float64) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	g := make([]float32, len(w))
	step := func(iter int) {
		loss := grad(iter, w, g)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("step %d: loss %v", iter, loss)
		}
		put64(math.Float64bits(loss))
		if clip > 0 {
			tensor.Clip(g, clip)
		}
		tensor.AxpyInto(w, -lr, g)
	}
	for iter := 0; iter < steps; iter++ {
		step(iter)
	}
	if extra != nil {
		put64(math.Float64bits(extra()))
		step(steps)
	}
	for _, v := range w {
		put64(uint64(math.Float32bits(v)))
	}
	return h.Sum64()
}

// TestTrainingBitsMatchReference pins the compute layer end to end: 50
// single-worker steps of each model family — every loss, an evaluation
// at a batch size other than the training one, one more step after it,
// and the final parameter vector — hash to what the commit before the
// blocked GEMMs and the reused layer workspaces produced (584bc71, whose
// kernels are the reference loops kept in internal/tensor's tests). The
// arithmetic is specified bit for bit, so a changed hash is a changed
// result, not noise. The recorded hashes are those of a build that rounds
// x*y + z twice (linux/amd64, GOAMD64=v1); elsewhere the test still runs
// the steps and checks they repeat.
func TestTrainingBitsMatchReference(t *testing.T) {
	ds, err := data.NewImages(5, 10, 3, 8, 8, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := data.NewText(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	image := func(mk func() *Classifier) func() uint64 {
		return func() uint64 {
			cls := mk()
			cls.Net.Init(42)
			return trainBits(t, GradFn(cls, ds, 0, 1, 16), cls.Net.Parameters(), 50, 0.05, 0,
				func() float64 { return EvalAccuracy(cls, ds, 2, 40) })
		}
	}
	tests := []struct {
		name string
		run  func() uint64
		want uint64
	}{
		{"vgg16sim", image(VGG16Sim), 0x2b1038861e91b412},
		{"resnet20sim", image(ResNet20Sim), 0x8e6661ec269100ed},
		{"alexnetsim-streamed", func() uint64 {
			dsAlex, err := data.NewImages(5, 10, 3, 16, 16, 0.4)
			if err != nil {
				t.Fatal(err)
			}
			cls := AlexNetSim()
			cls.Net.Init(42)
			stream := StreamGradFn(cls, dsAlex, 0, 1, 5)
			grad := func(iter int, w, g []float32) float64 {
				return stream(iter, w, g, func(lo, hi int) {})
			}
			return trainBits(t, grad, cls.Net.Parameters(), 12, 0.05, 0, nil)
		}, 0x9f562df6487cfcc},
		{"lstm", func() uint64 {
			m := LSTMPTBSim()
			m.Init(11)
			return trainBits(t, LSTMGradFn(m, corpus, 0, 1, 8, 12), m.Parameters(), 50, 1, 0.25, nil)
		}, 0x66dc15bc823fd163},
	}
	pinned := runtime.GOARCH == "amd64" && !fusesMulAdd()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.run()
			if !pinned {
				if again := tt.run(); again != got {
					t.Fatalf("two identical runs hash differently: %#x vs %#x", got, again)
				}
			} else if got != tt.want {
				t.Fatalf("hash %#x, reference %#x: a loss or a weight changed bits", got, tt.want)
			}
		})
	}
}
