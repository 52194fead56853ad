package models

import (
	"context"
	"math"
	"testing"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/data"
	"gtopkssgd/internal/nn"
	"gtopkssgd/internal/tensor"
)

func TestModelShapesAndForward(t *testing.T) {
	ds, err := data.NewImages(1, 10, 3, 8, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dsAlex, err := data.NewImages(1, 10, 3, 16, 16, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		cls *Classifier
		ds  *data.Images
	}{
		{VGG16Sim(), ds},
		{ResNet20Sim(), ds},
		{ResNet50Sim(), ds},
		{AlexNetSim(), dsAlex},
		{MLP(3*8*8, 32, 10), ds},
	}
	for _, tt := range tests {
		t.Run(tt.cls.Name, func(t *testing.T) {
			tt.cls.Net.Init(42)
			if tt.cls.Net.ParamCount() < 100 {
				t.Fatalf("suspiciously few params: %d", tt.cls.Net.ParamCount())
			}
			x, labels := tensor.NewMatrix(4, tt.ds.Dim()), make([]int, 4)
			tt.ds.BatchInto(x, labels, 0, 0, 1)
			logits := tt.cls.Net.Forward(x, true)
			if logits.Rows != 4 || logits.Cols != tt.cls.Classes {
				t.Fatalf("logits %dx%d", logits.Rows, logits.Cols)
			}
			loss, dlogits := nn.SoftmaxCrossEntropy(logits, labels)
			if loss <= 0 || loss > 20 {
				t.Fatalf("initial loss %v out of sane range", loss)
			}
			tt.cls.Net.ZeroGrad()
			tt.cls.Net.Backward(dlogits)
			var nonzero int
			for _, g := range tt.cls.Net.Gradients() {
				if g != 0 {
					nonzero++
				}
			}
			if nonzero < tt.cls.Net.ParamCount()/10 {
				t.Fatalf("only %d/%d gradients nonzero", nonzero, tt.cls.Net.ParamCount())
			}
		})
	}
}

func TestVGGIsDenseHeavyResNetIsNot(t *testing.T) {
	vgg, rn := VGG16Sim(), ResNet20Sim()
	if vgg.Net.ParamCount() < 5*rn.Net.ParamCount() {
		t.Fatalf("vgg %d params should dwarf resnet %d (fc-heavy vs conv)",
			vgg.Net.ParamCount(), rn.Net.ParamCount())
	}
}

func TestSingleWorkerTrainingReducesLoss(t *testing.T) {
	ds, err := data.NewImages(5, 10, 3, 8, 8, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	cls := MLP(ds.Dim(), 32, 10)
	cls.Net.Init(7)
	results, err := core.RunCluster(context.Background(),
		core.ClusterConfig{Workers: 1, Steps: 60},
		func(rank int, comm *collective.Comm) (*core.Trainer, error) {
			agg := core.NewDenseAggregator(comm, cls.Net.ParamCount())
			return core.NewTrainer(core.TrainConfig{LR: 0.1, Momentum: 0.9}, agg,
				cls.Net.Parameters(), GradFn(cls, ds, rank, 1, 16))
		})
	if err != nil {
		t.Fatal(err)
	}
	first := avg(results[0].Losses[:10])
	last := avg(results[0].Losses[50:])
	if last > first*0.7 {
		t.Fatalf("loss did not drop: first %v last %v", first, last)
	}
}

func TestDistributedGTopKTrainingOnCNN(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker CNN training is slow")
	}
	ds, err := data.NewImages(5, 10, 3, 8, 8, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	const p, steps = 4, 40
	results, err := core.RunCluster(context.Background(),
		core.ClusterConfig{Workers: p, Steps: steps},
		func(rank int, comm *collective.Comm) (*core.Trainer, error) {
			cls := ResNet20Sim()
			cls.Net.Init(99) // same seed everywhere: identical replicas
			dim := cls.Net.ParamCount()
			agg, err := core.NewGTopKAggregator(comm, dim, core.DensityToK(dim, 0.01))
			if err != nil {
				return nil, err
			}
			return core.NewTrainer(core.TrainConfig{LR: 0.05, Momentum: 0.9}, agg,
				cls.Net.Parameters(), GradFn(cls, ds, rank, p, 8))
		})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < p; r++ {
		for i := range results[0].FinalWeights {
			if results[r].FinalWeights[i] != results[0].FinalWeights[i] {
				t.Fatalf("replica %d diverged at weight %d", r, i)
			}
		}
	}
	first := avg(results[0].Losses[:5])
	last := avg(results[0].Losses[steps-5:])
	if last > first {
		t.Fatalf("gTop-k CNN training diverged: first %v last %v", first, last)
	}
}

func TestLSTMTrainingReducesLoss(t *testing.T) {
	corpus, err := data.NewText(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	m := LSTMPTBSim()
	m.Init(11)
	const steps = 120
	results, err := core.RunCluster(context.Background(),
		core.ClusterConfig{Workers: 1, Steps: steps},
		func(rank int, comm *collective.Comm) (*core.Trainer, error) {
			agg := core.NewDenseAggregator(comm, m.ParamCount())
			return core.NewTrainer(core.TrainConfig{LR: 2.0, GradClip: 0.25}, agg,
				m.Parameters(), LSTMGradFn(m, corpus, rank, 1, 16, 16))
		})
	if err != nil {
		t.Fatal(err)
	}
	first := avg(results[0].Losses[:5])
	last := avg(results[0].Losses[steps-10:])
	if last > first*0.9 {
		t.Fatalf("LSTM loss did not drop: first %v last %v", first, last)
	}
	if pp := nn.Perplexity(last); pp >= 64 {
		t.Fatalf("perplexity %v not below vocab size", pp)
	}
}

func TestEvalAccuracyAboveChance(t *testing.T) {
	ds, err := data.NewImages(5, 10, 3, 8, 8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cls := MLP(ds.Dim(), 48, 10)
	cls.Net.Init(13)
	results, err := core.RunCluster(context.Background(),
		core.ClusterConfig{Workers: 1, Steps: 150},
		func(rank int, comm *collective.Comm) (*core.Trainer, error) {
			agg := core.NewDenseAggregator(comm, cls.Net.ParamCount())
			return core.NewTrainer(core.TrainConfig{LR: 0.1, Momentum: 0.9}, agg,
				cls.Net.Parameters(), GradFn(cls, ds, rank, 1, 16))
		})
	if err != nil {
		t.Fatal(err)
	}
	_ = results
	acc := EvalAccuracy(cls, ds, 5, 32)
	if acc < 0.3 {
		t.Fatalf("eval accuracy %v barely above chance", acc)
	}
}

func TestPaperModelsMetadata(t *testing.T) {
	pms := PaperModels()
	if len(pms) != 4 {
		t.Fatalf("expected 4 paper models, got %d", len(pms))
	}
	byName := map[string]PaperModel{}
	for _, pm := range pms {
		if pm.Params <= 0 || pm.TfTbMs <= 0 || pm.BatchPerWorker <= 0 {
			t.Errorf("%s: non-positive metadata", pm.Name)
		}
		byName[pm.Name] = pm
	}
	if byName["AlexNet"].Params <= byName["VGG-16"].Params {
		t.Error("AlexNet must have the most parameters")
	}
	if byName["ResNet-20"].Params >= byName["VGG-16"].Params {
		t.Error("ResNet-20 must be the smallest model")
	}
}

func avg(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestForwardBackwardAllocCeiling pins the steady state of the compute
// layer: once the workspaces have the batch's shape, a step — ZeroGrad,
// Forward, SoftmaxCrossEntropy, Backward — allocates nothing. Drawing the
// batch is outside the measured step here; TestGradFnStepAllocFree pins
// the whole step, batch included.
func TestForwardBackwardAllocCeiling(t *testing.T) {
	ds, err := data.NewImages(5, 10, 3, 8, 8, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for _, cls := range []*Classifier{VGG16Sim(), ResNet20Sim()} {
		cls.Net.Init(42)
		x, labels := tensor.NewMatrix(16, ds.Dim()), make([]int, 16)
		ds.BatchInto(x, labels, 0, 0, 1)
		step := func() {
			cls.Net.ZeroGrad()
			logits := cls.Net.Forward(x, true)
			_, dlogits := cls.Net.SoftmaxCrossEntropy(logits, labels)
			cls.Net.Backward(dlogits)
		}
		step()
		if allocs := testing.AllocsPerRun(10, step); allocs > 0 {
			t.Errorf("%s: %v allocations per forward+backward step, want 0", cls.Name, allocs)
		}
	}
}

// TestGradFnStepAllocFree pins a whole warmed-up step of the trainer's
// gradient functions — drawing the batch into the one the closure owns,
// forward, loss, backward, copying the gradient out — at zero
// allocations, for the plain and the streamed form.
func TestGradFnStepAllocFree(t *testing.T) {
	ds, err := data.NewImages(5, 10, 3, 8, 8, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	cls := VGG16Sim()
	cls.Net.Init(42)
	w := cls.Net.Parameters()
	g := make([]float32, len(w))
	grad := GradFn(cls, ds, 1, 4, 16)
	stream := StreamGradFn(cls, ds, 1, 4, 16)
	ready := func(lo, hi int) {}
	iter := 0
	steps := map[string]func(){
		"GradFn":       func() { grad(iter, w, g); iter++ },
		"StreamGradFn": func() { stream(iter, w, g, ready); iter++ },
	}
	for name, step := range steps {
		step()
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			t.Errorf("%s: %v allocations per warmed-up step, want 0", name, allocs)
		}
	}
}

// TestGradFnsWriteEveryEntry holds the adapters to the contract the
// trainer relies on, since it does not zero the gradient between steps:
// over a gradient buffer filled with NaN, GradFn, StreamGradFn and
// LSTMGradFn leave no NaN behind, and StreamGradFn announces ranges that
// tile [0, dim) exactly, each written by the time it is announced.
func TestGradFnsWriteEveryEntry(t *testing.T) {
	ds, err := data.NewImages(5, 10, 3, 8, 8, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := data.NewText(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := func(n int) []float32 {
		g := make([]float32, n)
		for i := range g {
			g[i] = float32(math.NaN())
		}
		return g
	}
	written := func(label string, g []float32, off int) {
		t.Helper()
		for i, v := range g {
			if math.IsNaN(float64(v)) {
				t.Fatalf("%s left grad[%d] unwritten", label, off+i)
			}
		}
	}
	for _, mk := range []func() *Classifier{VGG16Sim, ResNet20Sim, func() *Classifier { return MLP(ds.Dim(), 32, 10) }} {
		cls := mk()
		cls.Net.Init(42)
		w, dim := cls.Net.Parameters(), cls.Net.ParamCount()
		for iter := 0; iter < 2; iter++ {
			g := poisoned(dim)
			GradFn(cls, ds, 0, 1, 4)(iter, w, g)
			written(cls.Name+" GradFn", g, 0)

			g = poisoned(dim)
			covered := make([]int, dim)
			StreamGradFn(cls, ds, 0, 1, 4)(iter, w, g, func(lo, hi int) {
				written(cls.Name+" StreamGradFn at its announcement", g[lo:hi], lo)
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			})
			for i, n := range covered {
				if n != 1 {
					t.Fatalf("%s StreamGradFn announced grad[%d] %d times, want once", cls.Name, i, n)
				}
			}
		}
	}
	m := LSTMPTBSim()
	m.Init(11)
	for iter := 0; iter < 2; iter++ {
		g := poisoned(len(m.Parameters()))
		LSTMGradFn(m, corpus, 0, 1, 8, 12)(iter, m.Parameters(), g)
		written("LSTMGradFn", g, 0)
	}
}
