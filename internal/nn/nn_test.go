package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gtopkssgd/internal/tensor"
)

func TestNetworkParamBinding(t *testing.T) {
	net := NewNetwork(NewDense(3, 4), NewReLU(), NewDense(4, 2))
	wantParams := 3*4 + 4 + 4*2 + 2
	if net.ParamCount() != wantParams {
		t.Fatalf("ParamCount = %d, want %d", net.ParamCount(), wantParams)
	}
	net.Init(1)
	// Mutating the flat parameter vector must change layer behaviour:
	// zero everything and the output must be zero.
	for i := range net.Parameters() {
		net.Parameters()[i] = 0
	}
	x := tensor.FromSlice(1, 3, []float32{1, 2, 3})
	out := net.Forward(x, false)
	for _, v := range out.Data {
		if v != 0 {
			t.Fatalf("zeroed network produced %v", out.Data)
		}
	}
}

func TestNetworkInitDeterministic(t *testing.T) {
	a := NewNetwork(NewDense(5, 5))
	b := NewNetwork(NewDense(5, 5))
	a.Init(9)
	b.Init(9)
	for i := range a.Parameters() {
		if a.Parameters()[i] != b.Parameters()[i] {
			t.Fatal("same seed produced different parameters")
		}
	}
	c := NewNetwork(NewDense(5, 5))
	c.Init(10)
	same := true
	for i := range a.Parameters() {
		if a.Parameters()[i] != c.Parameters()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical parameters")
	}
}

func TestNetworkZeroGrad(t *testing.T) {
	net := NewNetwork(NewDense(2, 2))
	net.Init(1)
	x := tensor.FromSlice(1, 2, []float32{1, 1})
	out := net.Forward(x, true)
	_, dl := SoftmaxCrossEntropy(out, []int{0})
	net.Backward(dl)
	net.ZeroGrad()
	for _, g := range net.Gradients() {
		if g != 0 {
			t.Fatal("ZeroGrad left nonzero gradient")
		}
	}
}

func TestLayerBounds(t *testing.T) {
	net := NewNetwork(NewDense(3, 4), NewReLU(), NewDense(4, 2), NewReLU())
	got := net.LayerBounds()
	want := []int{0, 16, 26}
	if len(got) != len(want) {
		t.Fatalf("bounds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", got, want)
		}
	}
}

func TestSummaryListsLayers(t *testing.T) {
	net := NewNetwork(NewDense(3, 4), NewReLU())
	s := net.Summary()
	if !strings.Contains(s, "dense 3→4") || !strings.Contains(s, "relu") {
		t.Fatalf("summary missing layers:\n%s", s)
	}
	if !strings.Contains(s, "16 params") {
		t.Fatalf("summary missing counts:\n%s", s)
	}
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln(4).
	logits := tensor.FromSlice(1, 4, []float32{0, 0, 0, 0})
	loss, grad := SoftmaxCrossEntropy(logits, []int{2})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss = %v, want ln4", loss)
	}
	// Gradient: p - onehot = [.25 .25 -.75 .25].
	want := []float32{0.25, 0.25, -0.75, 0.25}
	for i, v := range grad.Data {
		if math.Abs(float64(v-want[i])) > 1e-6 {
			t.Fatalf("grad = %v, want %v", grad.Data, want)
		}
	}
}

func TestSoftmaxCrossEntropyNumericallyStable(t *testing.T) {
	logits := tensor.FromSlice(1, 2, []float32{1000, -1000})
	loss, grad := SoftmaxCrossEntropy(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
	for _, v := range grad.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("NaN gradient")
		}
	}
}

func TestSoftmaxCrossEntropyPanicsOnBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad label did not panic")
		}
	}()
	SoftmaxCrossEntropy(tensor.NewMatrix(1, 3), []int{7})
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice(3, 2, []float32{
		2, 1, // -> 0
		0, 5, // -> 1
		3, 4, // -> 1
	})
	if got := Accuracy(logits, []int{0, 1, 0}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("accuracy = %v", got)
	}
	if Accuracy(tensor.NewMatrix(0, 2), nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestPerplexity(t *testing.T) {
	if got := Perplexity(math.Log(64)); math.Abs(got-64) > 1e-9 {
		t.Fatalf("Perplexity(ln64) = %v", got)
	}
}

func TestReLUForwardBackwardShapes(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice(1, 4, []float32{-1, 2, -3, 4})
	out := r.Forward(x, true)
	want := []float32{0, 2, 0, 4}
	for i, v := range out.Data {
		if v != want[i] {
			t.Fatalf("relu = %v", out.Data)
		}
	}
	din := r.Backward(tensor.FromSlice(1, 4, []float32{1, 1, 1, 1}))
	wantD := []float32{0, 1, 0, 1}
	for i, v := range din.Data {
		if v != wantD[i] {
			t.Fatalf("relu backward = %v", din.Data)
		}
	}
}

func TestDensePanicsOnBadShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad input width did not panic")
		}
	}()
	d := NewDense(3, 2)
	net := NewNetwork(d)
	net.Init(1)
	d.Forward(tensor.NewMatrix(1, 5), true)
}

func TestConvGeometry(t *testing.T) {
	c := NewConv2D(3, 8, 8, 16, 3, 1, 1)
	if c.OH != 8 || c.OW != 8 {
		t.Fatalf("same-pad conv output %dx%d", c.OH, c.OW)
	}
	c2 := NewConv2D(1, 6, 6, 2, 3, 2, 0)
	if c2.OH != 2 || c2.OW != 2 {
		t.Fatalf("strided conv output %dx%d", c2.OH, c2.OW)
	}
}

func TestConvPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("kernel larger than input did not panic")
		}
	}()
	NewConv2D(1, 2, 2, 1, 5, 1, 0)
}

func TestMaxPoolRequiresEvenDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd pooling dims did not panic")
		}
	}()
	NewMaxPool2(1, 3, 4)
}

func TestLSTMRejectsBadInput(t *testing.T) {
	m := NewLSTMLM(4, 2, 3)
	m.Init(1)
	if _, err := m.Loss(nil, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := m.Loss([][]int{{0, 1}}, [][]int{{0}}); err == nil {
		t.Error("ragged targets accepted")
	}
	if _, err := m.Loss([][]int{{9}}, [][]int{{0}}); err == nil {
		t.Error("out-of-vocab token accepted")
	}
	if _, err := m.Loss([][]int{{0}}, [][]int{{9}}); err == nil {
		t.Error("out-of-vocab target accepted")
	}
}

func TestLSTMDeterministicLoss(t *testing.T) {
	mk := func() float64 {
		m := NewLSTMLM(8, 4, 6)
		m.Init(3)
		m.ZeroGrad()
		loss, err := m.Loss([][]int{{1, 2, 3}}, [][]int{{2, 3, 4}})
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}
	if mk() != mk() {
		t.Fatal("LSTM loss not deterministic")
	}
}

func TestResidualRequiresShapePreservingBody(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape-changing body did not panic")
		}
	}()
	r := NewResidual(NewDense(4, 6))
	net := NewNetwork(r)
	net.Init(1)
	r.Forward(tensor.NewMatrix(1, 4), true)
}

// TestWorkspacesFollowBatchSize drives one network through batch sizes
// 4 → 9 → 2 (train, evaluate, train again, as a training loop with
// held-out evaluation does) and holds every output and the final
// gradient to those of a fresh copy of the network that only ever saw
// that one batch: a reused workspace must not leak a stale row, a stale
// zero-padding cell or a stale pooling gradient into a later call.
func TestWorkspacesFollowBatchSize(t *testing.T) {
	build := func() *Network {
		net := NewNetwork(
			NewConv2D(2, 6, 6, 4, 3, 1, 1),
			NewReLU(),
			NewMaxPool2(4, 6, 6), // 4×3×3
			NewResidual(NewConv2D(4, 3, 3, 4, 3, 1, 1), NewReLU(), NewConv2D(4, 3, 3, 4, 3, 1, 1)),
			NewGlobalAvgPool(4, 3, 3),
			NewDense(4, 3),
		)
		net.Init(5)
		return net
	}
	reused := build()
	sameBits := func(what string, got, want []float32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: element %d = %v, a fresh network gives %v", what, i, got[i], want[i])
			}
		}
	}
	for step, batch := range []int{4, 9, 2} {
		train := batch != 9
		x, labels := randInput(uint64(10+step), batch, 2*6*6)
		fresh := build()
		got, want := reused.Forward(x, train), fresh.Forward(x, train)
		if got.Rows != batch || got.Cols != 3 {
			t.Fatalf("batch %d: output %dx%d", batch, got.Rows, got.Cols)
		}
		sameBits(fmt.Sprintf("batch %d output", batch), got.Data, want.Data)
		if !train {
			continue
		}
		reused.ZeroGrad()
		_, dGot := reused.SoftmaxCrossEntropy(got, labels)
		_, dWant := SoftmaxCrossEntropy(want, labels)
		sameBits(fmt.Sprintf("batch %d loss gradient", batch), dGot.Data, dWant.Data)
		reused.Backward(dGot)
		fresh.Backward(dWant)
		sameBits(fmt.Sprintf("batch %d gradient", batch), reused.Gradients(), fresh.Gradients())
	}
}

// TestFirstLayerRule: a network's first Dense or Conv2D builds no input
// gradient — nothing reads it — and every parameter gradient is the same
// bits as when it does. The second network of each pair is told the
// opposite after NewNetwork, as if the rule did not exist.
func TestFirstLayerRule(t *testing.T) {
	builds := []struct {
		name  string
		cols  int
		build func() (*Network, Layer)
	}{
		{"dense first", 12, func() (*Network, Layer) {
			first := NewDense(12, 16)
			return NewNetwork(first, NewReLU(), NewDense(16, 8), NewReLU(), NewDense(8, 3)), first
		}},
		{"conv first", 2 * 4 * 4, func() (*Network, Layer) {
			first := NewConv2D(2, 4, 4, 3, 3, 1, 1)
			return NewNetwork(first, NewReLU(), NewMaxPool2(3, 4, 4), NewDense(3*2*2, 3)), first
		}},
	}
	inputGrad := func(l Layer) *tensor.Matrix {
		switch l := l.(type) {
		case *Dense:
			return l.din
		case *Conv2D:
			return l.din
		}
		panic("not a Dense or Conv2D")
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			skipping, skipper := b.build()
			building, builder := b.build()
			switch l := builder.(type) {
			case *Dense:
				l.first = false
			case *Conv2D:
				l.first = false
			}
			skipping.Init(3)
			building.Init(3)
			for step := 0; step < 3; step++ {
				x, labels := randInput(uint64(40+step), 5, b.cols)
				for _, net := range []*Network{skipping, building} {
					net.ZeroGrad()
					_, d := net.SoftmaxCrossEntropy(net.Forward(x, true), labels)
					net.Backward(d)
				}
				for i, g := range skipping.Gradients() {
					if math.Float32bits(g) != math.Float32bits(building.Gradients()[i]) {
						t.Fatalf("step %d: gradient %d = %v without the input gradient, %v with it",
							step, i, g, building.Gradients()[i])
					}
				}
			}
			if inputGrad(skipper) != nil {
				t.Fatal("the first layer built an input gradient")
			}
			if inputGrad(builder) == nil {
				t.Fatal("the layer told to build its input gradient did not")
			}
		})
	}
}
