package nn

import (
	"fmt"
	"math"
	"testing"

	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/tensor"
)

// numericalGrad estimates dLoss/dparams by central differences and
// compares against the analytic gradient produced by Backward. This is
// the reproduction's stand-in for trusting PyTorch autograd: every layer
// must pass it.
func gradCheck(t *testing.T, net *Network, x *tensor.Matrix, labels []int, tol float64) {
	t.Helper()
	params := net.Parameters()

	loss := func() float64 {
		out := net.Forward(x, true)
		l, _ := SoftmaxCrossEntropy(out, labels)
		return l
	}
	// Analytic gradient.
	net.ZeroGrad()
	out := net.Forward(x, true)
	_, dlogits := SoftmaxCrossEntropy(out, labels)
	net.Backward(dlogits)
	analytic := append([]float32(nil), net.Gradients()...)

	// Probe a subset of parameters (all if small).
	probe := len(params)
	stride := 1
	if probe > 200 {
		stride = probe / 200
	}
	// eps must be small enough that ReLU/max-pool kinks are rarely crossed
	// between the two evaluations, yet large enough to rise above float32
	// forward-pass noise.
	const eps = 1e-3
	probed := 0
	var failures []string
	for i := 0; i < probe; i += stride {
		probed++
		orig := params[i]
		params[i] = orig + eps
		lp := loss()
		params[i] = orig - eps
		lm := loss()
		params[i] = orig
		numeric := (lp - lm) / (2 * eps)
		diff := math.Abs(numeric - float64(analytic[i]))
		scale := math.Max(1, math.Abs(numeric)+math.Abs(float64(analytic[i])))
		if diff/scale > tol {
			failures = append(failures,
				fmt.Sprintf("param %d: analytic %v, numeric %v", i, analytic[i], numeric))
		}
	}
	// Allow a handful of kink-crossing false positives (ReLU/max-pool are
	// non-differentiable at 0); a real backward bug fails a large fraction
	// of parameters.
	if len(failures) > 1+probed/100 {
		for _, f := range failures[:min(5, len(failures))] {
			t.Error(f)
		}
		t.Fatalf("%d/%d parameters failed gradient check", len(failures), probed)
	}
}

func randInput(seed uint64, rows, cols int) (*tensor.Matrix, []int) {
	src := prng.New(seed)
	x := tensor.NewMatrix(rows, cols)
	for i := range x.Data {
		x.Data[i] = float32(src.NormFloat64())
	}
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = src.Intn(3)
	}
	return x, labels
}

func TestGradCheckDense(t *testing.T) {
	net := NewNetwork(NewDense(5, 4), NewDense(4, 3))
	net.Init(1)
	x, labels := randInput(2, 6, 5)
	gradCheck(t, net, x, labels, 1e-2)
}

func TestGradCheckDenseReLU(t *testing.T) {
	net := NewNetwork(NewDense(5, 8), NewReLU(), NewDense(8, 3))
	net.Init(3)
	x, labels := randInput(4, 6, 5)
	gradCheck(t, net, x, labels, 1e-2)
}

func TestGradCheckConv(t *testing.T) {
	// 2-channel 4x4 images, 3 filters, 3x3 kernel, same padding.
	conv := NewConv2D(2, 4, 4, 3, 3, 1, 1)
	net := NewNetwork(conv, NewReLU(), NewDense(3*4*4, 3))
	net.Init(9)
	x, labels := randInput(10, 4, 2*4*4)
	gradCheck(t, net, x, labels, 2e-2)
}

func TestGradCheckConvStride2NoPad(t *testing.T) {
	conv := NewConv2D(1, 6, 6, 2, 3, 2, 0) // -> 2x2x2
	net := NewNetwork(conv, NewDense(2*2*2, 3))
	net.Init(11)
	x, labels := randInput(12, 4, 36)
	gradCheck(t, net, x, labels, 2e-2)
}

func TestGradCheckMaxPool(t *testing.T) {
	net := NewNetwork(
		NewConv2D(1, 4, 4, 2, 3, 1, 1),
		NewMaxPool2(2, 4, 4),
		NewDense(2*2*2, 3),
	)
	net.Init(13)
	x, labels := randInput(14, 4, 16)
	gradCheck(t, net, x, labels, 2e-2)
}

func TestGradCheckGlobalAvgPool(t *testing.T) {
	net := NewNetwork(
		NewConv2D(1, 4, 4, 3, 3, 1, 1),
		NewGlobalAvgPool(3, 4, 4),
		NewDense(3, 3),
	)
	net.Init(15)
	x, labels := randInput(16, 4, 16)
	gradCheck(t, net, x, labels, 2e-2)
}

func TestGradCheckResidual(t *testing.T) {
	body := []Layer{
		NewConv2D(2, 4, 4, 2, 3, 1, 1),
		NewReLU(),
		NewConv2D(2, 4, 4, 2, 3, 1, 1),
	}
	net := NewNetwork(
		NewResidual(body...),
		NewGlobalAvgPool(2, 4, 4),
		NewDense(2, 3),
	)
	net.Init(17)
	x, labels := randInput(18, 4, 2*4*4)
	gradCheck(t, net, x, labels, 2e-2)
}

func TestGradCheckLSTM(t *testing.T) {
	m := NewLSTMLM(6, 4, 5)
	m.Init(21)
	src := prng.New(22)
	const bsz, T = 3, 4
	inputs := make([][]int, bsz)
	targets := make([][]int, bsz)
	for s := range inputs {
		inputs[s] = make([]int, T)
		targets[s] = make([]int, T)
		for t := range inputs[s] {
			inputs[s][t] = src.Intn(6)
			targets[s][t] = src.Intn(6)
		}
	}

	m.ZeroGrad()
	if _, err := m.Loss(inputs, targets); err != nil {
		t.Fatal(err)
	}
	analytic := append([]float32(nil), m.Gradients()...)

	params := m.Parameters()
	loss := func() float64 {
		m.ZeroGrad()
		l, err := m.Loss(inputs, targets)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	const eps = 1e-3
	stride := 1
	if len(params) > 300 {
		stride = len(params) / 300
	}
	probed := 0
	var failures []string
	for i := 0; i < len(params); i += stride {
		probed++
		orig := params[i]
		params[i] = orig + eps
		lp := loss()
		params[i] = orig - eps
		lm := loss()
		params[i] = orig
		numeric := (lp - lm) / (2 * eps)
		diff := math.Abs(numeric - float64(analytic[i]))
		scale := math.Max(1, math.Abs(numeric)+math.Abs(float64(analytic[i])))
		if diff/scale > 2e-2 {
			failures = append(failures,
				fmt.Sprintf("param %d: analytic %v numeric %v", i, analytic[i], numeric))
		}
	}
	if len(failures) > 1+probed/100 {
		for _, f := range failures[:min(5, len(failures))] {
			t.Error(f)
		}
		t.Fatalf("%d/%d LSTM parameters failed gradient check", len(failures), probed)
	}
}

// inputGradCheck checks a layer used on its own — bound to its own
// buffers, in no network — against central differences on its input:
// for L = Σ out ⊙ r with a fixed random r, Backward(r) must return dL/dx.
func inputGradCheck(t *testing.T, l Layer, rows, cols int, seed uint64) {
	t.Helper()
	params := make([]float32, l.ParamCount())
	l.Bind(params, make([]float32, len(params)))
	src := prng.New(seed)
	l.Init(src)
	x, _ := randInput(seed+1, rows, cols)
	out := l.Forward(x, true)
	r := tensor.NewMatrix(out.Rows, out.Cols)
	for i := range r.Data {
		r.Data[i] = float32(src.NormFloat64())
	}
	din := l.Backward(r)
	if din == nil || din.Rows != rows || din.Cols != cols {
		t.Fatalf("%s on its own: input gradient %v, want %dx%d", l.Name(), din, rows, cols)
	}
	analytic := append([]float32(nil), din.Data...)
	loss := func() float64 {
		var s float64
		for i, v := range l.Forward(x, true).Data {
			s += float64(v) * float64(r.Data[i])
		}
		return s
	}
	const eps = 1e-2
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if diff := math.Abs(numeric - float64(analytic[i])); diff > 1e-2*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("%s: input %d: analytic %v, numeric %v", l.Name(), i, analytic[i], numeric)
		}
	}
}

// TestGradCheckInputDenseConv: Dense and Conv2D used on their own build
// their input gradient, and it is right. (A network skips it only for
// its first layer; see TestFirstLayerRule.)
func TestGradCheckInputDenseConv(t *testing.T) {
	inputGradCheck(t, NewDense(5, 4), 3, 5, 31)
	inputGradCheck(t, NewConv2D(2, 4, 4, 3, 3, 1, 1), 2, 2*4*4, 33)
	inputGradCheck(t, NewConv2D(1, 6, 6, 2, 3, 2, 0), 2, 36, 35)
}
