package nn

import (
	"fmt"
	"math"

	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/tensor"
)

// Dense is a fully connected layer: y = xW + b with W ∈ R^{in×out}.
type Dense struct {
	In, Out int

	w, b   []float32 // views into the network's flat parameter buffer
	gw, gb []float32 // matching gradient views
	x      *tensor.Matrix

	out, din *tensor.Matrix // workspaces
}

// NewDense creates a fully connected in→out layer.
func NewDense(in, out int) *Dense {
	if in < 1 || out < 1 {
		panic(fmt.Sprintf("nn: Dense(%d, %d): dimensions must be positive", in, out))
	}
	return &Dense{In: in, Out: out}
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense %d→%d", d.In, d.Out) }

// ParamCount implements Layer.
func (d *Dense) ParamCount() int { return d.In*d.Out + d.Out }

// Bind implements Layer.
func (d *Dense) Bind(params, grads []float32) {
	d.w, d.b = params[:d.In*d.Out], params[d.In*d.Out:]
	d.gw, d.gb = grads[:d.In*d.Out], grads[d.In*d.Out:]
}

// Init implements Layer with He initialisation (suits the ReLU nets here).
func (d *Dense) Init(src *prng.Source) {
	std := float32(math.Sqrt(2 / float64(d.In)))
	for i := range d.w {
		d.w[i] = std * float32(src.NormFloat64())
	}
	for i := range d.b {
		d.b[i] = 0
	}
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: dense forward: input %d cols, want %d", x.Cols, d.In))
	}
	d.x = x
	d.out = workspace(d.out, x.Rows, d.Out)
	tensor.MatMul(d.out, x, tensor.FromSlice(d.In, d.Out, d.w))
	tensor.AddBiasRows(d.out, d.b)
	return d.out
}

// Backward implements Layer.
func (d *Dense) Backward(dout *tensor.Matrix) *tensor.Matrix {
	w := tensor.FromSlice(d.In, d.Out, d.w)
	gw := tensor.FromSlice(d.In, d.Out, d.gw)
	tensor.MatMulTransA(gw, d.x, dout) // dW = xᵀ·dout
	tensor.SumRowsInto(d.gb, dout)     // db = Σ rows
	d.din = workspace(d.din, dout.Rows, d.In)
	tensor.MatMulTransB(d.din, dout, w) // dx = dout·Wᵀ
	return d.din
}

// ReLU is the rectified linear activation, applied element-wise.
type ReLU struct {
	out, din *tensor.Matrix // workspaces; Backward reads out as the mask
}

// NewReLU creates a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// ParamCount implements Layer.
func (r *ReLU) ParamCount() int { return 0 }

// Bind implements Layer.
func (r *ReLU) Bind(_, _ []float32) {}

// Init implements Layer.
func (r *ReLU) Init(_ *prng.Source) {}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	r.out = workspace(r.out, x.Rows, x.Cols)
	relu(r.out.Data, x.Data)
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(dout *tensor.Matrix) *tensor.Matrix {
	r.din = workspace(r.din, dout.Rows, dout.Cols)
	reluGrad(r.din.Data, dout.Data, r.out.Data)
	return r.din
}

// relu writes x into out with +0 wherever x <= 0 (a NaN passes through).
func relu(out, x []float32) {
	for i, v := range x {
		if v <= 0 {
			v = 0
		}
		out[i] = v
	}
}

// reluGrad writes dout into din with 0 wherever relu's output out is +0:
// out <= 0 there exactly where its input was.
func reluGrad(din, dout, out []float32) {
	for i, v := range dout {
		if out[i] <= 0 {
			v = 0
		}
		din[i] = v
	}
}

// Tanh is the hyperbolic tangent activation, applied element-wise.
type Tanh struct {
	out, din *tensor.Matrix // workspaces; Backward reads out
}

// NewTanh creates a tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Name implements Layer.
func (t *Tanh) Name() string { return "tanh" }

// ParamCount implements Layer.
func (t *Tanh) ParamCount() int { return 0 }

// Bind implements Layer.
func (t *Tanh) Bind(_, _ []float32) {}

// Init implements Layer.
func (t *Tanh) Init(_ *prng.Source) {}

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	t.out = workspace(t.out, x.Rows, x.Cols)
	for i, v := range x.Data {
		t.out.Data[i] = float32(math.Tanh(float64(v)))
	}
	return t.out
}

// Backward implements Layer.
func (t *Tanh) Backward(dout *tensor.Matrix) *tensor.Matrix {
	t.din = workspace(t.din, dout.Rows, dout.Cols)
	for i, v := range t.out.Data {
		t.din.Data[i] = dout.Data[i] * (1 - v*v)
	}
	return t.din
}

// BatchNorm normalises each feature over the batch during training and
// with running statistics at evaluation time:
//
//	y = γ·(x−μ)/√(σ²+ε) + β
type BatchNorm struct {
	Features int
	Momentum float32 // running-statistics EMA coefficient
	Eps      float32

	gamma, beta   []float32
	gGamma, gBeta []float32

	runMean, runVar []float32

	// forward cache
	xhat    *tensor.Matrix
	std     []float32
	rows    int
	trained bool
}

// NewBatchNorm creates a batch-normalisation layer over features.
func NewBatchNorm(features int) *BatchNorm {
	return &BatchNorm{
		Features: features,
		Momentum: 0.9,
		Eps:      1e-5,
		runMean:  make([]float32, features),
		runVar:   onesSlice(features),
	}
}

// Name implements Layer.
func (b *BatchNorm) Name() string { return fmt.Sprintf("batchnorm %d", b.Features) }

// ParamCount implements Layer.
func (b *BatchNorm) ParamCount() int { return 2 * b.Features }

// Bind implements Layer.
func (b *BatchNorm) Bind(params, grads []float32) {
	b.gamma, b.beta = params[:b.Features], params[b.Features:]
	b.gGamma, b.gBeta = grads[:b.Features], grads[b.Features:]
}

// Init implements Layer: γ=1, β=0.
func (b *BatchNorm) Init(_ *prng.Source) {
	for i := range b.gamma {
		b.gamma[i] = 1
		b.beta[i] = 0
	}
}

// Forward implements Layer.
func (b *BatchNorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != b.Features {
		panic(fmt.Sprintf("nn: batchnorm forward: %d cols, want %d", x.Cols, b.Features))
	}
	out := tensor.NewMatrix(x.Rows, x.Cols)
	if !train {
		for i := 0; i < x.Rows; i++ {
			xr, or := x.Row(i), out.Row(i)
			for j := range xr {
				inv := 1 / float32(math.Sqrt(float64(b.runVar[j]+b.Eps)))
				or[j] = b.gamma[j]*(xr[j]-b.runMean[j])*inv + b.beta[j]
			}
		}
		b.trained = false
		return out
	}

	n := float32(x.Rows)
	mean := make([]float32, b.Features)
	variance := make([]float32, b.Features)
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= n
	}
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			d := v - mean[j]
			variance[j] += d * d
		}
	}
	for j := range variance {
		variance[j] /= n
	}

	b.std = make([]float32, b.Features)
	for j := range b.std {
		b.std[j] = float32(math.Sqrt(float64(variance[j] + b.Eps)))
	}
	b.xhat = tensor.NewMatrix(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		xr, hr, or := x.Row(i), b.xhat.Row(i), out.Row(i)
		for j := range xr {
			hr[j] = (xr[j] - mean[j]) / b.std[j]
			or[j] = b.gamma[j]*hr[j] + b.beta[j]
		}
	}
	for j := range mean {
		b.runMean[j] = b.Momentum*b.runMean[j] + (1-b.Momentum)*mean[j]
		b.runVar[j] = b.Momentum*b.runVar[j] + (1-b.Momentum)*variance[j]
	}
	b.rows = x.Rows
	b.trained = true
	return out
}

// Backward implements Layer (training-mode batch statistics gradient).
func (b *BatchNorm) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if !b.trained {
		// Evaluation mode: normalisation is a fixed affine map.
		din := dout.Clone()
		for i := 0; i < din.Rows; i++ {
			row := din.Row(i)
			for j := range row {
				inv := 1 / float32(math.Sqrt(float64(b.runVar[j]+b.Eps)))
				row[j] *= b.gamma[j] * inv
			}
		}
		return din
	}
	n := float32(b.rows)
	sumDy := make([]float32, b.Features)
	sumDyXhat := make([]float32, b.Features)
	for i := 0; i < dout.Rows; i++ {
		dr, hr := dout.Row(i), b.xhat.Row(i)
		for j := range dr {
			sumDy[j] += dr[j]
			sumDyXhat[j] += dr[j] * hr[j]
		}
	}
	for j := range sumDy {
		b.gBeta[j] += sumDy[j]
		b.gGamma[j] += sumDyXhat[j]
	}
	din := tensor.NewMatrix(dout.Rows, dout.Cols)
	for i := 0; i < dout.Rows; i++ {
		dr, hr, or := dout.Row(i), b.xhat.Row(i), din.Row(i)
		for j := range dr {
			or[j] = b.gamma[j] / (n * b.std[j]) *
				(n*dr[j] - sumDy[j] - hr[j]*sumDyXhat[j])
		}
	}
	return din
}

func onesSlice(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = 1
	}
	return s
}
