package nn

import (
	"fmt"
	"math"

	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/tensor"
)

// Dense is a fully connected layer: y = xW + b with W ∈ R^{in×out}.
// Placed first in a Network, it builds no input gradient.
type Dense struct {
	In, Out int

	w, b   []float32 // views into the network's flat parameter buffer
	gw, gb []float32 // matching gradient views
	x      *tensor.Matrix
	first  bool // first in its network: Backward skips dx and returns nil

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

func (d *Dense) skipInputGrad() { d.first = true }

// Backward implements Layer.
func (d *Dense) Backward(dout *tensor.Matrix) *tensor.Matrix {
	gw := tensor.FromSlice(d.In, d.Out, d.gw)
	tensor.MatMulTransA(gw, d.x, dout) // dW = xᵀ·dout
	tensor.SumRowsInto(d.gb, dout)     // db = Σ rows
	if d.first {
		return nil
	}
	d.din = workspace(d.din, dout.Rows, d.In)
	tensor.MatMulTransB(d.din, dout, tensor.FromSlice(d.In, d.Out, d.w)) // dx = dout·Wᵀ
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
