package nn

import (
	"fmt"

	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/tensor"
)

// Residual wraps a body of layers with an identity skip connection and a
// trailing ReLU: y = relu(body(x) + x). The body must preserve shape
// (as the 3×3 same-padded convolutions in the ResNet models do).
type Residual struct {
	body []Layer
	n    int

	// workspaces: output (which Backward reads as the ReLU mask),
	// gradient at the sum, input gradient
	out, dsum, din *tensor.Matrix
}

// NewResidual creates a residual block around body.
func NewResidual(body ...Layer) *Residual {
	n := 0
	for _, l := range body {
		n += l.ParamCount()
	}
	return &Residual{body: body, n: n}
}

// ParamCount implements Layer.
func (r *Residual) ParamCount() int { return r.n }

// Bind implements Layer by distributing the views across the body.
func (r *Residual) Bind(params, grads []float32) {
	off := 0
	for _, l := range r.body {
		c := l.ParamCount()
		l.Bind(params[off:off+c], grads[off:off+c])
		off += c
	}
}

// Init implements Layer.
func (r *Residual) Init(src *prng.Source) {
	for i, l := range r.body {
		l.Init(src.Split(uint64(i)))
	}
}

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	y := x
	for _, l := range r.body {
		y = l.Forward(y, train)
	}
	if y.Rows != x.Rows || y.Cols != x.Cols {
		panic(fmt.Sprintf("nn: residual body changed shape %dx%d → %dx%d",
			x.Rows, x.Cols, y.Rows, y.Cols))
	}
	r.out = workspace(r.out, y.Rows, y.Cols)
	for i, v := range y.Data {
		r.out.Data[i] = v + x.Data[i]
	}
	relu(r.out.Data, r.out.Data)
	return r.out
}

// Backward implements Layer.
func (r *Residual) Backward(dout *tensor.Matrix) *tensor.Matrix {
	r.dsum = workspace(r.dsum, dout.Rows, dout.Cols)
	reluGrad(r.dsum.Data, dout.Data, r.out.Data)
	dbody := r.dsum
	for i := len(r.body) - 1; i >= 0; i-- {
		dbody = r.body[i].Backward(dbody)
	}
	r.din = workspace(r.din, dbody.Rows, dbody.Cols)
	for i, v := range dbody.Data {
		r.din.Data[i] = v + r.dsum.Data[i] // skip path
	}
	return r.din
}
