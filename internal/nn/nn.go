// Package nn is the minimal-but-real deep-learning substrate this
// reproduction trains with: hand-written forward/backward layers (dense,
// convolution, pooling, batch normalisation, activations), a softmax
// cross-entropy loss, and a sequential network container that exposes its
// parameters and gradients as single flat float32 vectors.
//
// The flat layout is the load-bearing design decision: the paper's
// algorithms (Top-k, gTop-k) sparsify the *whole-model* gradient vector
// G ∈ R^m, so the network binds every layer's weights into one
// contiguous slice that plugs directly into core.Trainer and the
// sparsifying aggregators. Every backward pass is verified against
// numerical differentiation in the tests, standing in for the autograd
// the paper gets from PyTorch.
package nn

import (
	"fmt"

	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/tensor"
)

// Layer is one differentiable stage of a sequential network operating on
// row-major batches (rows = samples).
//
// Ownership: a layer keeps the matrices it returns, and its scratch, as
// workspaces it writes again on its next call, so a steady training loop
// allocates nothing here. The matrix Forward returns is valid until that
// layer's next Forward, the one Backward returns until its next Backward;
// a caller that needs one longer copies it. A layer never writes into a
// matrix it was handed, and Forward may keep its argument (not a copy)
// for the Backward that follows. The batch size may change from call to
// call (evaluation between training steps); workspaces grow to the
// largest batch seen.
type Layer interface {
	// Forward consumes a (batch × in) matrix and returns (batch × out).
	// train marks a training pass; evaluation passes call with false.
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	// Backward consumes dL/dout for the batch of the last Forward and
	// returns dL/din, accumulating parameter gradients into the bound
	// gradient views.
	Backward(dout *tensor.Matrix) *tensor.Matrix
	// ParamCount returns the number of scalar parameters.
	ParamCount() int
	// Bind attaches the layer's parameter and gradient storage. Both
	// slices have exactly ParamCount elements and are views into the
	// network's flat buffers.
	Bind(params, grads []float32)
	// Init writes initial parameter values through the bound views.
	Init(src *prng.Source)
	// Name describes the layer for summaries.
	Name() string
}

// Network is a sequential container owning flat parameter/gradient
// buffers that all layers alias.
type Network struct {
	layers []Layer
	params []float32
	grads  []float32
	dloss  *tensor.Matrix // SoftmaxCrossEntropy's workspace
}

// workspace returns m reshaped to rows×cols, on m's own backing array
// when that is large enough and on a new one otherwise. The contents are
// unspecified: whatever an earlier call left there.
func workspace(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if m == nil {
		m = &tensor.Matrix{}
	}
	m.Rows, m.Cols, m.Data = rows, cols, grow(m.Data, rows*cols)
	return m
}

// grow returns s with length n, reallocated only when its capacity is
// smaller; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NewNetwork assembles layers and binds their parameters into flat
// buffers, in declaration order.
func NewNetwork(layers ...Layer) *Network {
	total := 0
	for _, l := range layers {
		total += l.ParamCount()
	}
	n := &Network{
		layers: layers,
		params: make([]float32, total),
		grads:  make([]float32, total),
	}
	off := 0
	for _, l := range layers {
		c := l.ParamCount()
		l.Bind(n.params[off:off+c], n.grads[off:off+c])
		off += c
	}
	return n
}

// Init initialises every layer's parameters from a deterministic seed.
// All workers must use the same seed so replicas start identical.
func (n *Network) Init(seed uint64) {
	src := prng.New(seed)
	for i, l := range n.layers {
		l.Init(src.Split(uint64(i)))
	}
}

// Parameters returns the flat parameter vector (aliased by all layers;
// mutating it changes the model, which is exactly how the distributed
// trainer applies updates).
func (n *Network) Parameters() []float32 { return n.params }

// Gradients returns the flat gradient vector accumulated by Backward.
func (n *Network) Gradients() []float32 { return n.grads }

// ParamCount returns the total number of scalar parameters m.
func (n *Network) ParamCount() int { return len(n.params) }

// ZeroGrad clears the accumulated gradients.
func (n *Network) ZeroGrad() { clear(n.grads) }

// Forward runs the batch through every layer.
func (n *Network) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	for _, l := range n.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates dL/dlogits back through every layer, accumulating
// parameter gradients.
func (n *Network) Backward(dout *tensor.Matrix) {
	n.BackwardWithHook(dout, nil)
}

// BackwardWithHook runs Backward, invoking ready(lo, hi) as soon as the
// flat-gradient range [lo, hi) of each parameterised layer is final. The
// backward pass visits layers in reverse, so ranges are announced from
// the tail of the flat vector toward the head — exactly the order
// wait-free backpropagation needs to start aggregating a layer's gradient
// while earlier layers are still computing. A nil hook degrades to plain
// Backward.
func (n *Network) BackwardWithHook(dout *tensor.Matrix, ready func(lo, hi int)) {
	hi := len(n.grads)
	for i := len(n.layers) - 1; i >= 0; i-- {
		l := n.layers[i]
		dout = l.Backward(dout)
		if c := l.ParamCount(); c > 0 {
			if ready != nil {
				ready(hi-c, hi)
			}
			hi -= c
		}
	}
}

// LayerBounds returns cumulative parameter offsets of the layers that
// own parameters (zero-parameter layers such as activations and pooling
// are skipped): bounds[0] = 0, bounds[L] = ParamCount(). This is the
// segment structure consumed by layer-wise sparsification.
func (n *Network) LayerBounds() []int {
	bounds := []int{0}
	off := 0
	for _, l := range n.layers {
		c := l.ParamCount()
		if c == 0 {
			continue
		}
		off += c
		bounds = append(bounds, off)
	}
	return bounds
}

// Summary returns a human-readable per-layer parameter breakdown.
func (n *Network) Summary() string {
	s := ""
	for _, l := range n.layers {
		s += fmt.Sprintf("%-24s %8d params\n", l.Name(), l.ParamCount())
	}
	s += fmt.Sprintf("%-24s %8d params total\n", "", n.ParamCount())
	return s
}
