package nn

import (
	"fmt"
	"math"

	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/tensor"
)

// Conv2D is a 2-D convolution over channel-major flattened images: each
// input row is a C×H×W volume stored as [c][y][x]; each output row is an
// OutC×OH×OW volume in the same layout. Implemented with im2col so the
// inner loop is a dense matrix multiplication, the standard CPU strategy.
// Placed first in a Network, it builds no input gradient: no dout·Wᵀ, no
// col2im.
type Conv2D struct {
	InC, H, W int
	OutC      int
	K         int // square kernel size
	Stride    int
	Pad       int
	OH, OW    int

	w, b   []float32 // w is (InC·K·K)×OutC row-major; b has OutC entries
	gw, gb []float32

	// forward cache (per batch)
	cols []float32 // im2col matrices, one (OH·OW)×(InC·K·K) block per sample
	rows int

	first bool // first in its network: Backward skips dx and returns nil

	// workspaces: layer output and input gradient, and the per-sample
	// product, output gradient, patch gradient and weight gradient
	out, din, prod, doutM, dcols, gwLocal *tensor.Matrix
}

// NewConv2D creates a convolution layer. Pad/Stride follow the usual
// conv semantics; OH = (H+2Pad−K)/Stride+1.
func NewConv2D(inC, h, w, outC, k, stride, pad int) *Conv2D {
	if inC < 1 || h < 1 || w < 1 || outC < 1 || k < 1 || stride < 1 || pad < 0 {
		panic(fmt.Sprintf("nn: Conv2D(%d,%d,%d,%d,%d,%d,%d): invalid geometry",
			inC, h, w, outC, k, stride, pad))
	}
	oh := (h+2*pad-k)/stride + 1
	ow := (w+2*pad-k)/stride + 1
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("nn: Conv2D: kernel %d does not fit %dx%d input", k, h, w))
	}
	return &Conv2D{InC: inC, H: h, W: w, OutC: outC, K: k, Stride: stride, Pad: pad, OH: oh, OW: ow}
}

// ParamCount implements Layer.
func (c *Conv2D) ParamCount() int { return c.InC*c.K*c.K*c.OutC + c.OutC }

// Bind implements Layer.
func (c *Conv2D) Bind(params, grads []float32) {
	wlen := c.InC * c.K * c.K * c.OutC
	c.w, c.b = params[:wlen], params[wlen:]
	c.gw, c.gb = grads[:wlen], grads[wlen:]
}

// Init implements Layer with He initialisation over the fan-in.
func (c *Conv2D) Init(src *prng.Source) {
	fanIn := float64(c.InC * c.K * c.K)
	std := float32(math.Sqrt(2 / fanIn))
	for i := range c.w {
		c.w[i] = std * float32(src.NormFloat64())
	}
	for i := range c.b {
		c.b[i] = 0
	}
}

// im2col lowers one sample into cols, a (OH·OW)×(InC·K·K) patch matrix,
// writing every element (padding as 0).
func (c *Conv2D) im2col(cols *tensor.Matrix, img []float32) {
	for oy := 0; oy < c.OH; oy++ {
		for ox := 0; ox < c.OW; ox++ {
			row := cols.Row(oy*c.OW + ox)
			p := 0
			for ch := 0; ch < c.InC; ch++ {
				base := ch * c.H * c.W
				for ky := 0; ky < c.K; ky++ {
					iy := oy*c.Stride + ky - c.Pad
					for kx := 0; kx < c.K; kx++ {
						ix := ox*c.Stride + kx - c.Pad
						var v float32
						if iy >= 0 && iy < c.H && ix >= 0 && ix < c.W {
							v = img[base+iy*c.W+ix]
						}
						row[p] = v
						p++
					}
				}
			}
		}
	}
}

// patches returns sample i's block of the im2col cache.
func (c *Conv2D) patches(i int) []float32 {
	n := c.OH * c.OW * c.InC * c.K * c.K
	return c.cols[i*n : (i+1)*n]
}

// col2im scatters patch-space gradients back into image space.
func (c *Conv2D) col2im(dcols *tensor.Matrix, dimg []float32) {
	for oy := 0; oy < c.OH; oy++ {
		for ox := 0; ox < c.OW; ox++ {
			row := dcols.Row(oy*c.OW + ox)
			p := 0
			for ch := 0; ch < c.InC; ch++ {
				base := ch * c.H * c.W
				for ky := 0; ky < c.K; ky++ {
					iy := oy*c.Stride + ky - c.Pad
					for kx := 0; kx < c.K; kx++ {
						ix := ox*c.Stride + kx - c.Pad
						if iy >= 0 && iy < c.H && ix >= 0 && ix < c.W {
							dimg[base+iy*c.W+ix] += row[p]
						}
						p++
					}
				}
			}
		}
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	if x.Cols != c.InC*c.H*c.W {
		panic(fmt.Sprintf("nn: conv forward: %d cols, want %d", x.Cols, c.InC*c.H*c.W))
	}
	c.rows = x.Rows
	c.cols = grow(c.cols, x.Rows*c.OH*c.OW*c.InC*c.K*c.K)
	c.out = workspace(c.out, x.Rows, c.OutC*c.OH*c.OW)
	c.prod = workspace(c.prod, c.OH*c.OW, c.OutC)
	w := tensor.FromSlice(c.InC*c.K*c.K, c.OutC, c.w)
	for i := 0; i < x.Rows; i++ {
		cols := tensor.FromSlice(c.OH*c.OW, c.InC*c.K*c.K, c.patches(i))
		c.im2col(cols, x.Row(i))
		tensor.MatMul(c.prod, cols, w) // (OH·OW)×OutC
		orow := c.out.Row(i)
		for yx := 0; yx < c.OH*c.OW; yx++ {
			prow := c.prod.Row(yx)
			for f := 0; f < c.OutC; f++ {
				orow[f*c.OH*c.OW+yx] = prow[f] + c.b[f]
			}
		}
	}
	return c.out
}

func (c *Conv2D) skipInputGrad() { c.first = true }

// Backward implements Layer.
func (c *Conv2D) Backward(dout *tensor.Matrix) *tensor.Matrix {
	w := tensor.FromSlice(c.InC*c.K*c.K, c.OutC, c.w)
	gw := tensor.FromSlice(c.InC*c.K*c.K, c.OutC, c.gw)
	var din *tensor.Matrix
	if !c.first {
		c.din = workspace(c.din, c.rows, c.InC*c.H*c.W)
		c.din.Zero() // col2im accumulates
		c.dcols = workspace(c.dcols, c.OH*c.OW, c.InC*c.K*c.K)
		din = c.din
	}
	c.doutM = workspace(c.doutM, c.OH*c.OW, c.OutC)
	c.gwLocal = workspace(c.gwLocal, c.InC*c.K*c.K, c.OutC)
	doutM, dcols, gwLocal := c.doutM, c.dcols, c.gwLocal
	for i := 0; i < c.rows; i++ {
		drow := dout.Row(i)
		for yx := 0; yx < c.OH*c.OW; yx++ {
			mrow := doutM.Row(yx)
			for f := 0; f < c.OutC; f++ {
				mrow[f] = drow[f*c.OH*c.OW+yx]
				c.gb[f] += mrow[f]
			}
		}
		cols := tensor.FromSlice(c.OH*c.OW, c.InC*c.K*c.K, c.patches(i))
		tensor.MatMulTransA(gwLocal, cols, doutM) // dW = colsᵀ·dout
		tensor.AddInto(gw.Data, gwLocal.Data)
		if din != nil {
			tensor.MatMulTransB(dcols, doutM, w) // dcols = dout·Wᵀ
			c.col2im(dcols, din.Row(i))
		}
	}
	return din
}

// MaxPool2 is a 2×2, stride-2 max pooling layer over channel-major
// volumes. H and W must be even.
type MaxPool2 struct {
	C, H, W int
	OH, OW  int

	argmax []int32 // flat index chosen per output element, per batch
	rows   int

	out, din *tensor.Matrix // workspaces
}

// NewMaxPool2 creates the pooling layer for C×H×W inputs.
func NewMaxPool2(c, h, w int) *MaxPool2 {
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("nn: MaxPool2 needs even dims, got %dx%d", h, w))
	}
	return &MaxPool2{C: c, H: h, W: w, OH: h / 2, OW: w / 2}
}

// ParamCount implements Layer.
func (m *MaxPool2) ParamCount() int { return 0 }

// Bind implements Layer.
func (m *MaxPool2) Bind(_, _ []float32) {}

// Init implements Layer.
func (m *MaxPool2) Init(_ *prng.Source) {}

// Forward implements Layer.
func (m *MaxPool2) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	if x.Cols != m.C*m.H*m.W {
		panic(fmt.Sprintf("nn: maxpool forward: %d cols, want %d", x.Cols, m.C*m.H*m.W))
	}
	m.rows = x.Rows
	outCols := m.C * m.OH * m.OW
	m.out = workspace(m.out, x.Rows, outCols)
	out := m.out
	m.argmax = grow(m.argmax, x.Rows*outCols)
	for i := 0; i < x.Rows; i++ {
		xr, or := x.Row(i), out.Row(i)
		for ch := 0; ch < m.C; ch++ {
			for oy := 0; oy < m.OH; oy++ {
				for ox := 0; ox < m.OW; ox++ {
					bestIdx := ch*m.H*m.W + (2*oy)*m.W + 2*ox
					best := xr[bestIdx]
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							idx := ch*m.H*m.W + (2*oy+dy)*m.W + 2*ox + dx
							if xr[idx] > best {
								best, bestIdx = xr[idx], idx
							}
						}
					}
					oidx := ch*m.OH*m.OW + oy*m.OW + ox
					or[oidx] = best
					m.argmax[i*outCols+oidx] = int32(bestIdx)
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool2) Backward(dout *tensor.Matrix) *tensor.Matrix {
	m.din = workspace(m.din, m.rows, m.C*m.H*m.W)
	m.din.Zero() // only the argmax positions are written
	din := m.din
	outCols := m.C * m.OH * m.OW
	for i := 0; i < m.rows; i++ {
		dr, ir := dout.Row(i), din.Row(i)
		for o := 0; o < outCols; o++ {
			ir[m.argmax[i*outCols+o]] += dr[o]
		}
	}
	return din
}

// GlobalAvgPool averages each channel over its spatial extent, producing
// one value per channel (the classifier head input in the ResNet models).
type GlobalAvgPool struct {
	C, H, W int
	rows    int

	out, din *tensor.Matrix // workspaces
}

// NewGlobalAvgPool creates the pooling layer for C×H×W inputs.
func NewGlobalAvgPool(c, h, w int) *GlobalAvgPool {
	return &GlobalAvgPool{C: c, H: h, W: w}
}

// ParamCount implements Layer.
func (g *GlobalAvgPool) ParamCount() int { return 0 }

// Bind implements Layer.
func (g *GlobalAvgPool) Bind(_, _ []float32) {}

// Init implements Layer.
func (g *GlobalAvgPool) Init(_ *prng.Source) {}

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	if x.Cols != g.C*g.H*g.W {
		panic(fmt.Sprintf("nn: gap forward: %d cols, want %d", x.Cols, g.C*g.H*g.W))
	}
	g.rows = x.Rows
	hw := g.H * g.W
	g.out = workspace(g.out, x.Rows, g.C)
	out := g.out
	for i := 0; i < x.Rows; i++ {
		xr, or := x.Row(i), out.Row(i)
		for ch := 0; ch < g.C; ch++ {
			var s float32
			for p := 0; p < hw; p++ {
				s += xr[ch*hw+p]
			}
			or[ch] = s / float32(hw)
		}
	}
	return out
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(dout *tensor.Matrix) *tensor.Matrix {
	hw := g.H * g.W
	g.din = workspace(g.din, g.rows, g.C*g.H*g.W)
	din := g.din
	inv := 1 / float32(hw)
	for i := 0; i < g.rows; i++ {
		dr, ir := dout.Row(i), din.Row(i)
		for ch := 0; ch < g.C; ch++ {
			v := dr[ch] * inv
			for p := 0; p < hw; p++ {
				ir[ch*hw+p] = v
			}
		}
	}
	return din
}
