// Package models assembles the reproduction's model zoo: CPU-scaled
// analogues of the five DNNs the paper trains (Table III), plus the
// metadata of the paper's full-size models used by the analytic
// communication benchmarks.
//
// The "*Sim" constructors preserve each model's architectural character —
// VGG-16 and AlexNet are dominated by huge fully connected layers (low
// compute-to-parameter ratio → communication-bound), the ResNets are
// convolutional with few parameters (compute-bound), the LSTM is
// recurrent — while shrinking parameter counts ~100-1000× so convergence
// experiments run in CPU-minutes. The density ρ and worker counts P seen
// by the sparsification algorithms match the paper exactly.
package models

import (
	"fmt"

	"gtopkssgd/internal/core"
	"gtopkssgd/internal/data"
	"gtopkssgd/internal/nn"
	"gtopkssgd/internal/tensor"
)

// Classifier couples a network with the input geometry it expects.
type Classifier struct {
	Name    string
	Net     *nn.Network
	C, H, W int
	Classes int
}

// Dim returns the flattened input dimension.
func (c *Classifier) Dim() int { return c.C * c.H * c.W }

// VGG16Sim is the fully-connected-heavy stand-in for VGG-16 on CIFAR-10:
// one small conv stage followed by large dense layers (~200k params, 97%
// of them in dense layers — matching VGG's parameter distribution).
func VGG16Sim() *Classifier {
	const c, h, w, classes = 3, 8, 8, 10
	net := nn.NewNetwork(
		nn.NewConv2D(c, h, w, 8, 3, 1, 1),
		nn.NewReLU(),
		nn.NewMaxPool2(8, h, w), // 8x4x4
		nn.NewDense(8*4*4, 1024),
		nn.NewReLU(),
		nn.NewDense(1024, 64),
		nn.NewReLU(),
		nn.NewDense(64, classes),
	)
	return &Classifier{Name: "vgg16sim", Net: net, C: c, H: h, W: w, Classes: classes}
}

// ResNet20Sim is the compute-heavy, parameter-light stand-in for
// ResNet-20 on CIFAR-10: stacked 3×3 residual blocks and a tiny
// classifier head (~15k params).
func ResNet20Sim() *Classifier {
	const c, h, w, classes = 3, 8, 8, 10
	const f = 16
	block := func() nn.Layer {
		return nn.NewResidual(
			nn.NewConv2D(f, h, w, f, 3, 1, 1),
			nn.NewReLU(),
			nn.NewConv2D(f, h, w, f, 3, 1, 1),
		)
	}
	net := nn.NewNetwork(
		nn.NewConv2D(c, h, w, f, 3, 1, 1),
		nn.NewReLU(),
		block(),
		block(),
		block(),
		nn.NewGlobalAvgPool(f, h, w),
		nn.NewDense(f, classes),
	)
	return &Classifier{Name: "resnet20sim", Net: net, C: c, H: h, W: w, Classes: classes}
}

// AlexNetSim is the stand-in for AlexNet on ImageNet: a couple of large
// kernels plus dominant dense layers (~300k params), on a 16×16 input
// standing in for 224×224.
func AlexNetSim() *Classifier {
	const c, h, w, classes = 3, 16, 16, 10
	net := nn.NewNetwork(
		nn.NewConv2D(c, h, w, 8, 5, 1, 2),
		nn.NewReLU(),
		nn.NewMaxPool2(8, h, w), // 8x8x8
		nn.NewConv2D(8, 8, 8, 16, 3, 1, 1),
		nn.NewReLU(),
		nn.NewMaxPool2(16, 8, 8), // 16x4x4
		nn.NewDense(16*4*4, 1024),
		nn.NewReLU(),
		nn.NewDense(1024, 96),
		nn.NewReLU(),
		nn.NewDense(96, classes),
	)
	return &Classifier{Name: "alexnetsim", Net: net, C: c, H: h, W: w, Classes: classes}
}

// ResNet50Sim is the deeper residual stand-in for ResNet-50 (~40k
// params across 6 residual blocks with a width step).
func ResNet50Sim() *Classifier {
	const c, h, w, classes = 3, 8, 8, 10
	const f = 24
	block := func() nn.Layer {
		return nn.NewResidual(
			nn.NewConv2D(f, h, w, f, 3, 1, 1),
			nn.NewReLU(),
			nn.NewConv2D(f, h, w, f, 3, 1, 1),
		)
	}
	net := nn.NewNetwork(
		nn.NewConv2D(c, h, w, f, 3, 1, 1),
		nn.NewReLU(),
		block(), block(), block(), block(), block(), block(),
		nn.NewGlobalAvgPool(f, h, w),
		nn.NewDense(f, classes),
	)
	return &Classifier{Name: "resnet50sim", Net: net, C: c, H: h, W: w, Classes: classes}
}

// MLP returns a small generic multi-layer perceptron, used by the
// quickstart example and unit tests.
func MLP(in, hidden, classes int) *Classifier {
	net := nn.NewNetwork(
		nn.NewDense(in, hidden),
		nn.NewReLU(),
		nn.NewDense(hidden, classes),
	)
	return &Classifier{Name: "mlp", Net: net, C: 1, H: 1, W: in, Classes: classes}
}

// LSTMPTBSim returns the LSTM language model standing in for the paper's
// 2-layer LSTM-PTB (vocab 64, embedding 24, hidden 48; ~17k params).
func LSTMPTBSim() *nn.LSTMLM {
	return nn.NewLSTMLM(64, 24, 48)
}

// GradFn adapts a classifier + dataset into the core.GradFn the
// distributed trainer consumes: each call draws the (iter, rank) batch
// into the one batch the closure owns, runs forward/backward and copies
// the flat gradient out. A warmed-up call allocates nothing.
//
// The weights slice passed by the trainer MUST alias the network's
// parameter buffer (pass cls.Net.Parameters() to core.NewTrainer); the
// adapter enforces this so updates applied by the trainer are visible to
// the next forward pass.
func GradFn(cls *Classifier, ds *data.Images, rank, workers, batch int) core.GradFn {
	params := cls.Net.Parameters()
	x, labels := tensor.NewMatrix(batch, ds.Dim()), make([]int, batch)
	return func(iter int, weights, grad []float32) float64 {
		if len(weights) == 0 || len(params) == 0 || &weights[0] != &params[0] {
			panic("models: trainer weights must alias Net.Parameters()")
		}
		ds.BatchInto(x, labels, iter, rank, workers)
		cls.Net.ZeroGrad()
		logits := cls.Net.Forward(x, true)
		loss, dlogits := cls.Net.SoftmaxCrossEntropy(logits, labels)
		cls.Net.Backward(dlogits)
		copy(grad, cls.Net.Gradients())
		return loss
	}
}

// StreamGradFn adapts a classifier + dataset into a core.StreamGradFn
// for the bucketed, overlapped aggregation pipeline: the backward pass
// announces each layer's flat-gradient range the moment it is final
// (tail-first, the wait-free backpropagation order), letting the trainer
// hand gradient buckets to the aggregator while earlier layers are still
// computing. Same aliasing contract, and the same reused batch, as
// GradFn.
func StreamGradFn(cls *Classifier, ds *data.Images, rank, workers, batch int) core.StreamGradFn {
	params := cls.Net.Parameters()
	grads := cls.Net.Gradients()
	x, labels := tensor.NewMatrix(batch, ds.Dim()), make([]int, batch)
	return func(iter int, weights, grad []float32, ready func(lo, hi int)) float64 {
		if len(weights) == 0 || len(params) == 0 || &weights[0] != &params[0] {
			panic("models: trainer weights must alias Net.Parameters()")
		}
		ds.BatchInto(x, labels, iter, rank, workers)
		cls.Net.ZeroGrad()
		logits := cls.Net.Forward(x, true)
		loss, dlogits := cls.Net.SoftmaxCrossEntropy(logits, labels)
		cls.Net.BackwardWithHook(dlogits, func(lo, hi int) {
			copy(grad[lo:hi], grads[lo:hi])
			ready(lo, hi)
		})
		return loss
	}
}

// LSTMGradFn adapts the LSTM language model + text corpus into a
// core.GradFn with the same aliasing contract as GradFn.
func LSTMGradFn(m *nn.LSTMLM, corpus *data.Text, rank, workers, batch, seqLen int) core.GradFn {
	params := m.Parameters()
	return func(iter int, weights, grad []float32) float64 {
		if len(weights) == 0 || &weights[0] != &params[0] {
			panic("models: trainer weights must alias Parameters()")
		}
		inputs, targets := corpus.Batch(iter, rank, workers, batch, seqLen)
		m.ZeroGrad()
		loss, err := m.Loss(inputs, targets)
		if err != nil {
			panic(fmt.Sprintf("models: lstm loss: %v", err))
		}
		copy(grad, m.Gradients())
		return loss
	}
}

// EvalAccuracy measures held-out top-1 accuracy over batches mini-batches,
// drawn one after another into one batch.
func EvalAccuracy(cls *Classifier, ds *data.Images, batches, batch int) float64 {
	if batches < 1 {
		return 0
	}
	var total float64
	x, labels := tensor.NewMatrix(batch, ds.Dim()), make([]int, batch)
	for i := 0; i < batches; i++ {
		ds.EvalBatchInto(x, labels, i)
		logits := cls.Net.Forward(x, false)
		total += nn.Accuracy(logits, labels)
	}
	return total / float64(batches)
}

// PaperModel records the full-size models of the paper's Table III/IV,
// used by the analytic benchmarks (Figs 9-11, Table IV) where only the
// parameter count m and the compute/compression time scales matter.
type PaperModel struct {
	Name string
	// Params is m, the number of trainable parameters.
	Params int
	// BatchPerWorker is b in Table III.
	BatchPerWorker int
	// TfTb is the per-iteration forward+backward time on one worker.
	// Calibrated so the compute/communication ratios (and therefore the
	// scaling-efficiency shapes of Fig. 10) match the paper's cluster —
	// together with the effective-bandwidth factors in
	// internal/bench/analytic.go, which state the rationale and the
	// resulting fit (within ~25% of every Table IV speedup).
	TfTbMs float64
	// CompressMs is the local top-k selection time t_compr. (the paper
	// measures GPU top-k to be expensive, comparable to compute for the
	// fc-heavy models, Fig. 11).
	CompressMs float64
}

// PaperModels returns the four CNNs of Table IV in paper order.
func PaperModels() []PaperModel {
	return []PaperModel{
		// VGG-16 on CIFAR-10: 14.7M params, fc-dominated.
		{Name: "VGG-16", Params: 14_700_000, BatchPerWorker: 128, TfTbMs: 310, CompressMs: 300},
		// ResNet-20 on CIFAR-10: 0.27M params, compute-dominated.
		{Name: "ResNet-20", Params: 270_000, BatchPerWorker: 128, TfTbMs: 133, CompressMs: 8},
		// AlexNet on ImageNet: 61M params, the most fc-heavy.
		{Name: "AlexNet", Params: 61_000_000, BatchPerWorker: 64, TfTbMs: 600, CompressMs: 1200},
		// ResNet-50 on ImageNet: 25.5M params.
		{Name: "ResNet-50", Params: 25_500_000, BatchPerWorker: 256, TfTbMs: 5000, CompressMs: 500},
	}
}
