package nn

import (
	"fmt"
	"math"

	"gtopkssgd/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// against integer labels and the gradient dL/dlogits (softmax − one-hot,
// divided by the batch size), in a newly allocated matrix. Numerically
// stabilised by the max-logit shift; loss is accumulated in float64.
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	grad := tensor.NewMatrix(logits.Rows, logits.Cols)
	return softmaxCrossEntropy(grad, logits, labels), grad
}

// SoftmaxCrossEntropy is the package function with the gradient written
// to a workspace the network keeps: like a layer's output, it is valid
// until the next call. A training loop uses this one.
func (n *Network) SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	n.dloss = workspace(n.dloss, logits.Rows, logits.Cols)
	return softmaxCrossEntropy(n.dloss, logits, labels), n.dloss
}

// softmaxCrossEntropy returns the loss and overwrites grad, which has the
// shape of logits, with the gradient.
func softmaxCrossEntropy(grad, logits *tensor.Matrix, labels []int) float64 {
	if len(labels) != logits.Rows {
		panic(fmt.Sprintf("nn: %d labels for %d logit rows", len(labels), logits.Rows))
	}
	var loss float64
	invN := 1 / float32(logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		label := labels[i]
		if label < 0 || label >= logits.Cols {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", label, logits.Cols))
		}
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		logSum := math.Log(sum)
		loss += logSum - float64(row[label]-maxv)
		grow := grad.Row(i)
		for j, v := range row {
			p := float32(math.Exp(float64(v-maxv)) / sum)
			if j == label {
				p--
			}
			grow[j] = p * invN
		}
	}
	return loss / float64(logits.Rows)
}

// Accuracy returns the fraction of rows whose arg-max logit matches the
// label.
func Accuracy(logits *tensor.Matrix, labels []int) float64 {
	if logits.Rows == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < logits.Rows; i++ {
		if tensor.ArgMax(logits.Row(i)) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(logits.Rows)
}
