// Package data provides the synthetic datasets this reproduction trains
// on in place of CIFAR-10, ImageNet and the Penn Treebank (which cannot
// be shipped offline).
//
// Design goals: (1) deterministic — sample i of dataset seed s is the
// same bytes on every machine and every run, so distributed replicas and
// repeated experiments are exactly reproducible; (2) learnable but not
// trivial — classes are anisotropic Gaussian blobs around structured
// means (images) and a random Markov chain (text), so loss curves show
// the same qualitative dynamics (fast early progress, long tail, clear
// separation between broken and working optimizers) the paper's figures
// rely on; (3) infinite — samples are generated on demand by index, so
// "epochs" scale freely and no worker ever stores a dataset.
package data

import (
	"fmt"

	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/tensor"
)

// Images is a synthetic image-classification dataset: each class is a
// Gaussian blob around a structured mean image.
type Images struct {
	Classes int
	C, H, W int
	// Noise is the within-class standard deviation; higher values make
	// the task harder (class means are ~unit scale).
	Noise float32

	seed  uint64
	means [][]float32
}

// NewImages builds a dataset. The class means are derived from seed with
// a low-frequency spatial pattern per class so convolutional models have
// structure to exploit.
func NewImages(seed uint64, classes, c, h, w int, noise float32) (*Images, error) {
	if classes < 2 || c < 1 || h < 1 || w < 1 {
		return nil, fmt.Errorf("data: invalid image dataset geometry (%d classes, %dx%dx%d)", classes, c, h, w)
	}
	if noise <= 0 {
		return nil, fmt.Errorf("data: noise %v must be positive", noise)
	}
	d := &Images{Classes: classes, C: c, H: h, W: w, Noise: noise, seed: seed}
	d.means = make([][]float32, classes)
	root := prng.New(seed)
	for cls := range d.means {
		src := root.Split(uint64(cls))
		mean := make([]float32, c*h*w)
		// Low-frequency pattern: a few random "bumps" per channel plus a
		// channel-wide offset — recognisable by both conv and dense nets.
		for ch := 0; ch < c; ch++ {
			offset := float32(src.NormFloat64()) * 0.5
			type bump struct {
				cy, cx float64
				amp    float64
			}
			bumps := make([]bump, 3)
			for b := range bumps {
				bumps[b] = bump{
					cy:  src.Float64() * float64(h),
					cx:  src.Float64() * float64(w),
					amp: src.NormFloat64(),
				}
			}
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					v := float64(offset)
					for _, b := range bumps {
						dy := (float64(y) - b.cy) / float64(h)
						dx := (float64(x) - b.cx) / float64(w)
						v += b.amp * gauss(dy*dy+dx*dx)
					}
					mean[ch*h*w+y*w+x] = float32(v)
				}
			}
		}
		d.means[cls] = mean
	}
	return d, nil
}

// gauss is exp(-8r²) without importing math for a micro hot path.
func gauss(r2 float64) float64 {
	// 5th-order Taylor-like approximation is unnecessary; use the cheap
	// rational approximation 1/(1+8r²)² which is close enough for
	// synthetic structure.
	d := 1 + 8*r2
	return 1 / (d * d)
}

// Dim returns the flattened sample dimension C·H·W.
func (d *Images) Dim() int { return d.C * d.H * d.W }

// sampleInto writes sample idx into x (Dim() floats) and returns its
// label: the label is idx mod Classes, the pixels the class mean plus
// Gaussian noise keyed by idx.
func (d *Images) sampleInto(x []float32, idx uint64) int {
	label := int(idx % uint64(d.Classes))
	var src prng.Source
	src.Seed(d.seed ^ (idx+1)*0x9e3779b97f4a7c15)
	mean := d.means[label][:len(x)]
	for i := range x {
		x[i] = mean[i] + d.Noise*float32(src.NormFloat64())
	}
	return label
}

// BatchInto writes the mini-batch for (iter, rank) under data parallelism
// into a batch the caller owns: x has len(labels) rows of Dim() columns,
// and len(labels) is the batch size. Worker rank of workers takes batch
// consecutive samples from the global sample stream, so no two workers
// ever see the same sample in the same iteration (the paper's D_i^g
// partitioning). It allocates nothing, so a training loop draws every
// step into one batch.
func (d *Images) BatchInto(x *tensor.Matrix, labels []int, iter, rank, workers int) {
	batch := len(labels)
	d.fill(x, labels, uint64(iter)*uint64(workers)*uint64(batch)+uint64(rank)*uint64(batch))
}

// EvalBatchInto writes a held-out batch, disjoint from every training
// batch, into a batch the caller owns, shaped as for BatchInto: its
// samples come from a far region of the sample stream.
func (d *Images) EvalBatchInto(x *tensor.Matrix, labels []int, iter int) {
	const evalOffset = 1 << 40
	d.fill(x, labels, evalOffset+uint64(iter)*uint64(len(labels)))
}

// fill writes samples base, base+1, ... into the rows of x and labels.
func (d *Images) fill(x *tensor.Matrix, labels []int, base uint64) {
	if x.Rows != len(labels) || x.Cols != d.Dim() {
		panic(fmt.Sprintf("data: a batch of %d labels and a %dx%d matrix, want %d columns",
			len(labels), x.Rows, x.Cols, d.Dim()))
	}
	for i := range labels {
		labels[i] = d.sampleInto(x.Row(i), base+uint64(i))
	}
}

// Text is a synthetic language-modelling corpus: a first-order Markov
// chain over a vocabulary, standing in for the Penn Treebank. The
// transition matrix is sparse-ish (each token prefers a handful of
// successors), giving the model real structure to learn — perplexity
// drops well below vocab size for a trained model.
type Text struct {
	Vocab int

	seed uint64
	cum  []float32 // cumulative transition rows, Vocab×Vocab
}

// NewText builds the corpus generator.
func NewText(seed uint64, vocab int) (*Text, error) {
	if vocab < 2 {
		return nil, fmt.Errorf("data: vocab %d too small", vocab)
	}
	t := &Text{Vocab: vocab, seed: seed, cum: make([]float32, vocab*vocab)}
	src := prng.New(seed)
	for from := 0; from < vocab; from++ {
		row := t.cum[from*vocab : (from+1)*vocab]
		// Sharply peaked transition distribution: 4 preferred successors.
		var total float32
		for to := range row {
			row[to] = 0.05 + 0.1*src.Float32()
		}
		for b := 0; b < 4; b++ {
			row[src.Intn(vocab)] += 3 + 5*src.Float32()
		}
		for to := range row {
			total += row[to]
		}
		acc := float32(0)
		for to := range row {
			acc += row[to] / total
			row[to] = acc
		}
		row[vocab-1] = 1 // guard against rounding
	}
	return t, nil
}

// Sequence deterministically generates sequence idx of length n+1 and
// returns (inputs, targets): targets are inputs shifted by one.
func (t *Text) Sequence(idx uint64, n int) (inputs, targets []int) {
	src := prng.New(t.seed ^ (idx+1)*0xd1342543de82ef95)
	tokens := make([]int, n+1)
	tokens[0] = src.Intn(t.Vocab)
	for i := 1; i <= n; i++ {
		row := t.cum[tokens[i-1]*t.Vocab : (tokens[i-1]+1)*t.Vocab]
		u := src.Float32()
		// Linear scan; vocab is small in the simulated corpus.
		next := 0
		for next < t.Vocab-1 && row[next] < u {
			next++
		}
		tokens[i] = next
	}
	return tokens[:n], tokens[1:]
}

// Batch assembles the (inputs, targets) mini-batch for (iter, rank) with
// the same disjoint partitioning as Images.BatchInto.
func (t *Text) Batch(iter, rank, workers, batch, seqLen int) (inputs, targets [][]int) {
	inputs = make([][]int, batch)
	targets = make([][]int, batch)
	base := uint64(iter)*uint64(workers)*uint64(batch) + uint64(rank)*uint64(batch)
	for i := 0; i < batch; i++ {
		inputs[i], targets[i] = t.Sequence(base+uint64(i), seqLen)
	}
	return inputs, targets
}
