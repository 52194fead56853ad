package data

import (
	"math"
	"testing"

	"gtopkssgd/internal/tensor"
)

// sample returns sample idx in a new slice, with its label.
func sample(d *Images, idx uint64) ([]float32, int) {
	x := make([]float32, d.Dim())
	return x, d.sampleInto(x, idx)
}

// batch and evalBatch draw a batch of n into a new matrix.
func batch(d *Images, iter, rank, workers, n int) (*tensor.Matrix, []int) {
	x, labels := tensor.NewMatrix(n, d.Dim()), make([]int, n)
	d.BatchInto(x, labels, iter, rank, workers)
	return x, labels
}

func evalBatch(d *Images, iter, n int) (*tensor.Matrix, []int) {
	x, labels := tensor.NewMatrix(n, d.Dim()), make([]int, n)
	d.EvalBatchInto(x, labels, iter)
	return x, labels
}

func TestImagesDeterministic(t *testing.T) {
	a, err := NewImages(7, 10, 3, 8, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewImages(7, 10, 3, 8, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []uint64{0, 1, 999, 1 << 40} {
		xa, la := sample(a, idx)
		xb, lb := sample(b, idx)
		if la != lb {
			t.Fatalf("idx %d: labels differ", idx)
		}
		for i := range xa {
			if xa[i] != xb[i] {
				t.Fatalf("idx %d: pixel %d differs", idx, i)
			}
		}
	}
}

func TestImagesLabelsCycle(t *testing.T) {
	d, err := NewImages(1, 10, 1, 4, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for idx := uint64(0); idx < 30; idx++ {
		_, label := sample(d, idx)
		if label != int(idx%10) {
			t.Fatalf("idx %d: label %d", idx, label)
		}
	}
}

func TestImagesClassSeparation(t *testing.T) {
	// Samples of the same class must be closer to their class mean than to
	// other class means on average (i.e. the task is learnable).
	d, err := NewImages(3, 4, 3, 8, 8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	const n = 100
	for idx := uint64(0); idx < n; idx++ {
		x, label := sample(d, idx)
		best, bestDist := -1, 0.0
		for cls := 0; cls < d.Classes; cls++ {
			var dist float64
			for i, v := range x {
				dv := float64(v - d.means[cls][i])
				dist += dv * dv
			}
			if best == -1 || dist < bestDist {
				best, bestDist = cls, dist
			}
		}
		if best == label {
			correct++
		}
	}
	if correct < n*8/10 {
		t.Fatalf("nearest-mean classification only %d/%d; dataset unlearnable", correct, n)
	}
}

func TestImagesBatchPartitioning(t *testing.T) {
	d, err := NewImages(5, 10, 1, 4, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Workers 0 and 1 at the same iteration see disjoint samples; the
	// same worker at the same iteration sees identical ones.
	x0, l0 := batch(d, 3, 0, 2, 4)
	x0b, _ := batch(d, 3, 0, 2, 4)
	x1, _ := batch(d, 3, 1, 2, 4)
	for i := range x0.Data {
		if x0.Data[i] != x0b.Data[i] {
			t.Fatal("same (iter,rank) batch not deterministic")
		}
	}
	same := true
	for i := range x0.Data {
		if x0.Data[i] != x1.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("workers 0 and 1 saw identical batches")
	}
	if len(l0) != 4 {
		t.Fatalf("labels length %d", len(l0))
	}
}

func TestImagesEvalDisjointFromTrain(t *testing.T) {
	d, err := NewImages(5, 10, 1, 4, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	trainX, _ := batch(d, 0, 0, 1, 4)
	evalX, _ := evalBatch(d, 0, 4)
	same := true
	for i := range trainX.Data {
		if trainX.Data[i] != evalX.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("eval batch equals train batch")
	}
}

func TestImagesValidation(t *testing.T) {
	if _, err := NewImages(1, 1, 3, 8, 8, 0.5); err == nil {
		t.Error("1 class accepted")
	}
	if _, err := NewImages(1, 10, 3, 8, 8, 0); err == nil {
		t.Error("zero noise accepted")
	}
	if _, err := NewImages(1, 10, 0, 8, 8, 0.5); err == nil {
		t.Error("zero channels accepted")
	}
}

func TestTextDeterministicAndShifted(t *testing.T) {
	c, err := NewText(11, 50)
	if err != nil {
		t.Fatal(err)
	}
	in1, tg1 := c.Sequence(5, 20)
	in2, tg2 := c.Sequence(5, 20)
	if len(in1) != 20 || len(tg1) != 20 {
		t.Fatalf("lengths %d/%d", len(in1), len(tg1))
	}
	for i := range in1 {
		if in1[i] != in2[i] || tg1[i] != tg2[i] {
			t.Fatal("sequence not deterministic")
		}
	}
	// targets are inputs shifted by one.
	for i := 0; i+1 < len(in1); i++ {
		if tg1[i] != in1[i+1] {
			t.Fatalf("target %d = %d, want next input %d", i, tg1[i], in1[i+1])
		}
	}
}

func TestTextTokensInRange(t *testing.T) {
	c, err := NewText(3, 17)
	if err != nil {
		t.Fatal(err)
	}
	for idx := uint64(0); idx < 50; idx++ {
		in, tg := c.Sequence(idx, 30)
		for i := range in {
			if in[i] < 0 || in[i] >= 17 || tg[i] < 0 || tg[i] >= 17 {
				t.Fatalf("token out of range at seq %d pos %d", idx, i)
			}
		}
	}
}

func TestTextMarkovStructure(t *testing.T) {
	// A first-order Markov chain with peaked transitions has much lower
	// conditional entropy than uniform: the most frequent successor of
	// any token should dominate.
	c, err := NewText(9, 20)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[[2]int]int)
	totals := make(map[int]int)
	for idx := uint64(0); idx < 200; idx++ {
		in, tg := c.Sequence(idx, 50)
		for i := range in {
			counts[[2]int{in[i], tg[i]}]++
			totals[in[i]]++
		}
	}
	dominated := 0
	for from := 0; from < 20; from++ {
		if totals[from] < 50 {
			continue
		}
		best := 0
		for to := 0; to < 20; to++ {
			if c := counts[[2]int{from, to}]; c > best {
				best = c
			}
		}
		if float64(best)/float64(totals[from]) > 0.2 {
			dominated++
		}
	}
	if dominated < 10 {
		t.Fatalf("only %d/20 tokens have a dominant successor; chain too uniform", dominated)
	}
}

func TestTextBatchShapes(t *testing.T) {
	c, err := NewText(2, 30)
	if err != nil {
		t.Fatal(err)
	}
	in, tg := c.Batch(0, 1, 4, 8, 15)
	if len(in) != 8 || len(tg) != 8 {
		t.Fatalf("batch size %d/%d", len(in), len(tg))
	}
	for i := range in {
		if len(in[i]) != 15 || len(tg[i]) != 15 {
			t.Fatalf("sequence %d has lengths %d/%d", i, len(in[i]), len(tg[i]))
		}
	}
}

func TestTextValidation(t *testing.T) {
	if _, err := NewText(1, 1); err == nil {
		t.Error("vocab 1 accepted")
	}
}

// TestImagesBatchIntoWritesItsSamples: BatchInto and EvalBatchInto
// write, over whatever the caller's batch held before, exactly the
// samples their partitioning names — the ones a fresh sample draws, bit
// for bit — and allocate nothing.
func TestImagesBatchIntoWritesItsSamples(t *testing.T) {
	d, err := NewImages(5, 10, 3, 4, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	x, labels := tensor.NewMatrix(6, d.Dim()), make([]int, 6)
	same := func(what string, base uint64) {
		t.Helper()
		for i, l := range labels {
			want, wantL := sample(d, base+uint64(i))
			if l != wantL {
				t.Fatalf("%s: label %d = %d, want %d", what, i, l, wantL)
			}
			for j, v := range x.Row(i) {
				if math.Float32bits(v) != math.Float32bits(want[j]) {
					t.Fatalf("%s: row %d pixel %d = %v, want %v", what, i, j, v, want[j])
				}
			}
		}
	}
	for i := range x.Data {
		x.Data[i] = float32(math.NaN())
	}
	d.BatchInto(x, labels, 7, 1, 3)
	same("BatchInto", (7*3+1)*6)
	d.EvalBatchInto(x, labels, 2)
	same("EvalBatchInto", 1<<40+2*6)
	if allocs := testing.AllocsPerRun(10, func() { d.BatchInto(x, labels, 8, 0, 3) }); allocs != 0 {
		t.Fatalf("BatchInto: %v allocations, want 0", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BatchInto with 6 rows and 5 labels did not panic")
		}
	}()
	d.BatchInto(x, labels[:5], 0, 0, 1)
}
