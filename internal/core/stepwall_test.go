package core_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"

	"gtopkssgd/internal/algo"
	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/data"
	"gtopkssgd/internal/nn/models"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// stepRow is one row of the training-step wall: an algorithm spec built
// through algo.Build, the trainer's momentum, and the fabric it runs on.
type stepRow struct {
	name string
	spec algo.Spec
	mu   float32
	tcp  bool
}

// stepWallRows lists the wall's rows at P = 4: every algo.Names() entry
// at µ ∈ {0, 0.9} over v1; each aggregator that runs the gTop-k tree
// over v3 and v3-qsgd8 (its v1 row is the µ = 0.9 one); gtopk over a
// hierarchy of G = 2 and under a quorum of q = P; and gtopk over TCP for
// v1 and v3-qsgd8.
func stepWallRows() []stepRow {
	var rows []stepRow
	for _, name := range algo.Names() {
		for _, mu := range []float32{0, 0.9} {
			rows = append(rows, stepRow{name: fmt.Sprintf("%s/mu=%v", name, mu), spec: algo.Spec{Algo: name}, mu: mu})
		}
	}
	for _, name := range []string{"gtopk", "gtopk-hier", "gtopk-layerwise", "gtopk-bucketed"} {
		for _, c := range []sparse.Codec{sparse.CodecV3, sparse.CodecV3Q8} {
			rows = append(rows, stepRow{name: fmt.Sprintf("%s/mu=0.9/%v", name, c), spec: algo.Spec{Algo: name, Wire: c}, mu: 0.9})
		}
	}
	return append(rows,
		stepRow{name: "gtopk/mu=0.9/g=2", spec: algo.Spec{Algo: "gtopk", HierGroup: 2}, mu: 0.9},
		stepRow{name: "gtopk/mu=0.9/quorum=4", spec: algo.Spec{Algo: "gtopk", Quorum: core.QuorumConfig{Q: 4, Timeout: time.Minute}}, mu: 0.9},
		stepRow{name: "gtopk/mu=0.9/tcp/v1", spec: algo.Spec{Algo: "gtopk"}, mu: 0.9, tcp: true},
		stepRow{name: "gtopk/mu=0.9/tcp/v3-qsgd8", spec: algo.Spec{Algo: "gtopk", Wire: sparse.CodecV3Q8}, mu: 0.9, tcp: true},
	)
}

// stepWant is the wall's recorded hashes, one per row: {quadratic, MLP}.
var stepWant = map[string][2]uint64{
	"dense/mu=0":                      {0x0bac48a6b77e0b6d, 0xf7d1a215bd2bb7d3},
	"dense/mu=0.9":                    {0xd8916f96425f1459, 0xff10ca88e92fb86c},
	"topk/mu=0":                       {0x1445e68efa9e6a3b, 0x451c8045ff2b786c},
	"topk/mu=0.9":                     {0x56c9da153a389273, 0x2b04a4d893b0829c},
	"gtopk/mu=0":                      {0x622fb35909d7626f, 0xedd8f9c49a9c8095},
	"gtopk/mu=0.9":                    {0xf1838862a833905b, 0xb43347a58ef9d3df},
	"gtopk-hier/mu=0":                 {0x622fb35909d7626f, 0xedd8f9c49a9c8095},
	"gtopk-hier/mu=0.9":               {0xf1838862a833905b, 0xb43347a58ef9d3df},
	"gtopk-naive/mu=0":                {0xda1691f6cde6a416, 0x654bd4656828c3a8},
	"gtopk-naive/mu=0.9":              {0x2f094d080081fd55, 0x185b1e113e2d4d69},
	"gtopk-ps/mu=0":                   {0xda1691f6cde6a416, 0x654bd4656828c3a8},
	"gtopk-ps/mu=0.9":                 {0x2f094d080081fd55, 0x185b1e113e2d4d69},
	"gtopk-layerwise/mu=0":            {0xb5afa74971ab2bff, 0xa6977766425beccf},
	"gtopk-layerwise/mu=0.9":          {0xedb619a489ead597, 0xd21567c7fdb46712},
	"gtopk-bucketed/mu=0":             {0xb5afa74971ab2bff, 0xa6977766425beccf},
	"gtopk-bucketed/mu=0.9":           {0xedb619a489ead597, 0xd21567c7fdb46712},
	"signsgd/mu=0":                    {0x95802104dc6b26c0, 0xd61cff460fdc713d},
	"signsgd/mu=0.9":                  {0xef31e850a17f86ec, 0x34464de4d0522903},
	"terngrad/mu=0":                   {0x1f79ab9d211435e5, 0xeb5680d774b05890},
	"terngrad/mu=0.9":                 {0xc8bdc8ff37837796, 0xe6f16db185ace748},
	"gtopk-quant8/mu=0":               {0x60c354730e42410c, 0x49d08fccb6defde9},
	"gtopk-quant8/mu=0.9":             {0x14d4f6bf1342e662, 0xd8de49aa14559947},
	"gtopk/mu=0.9/v3":                 {0xf1838862a833905b, 0xb43347a58ef9d3df},
	"gtopk/mu=0.9/v3-qsgd8":           {0x14d4f6bf1342e662, 0xd8de49aa14559947},
	"gtopk-hier/mu=0.9/v3":            {0xf1838862a833905b, 0xb43347a58ef9d3df},
	"gtopk-hier/mu=0.9/v3-qsgd8":      {0x14d4f6bf1342e662, 0xd8de49aa14559947},
	"gtopk-layerwise/mu=0.9/v3":       {0xedb619a489ead597, 0xd21567c7fdb46712},
	"gtopk-layerwise/mu=0.9/v3-qsgd8": {0xedb619a489ead597, 0x0f80241af1bff236},
	"gtopk-bucketed/mu=0.9/v3":        {0xedb619a489ead597, 0xd21567c7fdb46712},
	"gtopk-bucketed/mu=0.9/v3-qsgd8":  {0xedb619a489ead597, 0x0f80241af1bff236},
	"gtopk/mu=0.9/g=2":                {0xf1838862a833905b, 0xb43347a58ef9d3df},
	"gtopk/mu=0.9/quorum=4":           {0xf1838862a833905b, 0xb43347a58ef9d3df},
	"gtopk/mu=0.9/tcp/v1":             {0xf1838862a833905b, 0xb43347a58ef9d3df},
	"gtopk/mu=0.9/tcp/v3-qsgd8":       {0x14d4f6bf1342e662, 0xd8de49aa14559947},
}

// stepProblem is one training problem of the wall: a per-rank gradient
// function over weights that the trainer owns (and, for a model, that
// alias its parameters), with the layer bounds the bucketed algorithms
// split on.
type stepProblem struct {
	name  string
	setup func(rank int) (w []float32, grad core.GradFn, bounds []int)
}

func stepProblems(t *testing.T) []stepProblem {
	ds, err := data.NewImages(5, 4, 1, 1, 8, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	const quadDim = 64
	return []stepProblem{
		{"quadratic", func(rank int) ([]float32, core.GradFn, []int) {
			grad := func(iter int, w, g []float32) float64 {
				var loss float64
				for i := range g {
					target := float32((i*37+rank*11+iter*5)%41)/41 - 0.5
					d := w[i] - target
					g[i] = d * float32(1+i%3)
					loss += float64(d * d)
				}
				return loss / 2
			}
			return make([]float32, quadDim), grad, []int{0, 20, 44, quadDim}
		}},
		{"mlp", func(rank int) ([]float32, core.GradFn, []int) {
			cls := models.MLP(8, 16, 4)
			cls.Net.Init(42)
			return cls.Net.Parameters(), models.GradFn(cls, ds, rank, 4, 8), cls.Net.LayerBounds()
		}},
	}
}

// runStepRow trains one row for steps iterations on one problem and
// hashes every rank-mean loss and each replica's final weights, residual
// and velocity.
func runStepRow(t *testing.T, row stepRow, prob stepProblem, steps int) uint64 {
	t.Helper()
	const p = 4
	spec := row.spec
	spec.Density, spec.Seed = 0.08, 7
	var fabric transport.Fabric
	if row.tcp {
		f, err := transport.NewTCPWithOptions(p, transport.TCPOptions{WireVersion: spec.Codec().WireVersion()})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close() //nolint:errcheck // a test fabric
		fabric = f
	} else {
		f, err := transport.NewInProcWire(p, spec.Codec().WireVersion())
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close() //nolint:errcheck // in-process close never fails
		fabric = f
	}
	trainers := make([]*core.Trainer, p)
	aggs := make([]core.Aggregator, p)
	results, err := core.RunCluster(context.Background(), core.ClusterConfig{Workers: p, Steps: steps, Fabric: fabric},
		func(rank int, comm *collective.Comm) (*core.Trainer, error) {
			w, grad, bounds := prob.setup(rank)
			agg, err := algo.Build(spec, comm, len(w), bounds)
			if err != nil {
				return nil, err
			}
			tr, err := core.NewTrainer(core.TrainConfig{LR: 0.05, Momentum: row.mu}, agg, w, grad)
			trainers[rank], aggs[rank] = tr, agg
			return tr, err
		})
	if err != nil {
		t.Fatalf("%s/%s: %v", row.name, prob.name, err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putVec := func(v []float32) {
		put(uint64(len(v)))
		for _, x := range v {
			put(uint64(math.Float32bits(x)))
		}
	}
	for s := 0; s < steps; s++ {
		var sum float64
		for _, res := range results {
			sum += res.Losses[s]
		}
		put(math.Float64bits(sum / p))
	}
	for r, res := range results {
		putVec(res.FinalWeights)
		var residual []float32
		if sp, ok := aggs[r].(interface{ Sparsifier() *core.Sparsifier }); ok {
			residual = sp.Sparsifier().Residual()
		}
		putVec(residual)
		putVec(trainers[r].Velocity())
	}
	return h.Sum64()
}

// TestTrainingStepGolden is the wall around the whole training step:
// every row of stepWallRows trains 40 steps of a small quadratic and of
// models.MLP at P = 4 through algo.Build and core.RunCluster, and each
// hashes to what it hashed before the step's pieces were rearranged.
// Rows that must agree do: a quorum of q = P and the flat tree, v3 and
// v1, TCP and in-process. The recorded hashes are those of a build that
// rounds x*y + z twice (linux/amd64, GOAMD64=v1); elsewhere the rows
// still run and must agree.
func TestTrainingStepGolden(t *testing.T) {
	const steps = 40
	probs := stepProblems(t)
	got := map[string][2]uint64{}
	for _, row := range stepWallRows() {
		var hs [2]uint64
		for i, prob := range probs {
			hs[i] = runStepRow(t, row, prob, steps)
		}
		got[row.name] = hs
	}
	same := [][2]string{
		{"gtopk/mu=0.9/quorum=4", "gtopk/mu=0.9"},
		{"gtopk/mu=0.9/tcp/v1", "gtopk/mu=0.9"},
		{"gtopk/mu=0.9/tcp/v3-qsgd8", "gtopk/mu=0.9/v3-qsgd8"},
	}
	for _, name := range []string{"gtopk", "gtopk-hier", "gtopk-layerwise", "gtopk-bucketed"} {
		same = append(same, [2]string{name + "/mu=0.9/v3", name + "/mu=0.9"})
	}
	for _, s := range same {
		if got[s[0]] != got[s[1]] {
			t.Errorf("%s hashes %#x, %s %#x: they must train identically", s[0], got[s[0]], s[1], got[s[1]])
		}
	}
	if runtime.GOARCH != "amd64" || fusesMulAdd() {
		return
	}
	for _, row := range stepWallRows() {
		if want, ok := stepWant[row.name]; !ok || got[row.name] != want {
			t.Errorf("%q: {%#016x, %#016x}, recorded %#016x", row.name, got[row.name][0], got[row.name][1], want)
		}
	}
}
