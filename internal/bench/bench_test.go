package bench

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gtopkssgd/internal/algo"
	"gtopkssgd/internal/netsim"
)

func TestTable1ContainsAllAlgorithms(t *testing.T) {
	out := Table1(netsim.Paper1GbE())
	for _, want := range []string{"DenseAllReduce", "TopKAllReduce", "gTopKAllReduce", "O(k logP)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig8Deterministic(t *testing.T) {
	a := Fig8(netsim.Paper1GbE(), 5, 42)
	b := Fig8(netsim.Paper1GbE(), 5, 42)
	if a != b {
		t.Fatal("Fig8 not deterministic for equal seeds")
	}
	if !strings.Contains(a, "1000000") {
		t.Fatalf("missing 1e6-parameter row:\n%s", a)
	}
}

func TestFig9ShapeMatchesPaper(t *testing.T) {
	out := Fig9(netsim.Paper1GbE())
	// The paper's qualitative claim: the topk/gtopk ratio grows with P.
	// The rendered ratios for P=4 and P=128 must straddle 1 and ~6.
	if !strings.Contains(out, "P") {
		t.Fatalf("bad table:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	var ratios []string
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 4 && (f[0] == "4" || f[0] == "128") {
			ratios = append(ratios, f[3])
		}
	}
	if len(ratios) < 2 {
		t.Fatalf("could not find P=4 and P=128 rows:\n%s", out)
	}
}

func TestFig10EfficiencyOrdering(t *testing.T) {
	out := Fig10(netsim.Paper1GbE())
	for _, model := range []string{"VGG-16", "ResNet-20", "AlexNet", "ResNet-50"} {
		if !strings.Contains(out, model) {
			t.Errorf("missing model %s", model)
		}
	}
}

func TestTable4SpeedupShapes(t *testing.T) {
	// The paper's headline numbers: gTop-k is 2.7-12.8x over dense and
	// 1.1-1.7x over Top-k at P=32. Our pure alpha-beta substrate will not
	// hit those exact multipliers, but g/d must exceed 1.5x on every
	// model and g/t must be >= 1.0x.
	out := Table4(netsim.Paper1GbE())
	lines := strings.Split(out, "\n")
	found := 0
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 6 && strings.HasSuffix(f[len(f)-1], "x") {
			found++
			gd := f[len(f)-2]
			gt := f[len(f)-1]
			if !parseAtLeast(t, gd, 1.5) {
				t.Errorf("g/d speedup %s too small in %q", gd, l)
			}
			if !parseAtLeast(t, gt, 1.0) {
				t.Errorf("g/t speedup %s below 1 in %q", gt, l)
			}
		}
	}
	if found != 4 {
		t.Fatalf("expected 4 model rows, found %d:\n%s", found, out)
	}
}

func parseAtLeast(t *testing.T, s string, min float64) bool {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("cannot parse speedup %q: %v", s, err)
	}
	return v >= min
}

func TestFig11FractionsPresent(t *testing.T) {
	out := Fig11(netsim.Paper1GbE())
	if !strings.Contains(out, "%") || !strings.Contains(out, "AlexNet") {
		t.Fatalf("breakdown malformed:\n%s", out)
	}
}

func TestLookupKnownAndUnknown(t *testing.T) {
	if _, err := Lookup("fig9"); err != nil {
		t.Fatalf("fig9 not found: %v", err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentIDsUniqueAndSorted(t *testing.T) {
	exps := Experiments()
	seen := map[string]bool{}
	for i, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if i > 0 && exps[i-1].ID >= e.ID {
			t.Errorf("ids not sorted: %s >= %s", exps[i-1].ID, e.ID)
		}
		if e.Description == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestTrainSpecValidate(t *testing.T) {
	good := TrainSpec{Spec: algo.Spec{Algo: "gtopk", Density: 0.1, ItersPerEpoch: 2},
		Model: "mlp", Workers: 2, Batch: 4, Epochs: 1, LR: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := good
	bad.Workers = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero workers accepted")
	}
	bad = good
	bad.Density = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero density accepted for sparse algo")
	}
	bad.Algo = "dense"
	if err := bad.Validate(); err != nil {
		t.Errorf("dense with zero density rejected: %v", err)
	}
}

func TestRunTrainingMLPAllAlgos(t *testing.T) {
	for _, name := range []string{"dense", "topk", "gtopk", "gtopk-naive", "gtopk-ps", "gtopk-layerwise"} {
		t.Run(name, func(t *testing.T) {
			spec := TrainSpec{
				Spec:  algo.Spec{Algo: name, Density: 0.01, ItersPerEpoch: 5, Seed: 7},
				Model: "mlp", Workers: 4, Batch: 8,
				Epochs: 2, LR: 0.1, Momentum: 0.9,
			}
			curve, err := RunTraining(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(curve.EpochLoss) != 2 {
				t.Fatalf("epochs = %d", len(curve.EpochLoss))
			}
			if curve.EpochLoss[0] <= 0 {
				t.Fatalf("loss %v", curve.EpochLoss[0])
			}
			if curve.SimTime <= 0 {
				t.Fatalf("no simulated time recorded")
			}
		})
	}
}

func TestRunTrainingUnknownModelAndAlgo(t *testing.T) {
	spec := TrainSpec{Spec: algo.Spec{Algo: "gtopk", Density: 0.1, ItersPerEpoch: 1},
		Model: "nope", Workers: 2, Batch: 2, Epochs: 1, LR: 0.1}
	if _, err := RunTraining(context.Background(), spec); err == nil {
		t.Error("unknown model accepted")
	}
	spec.Model = "mlp"
	spec.Algo = "nope"
	if _, err := RunTraining(context.Background(), spec); err == nil {
		t.Error("unknown algo accepted")
	}
}

func TestQuickExperimentsSmoke(t *testing.T) {
	// Every analytic experiment must run instantly; training-based ones
	// are covered by the quick profile in TestQuickTrainingExperiments.
	for _, id := range []string{"table1", "fig8", "fig9", "fig10", "table4", "fig11"} {
		exp, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := exp.Run(context.Background(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) < 50 {
			t.Fatalf("%s produced suspiciously short output:\n%s", id, out)
		}
	}
}

func TestQuickTrainingExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiments are slow")
	}
	for _, id := range []string{"fig1", "fig7", "ps-mode"} {
		exp, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := exp.Run(context.Background(), Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(out, "epoch") {
			t.Fatalf("%s output lacks epoch table:\n%s", id, out)
		}
	}
}

func TestCurveTableAlignsRaggedCurves(t *testing.T) {
	c1 := &TrainCurve{Spec: TrainSpec{Spec: algo.Spec{Algo: "a"}}, EpochLoss: []float64{1, 2}}
	c2 := &TrainCurve{Spec: TrainSpec{Spec: algo.Spec{Algo: "b"}}, EpochLoss: []float64{3}}
	out := CurveTable("t", []*TrainCurve{c1, c2})
	if !strings.Contains(out, "2.0000") {
		t.Fatalf("missing epoch 2 for curve a:\n%s", out)
	}
}

// TestHotPathMeasuresThePrintedCodec: a codec-bytes row labelled with a
// wire codec must have moved that codec's bytes — at either density each
// step along the one codec list ships strictly fewer bytes per rank than
// the last — and the bytes are exact per seed: a second run in the same
// process returns identical rows.
func TestHotPathMeasuresThePrintedCodec(t *testing.T) {
	// Half the -quick size keeps the race-detector run short; the committed
	// full-size rows are held to the same order by TestBenchArtifactSchema.
	const dim = codecBytesQuickDim / 2
	want := []string{"v1", "v3", "v3-qsgd8", "v3-qsgd2", "v3-ternary", "v3-sign"}
	for _, rho := range []float64{0.001, 0.01} {
		t.Run(fmt.Sprintf("rho=%g", rho), func(t *testing.T) {
			rows, err := codecBytesRows(dim, rho, 42)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(want) {
				t.Fatalf("%d rows, want one per codec of %v", len(rows), want)
			}
			for i, r := range rows {
				if r.Codec != want[i] || r.Rho != rho {
					t.Fatalf("row %d is %s at rho=%g, want %s at rho=%g", i, r.Codec, r.Rho, want[i], rho)
				}
				if i > 0 && r.WireBytesPerRank >= rows[i-1].WireBytesPerRank {
					t.Errorf("%s moved %d B/rank/round, not fewer than %s's %d",
						r.Codec, r.WireBytesPerRank, rows[i-1].Codec, rows[i-1].WireBytesPerRank)
				}
				if got := float64(rows[0].WireBytesPerRank) / float64(r.WireBytesPerRank); r.BytesReduction != got {
					t.Errorf("%s bytes_reduction %v is not v1/%s at this density (%v)", r.Codec, r.BytesReduction, r.Codec, got)
				}
			}
			again, err := codecBytesRows(dim, rho, 42)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rows, again) {
				t.Fatalf("second run differs from the first\n 1st: %+v\n 2nd: %+v", rows, again)
			}
		})
	}
}
