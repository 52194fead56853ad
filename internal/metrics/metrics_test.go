package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestBreakdownFractionsSumToOne(t *testing.T) {
	b := Breakdown{
		Compute:  300 * time.Millisecond,
		Compress: 100 * time.Millisecond,
		Comm:     600 * time.Millisecond,
	}
	if b.Total() != time.Second {
		t.Fatalf("total = %v", b.Total())
	}
	c1, c2, c3 := b.Fractions()
	if math.Abs(c1+c2+c3-1) > 1e-12 {
		t.Fatalf("fractions sum to %v", c1+c2+c3)
	}
	if math.Abs(c1-0.3) > 1e-12 || math.Abs(c2-0.1) > 1e-12 || math.Abs(c3-0.6) > 1e-12 {
		t.Fatalf("fractions = %v %v %v", c1, c2, c3)
	}
}

func TestZeroBreakdown(t *testing.T) {
	var b Breakdown
	c1, c2, c3 := b.Fractions()
	if c1 != 0 || c2 != 0 || c3 != 0 || b.ScalingEfficiency() != 0 {
		t.Fatal("zero breakdown should yield zeros")
	}
}

func TestScalingEfficiencyEq4(t *testing.T) {
	// e = (tf+tb)/(tf+tb+tc): 200ms compute, 50ms overhead -> 0.8.
	b := Breakdown{Compute: 200 * time.Millisecond, Comm: 50 * time.Millisecond}
	if got := b.ScalingEfficiency(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("efficiency = %v, want 0.8", got)
	}
}

func TestThroughput(t *testing.T) {
	// 32 workers x 128 images in 2s = 2048 img/s.
	if got := Throughput(32, 128, 2*time.Second); math.Abs(got-2048) > 1e-9 {
		t.Fatalf("throughput = %v", got)
	}
	if Throughput(1, 1, 0) != 0 {
		t.Fatal("zero iter time should yield 0")
	}
}

func TestEpochMeans(t *testing.T) {
	losses := []float64{4, 2, 3, 1, 5}
	got := EpochMeans(losses, 2)
	want := []float64{3, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epoch %d = %v, want %v", i, got[i], want[i])
		}
	}
	if EpochMeans(nil, 2) != nil {
		t.Fatal("empty input should yield nil")
	}
	if EpochMeans(losses, 0) != nil {
		t.Fatal("zero epoch size should yield nil")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("P", "TopK", "gTopK")
	tb.AddRowf(4, 2.3, 150*time.Millisecond)
	tb.AddRowf(128, 0.5, 2500*time.Millisecond)
	out := tb.String()
	if !strings.Contains(out, "P") || !strings.Contains(out, "gTopK") {
		t.Fatalf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "150.0ms") || !strings.Contains(out, "2.50s") {
		t.Fatalf("duration formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + separator + 2 rows
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	// All lines align to the same width per column; check the separator
	// line is dashes and spaces only.
	for _, r := range lines[1] {
		if r != '-' && r != ' ' {
			t.Fatalf("separator line corrupted: %q", lines[1])
		}
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "dropped")
	out := tb.String()
	if strings.Contains(out, "dropped") {
		t.Fatalf("extra cell kept:\n%s", out)
	}
}

func TestFormatDurationUnits(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Microsecond:  "0.500ms",
		36 * time.Millisecond:   "36.0ms",
		1500 * time.Millisecond: "1.50s",
	}
	for in, want := range cases {
		if got := formatDuration(in); got != want {
			t.Errorf("formatDuration(%v) = %q, want %q", in, got, want)
		}
	}
}
