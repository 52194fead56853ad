package netsim

import (
	"math"
	"testing"
	"time"
)

func TestPaperConstants(t *testing.T) {
	m := Paper1GbE()
	if m.Alpha != 436*time.Microsecond {
		t.Errorf("Alpha = %v, want 436µs", m.Alpha)
	}
	if m.Beta != 36*time.Nanosecond {
		t.Errorf("Beta = %v, want 36ns", m.Beta)
	}
}

func TestPointToPointLinear(t *testing.T) {
	m := Paper1GbE()
	t0 := m.PointToPoint(0)
	if t0 != m.Alpha {
		t.Errorf("PointToPoint(0) = %v, want alpha %v", t0, m.Alpha)
	}
	// Doubling elements doubles only the beta term.
	d1 := m.PointToPoint(1000) - t0
	d2 := m.PointToPoint(2000) - t0
	if d2 != 2*d1 {
		t.Errorf("beta term not linear: %v vs %v", d1, d2)
	}
}

func TestPointToPointMatchesPaperScale(t *testing.T) {
	// Paper Fig. 8: transferring 1e6 parameters takes roughly 36 ms + alpha
	// (beta term = 1e6 * 3.6e-5 ms = 36 ms).
	m := Paper1GbE()
	got := m.PointToPoint(1_000_000)
	want := 436*time.Microsecond + 36*time.Millisecond
	if got != want {
		t.Errorf("PointToPoint(1e6) = %v, want %v", got, want)
	}
}

func TestDenseAllReduceFormula(t *testing.T) {
	m := Model{Alpha: time.Millisecond, Beta: time.Microsecond}
	// P=4, m=1000: 2*3*1ms + 2*(3/4)*1000*1µs = 6ms + 1.5ms.
	got := m.DenseAllReduce(4, 1000)
	want := 6*time.Millisecond + 1500*time.Microsecond
	if got != want {
		t.Errorf("DenseAllReduce = %v, want %v", got, want)
	}
	if m.DenseAllReduce(1, 1000) != 0 {
		t.Error("single worker should cost 0")
	}
}

func TestTopKAllReduceFormula(t *testing.T) {
	m := Model{Alpha: time.Millisecond, Beta: time.Microsecond}
	// P=8, k=100: log2(8)*1ms + 2*7*100*1µs = 3ms + 1.4ms.
	got := m.TopKAllReduce(8, 100)
	want := 3*time.Millisecond + 1400*time.Microsecond
	if got != want {
		t.Errorf("TopKAllReduce = %v, want %v", got, want)
	}
}

func TestGTopKAllReduceFormula(t *testing.T) {
	m := Model{Alpha: time.Millisecond, Beta: time.Microsecond}
	// P=8, k=100: 2*3*1ms + 4*100*3*1µs = 6ms + 1.2ms.
	got := m.GTopKAllReduce(8, 100)
	want := 6*time.Millisecond + 1200*time.Microsecond
	if got != want {
		t.Errorf("GTopKAllReduce = %v, want %v", got, want)
	}
}

func TestCrossoverGTopKBeatsTopKAtScale(t *testing.T) {
	// The paper's headline claim (Fig. 9 left): with m=25e6, rho=0.001,
	// TopKAllReduce is competitive at small P but much slower at P >= 16.
	m := Paper1GbE()
	k := 25000 // 0.001 * 25e6
	if m.GTopKAllReduce(4, k) > 2*m.TopKAllReduce(4, k) {
		t.Error("at P=4 gTopK should be within 2x of TopK")
	}
	for _, p := range []int{16, 32, 64, 128} {
		if m.GTopKAllReduce(p, k) >= m.TopKAllReduce(p, k) {
			t.Errorf("P=%d: gTopK (%v) should beat TopK (%v)",
				p, m.GTopKAllReduce(p, k), m.TopKAllReduce(p, k))
		}
	}
}

func TestDenseWorstAtLargeModel(t *testing.T) {
	// Dense ring AllReduce on the full 25e6-element model must dwarf both
	// sparse methods at any P on 1GbE.
	m := Paper1GbE()
	const elems = 25_000_000
	k := elems / 1000
	for _, p := range []int{4, 32} {
		dense := m.DenseAllReduce(p, elems)
		if dense <= m.TopKAllReduce(p, k) || dense <= m.GTopKAllReduce(p, k) {
			t.Errorf("P=%d: dense (%v) should be slowest", p, dense)
		}
	}
}

func TestLinkJitterStatistics(t *testing.T) {
	l := NewLink(Paper1GbE(), 0.05, 42)
	base := float64(l.Model.PointToPoint(100000))
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		sum += float64(l.Transfer(100000))
	}
	mean := sum / n
	// Log-normal with sigma=0.05 has mean exp(sigma^2/2) ~ 1.00125 x base.
	if math.Abs(mean/base-1) > 0.02 {
		t.Errorf("jittered mean %.0f deviates from base %.0f", mean, base)
	}
}

func TestLinkNoJitterDeterministic(t *testing.T) {
	l := NewLink(Paper1GbE(), 0, 1)
	a, b := l.Transfer(512), l.Transfer(512)
	if a != b || a != l.Model.PointToPoint(512) {
		t.Errorf("jitter-free transfer not deterministic: %v %v", a, b)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("zero clock not at 0")
	}
	c.Advance(3 * time.Second)
	c.Advance(2 * time.Second)
	if c.Now() != 5*time.Second {
		t.Fatalf("Advance = %v, want 5s", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("Reset did not rewind")
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-time.Second)
}

func TestRoundSkewAndGammaZeroCompat(t *testing.T) {
	m := Model{Alpha: time.Millisecond, Beta: time.Microsecond}
	// Gamma zero: Round == PointToPoint for every participant count.
	for _, n := range []int{1, 2, 16, 256} {
		if m.Round(n, 7) != m.PointToPoint(7) {
			t.Fatalf("gamma=0 Round(%d,7) = %v, want %v", n, m.Round(n, 7), m.PointToPoint(7))
		}
	}
	s := m.WithSyncSkew(0.5)
	if m.SyncGamma != 0 {
		t.Fatal("WithSyncSkew mutated the receiver")
	}
	// log2(16) = 4, gamma 0.5 => alpha multiplier 3.
	if got, want := s.Round(16, 10), 3*time.Millisecond+10*time.Microsecond; got != want {
		t.Fatalf("skewed Round(16,10) = %v, want %v", got, want)
	}
	// Fewer than two participants never inflate.
	if s.Round(1, 10) != s.PointToPoint(10) {
		t.Fatal("single-participant round inflated")
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 256: 8}
	for n, want := range cases {
		if got := CeilLog2(n); got != want {
			t.Fatalf("CeilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestHierGTopKClosedForm(t *testing.T) {
	m := Paper1GbE().WithSyncSkew(DefaultSyncGamma)
	const p, g, k = 64, 4, 1000
	leaders := p / g
	want := m.Round(g, (g-1)*2*k) +
		time.Duration(2*CeilLog2(leaders)-1)*m.Round(leaders, 2*k) +
		m.Round(g, (g-1)*(2*k+2))
	if got := m.HierGTopK(p, g, k); got != want {
		t.Fatalf("HierGTopK(%d,%d,%d) = %v, want %v", p, g, k, got, want)
	}
	// Degenerate groups collapse to the flat tree.
	for _, gg := range []int{0, 1, p} {
		if m.HierGTopK(p, gg, k) != m.GTopKTree(p, k) {
			t.Fatalf("g=%d does not collapse to the flat tree", gg)
		}
	}
	if m.HierGTopK(1, 1, k) != 0 {
		t.Fatal("single-rank world should cost nothing")
	}
	// With gamma=0 and power-of-two sizes the one-round group legs save
	// 2(⌈log₂g⌉−1) rounds and put 2(g−1−⌈log₂g⌉) more frames through the
	// leader's link, plus the g−1 fan-out headers; at g=2 only a header
	// separates the two.
	flat0 := Paper1GbE()
	for _, pg := range [][2]int{{8, 2}, {8, 4}, {64, 4}, {256, 16}} {
		lg, extra := CeilLog2(pg[1]), pg[1]-1-CeilLog2(pg[1])
		ahead := time.Duration(2*(lg-1))*flat0.Alpha - time.Duration(2*extra*2*k+2*(pg[1]-1))*flat0.Beta
		if got := flat0.GTopKTree(pg[0], k) - flat0.HierGTopK(pg[0], pg[1], k); got != ahead {
			t.Fatalf("gamma=0 P=%d G=%d: the hierarchy is ahead by %v, want %v", pg[0], pg[1], got, ahead)
		}
	}
	// With skew, the crossover the bench records: small frames win from
	// P=16, G=4, k=1049 (rho=0.001 of 2^20) — fewer rounds, smaller
	// domains — and large frames through a large group's leader lose
	// (P=32, G=16, k=10485).
	k1 := 1049
	for _, pp := range []int{16, 64} {
		if m.HierGTopK(pp, 4, k1) >= m.GTopKTree(pp, k1) {
			t.Fatalf("no crossover at P=%d: hier %v vs flat %v", pp, m.HierGTopK(pp, 4, k1), m.GTopKTree(pp, k1))
		}
	}
	if m.HierGTopK(32, 16, 10485) <= m.GTopKTree(32, 10485) {
		t.Fatalf("P=32 G=16 k=10485: hier %v beats flat %v, but its leader moves 15 frames per leg", m.HierGTopK(32, 16, 10485), m.GTopKTree(32, 10485))
	}
}

// TestGTopKTreeIsEq7LessOneRound pins the implemented tree's price
// against the paper's: at power-of-two P, γ = 0, the swap saves exactly
// one α + 2kβ.
func TestGTopKTreeIsEq7LessOneRound(t *testing.T) {
	m := Paper1GbE()
	const k = 1000
	for _, p := range []int{2, 4, 8, 32, 128} {
		if got, want := m.GTopKTree(p, k), m.GTopKAllReduce(p, k)-m.PointToPoint(2*k); got != want {
			t.Fatalf("P=%d: GTopKTree = %v, want Eq. 7 - (alpha + 2k beta) = %v", p, got, want)
		}
	}
	if m.GTopKTree(1, k) != 0 {
		t.Fatal("single-rank world should cost nothing")
	}
}
