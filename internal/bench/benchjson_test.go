package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gtopkssgd/internal/core"
)

// benchArtifactPath locates the checked-in BENCH_gtopk.json at the repo
// root (this package lives at internal/bench).
func benchArtifactPath() string {
	return filepath.Join("..", "..", "BENCH_gtopk.json")
}

// TestBenchArtifactSchema is the regeneration guard: the committed
// BENCH_gtopk.json is rewritten by four different experiments
// (codec-bytes, hierarchy, quorum, quorum_hier), each of which must
// preserve the others' sections — this test fails the build if any known
// section has been silently dropped or emptied by a regeneration, or no
// longer clears its count or model acceptance bar.
func TestBenchArtifactSchema(t *testing.T) {
	report, err := loadArtifact(benchArtifactPath())
	if err != nil {
		t.Fatalf("checked-in artifact unreadable: %v", err)
	}
	if report.Schema != artifactSchema {
		t.Fatalf("schema %q, want %q", report.Schema, artifactSchema)
	}
	if report.Seed == 0 || report.GoVersion == "" || report.GOOS == "" || report.GOARCH == "" {
		t.Fatalf("environment stamp incomplete: seed=%d go=%q %s/%s", report.Seed, report.GoVersion, report.GOOS, report.GOARCH)
	}

	// codec_bytes section: one row per (rho, codec) at the full design
	// size, every codec of the one list at both densities.
	cb := report.CodecBytes
	if cb == nil {
		t.Fatal("codec_bytes section missing (a regeneration dropped it)")
	}
	if cb.Dim != codecBytesDim || cb.Workers != codecBytesWorkers || cb.Rounds != codecBytesRounds {
		t.Fatalf("codec_bytes committed at dim=%d P=%d rounds=%d, want the default configuration %d/%d/%d (a -quick capture?)",
			cb.Dim, cb.Workers, cb.Rounds, codecBytesDim, codecBytesWorkers, codecBytesRounds)
	}
	if len(cb.Rows) != 2*len(codecBytesCodecs) {
		t.Fatalf("codec_bytes has %d rows, want %d codecs x 2 densities", len(cb.Rows), len(codecBytesCodecs))
	}
	for i, c := range cb.Rows {
		if c.Name == "" || c.Codec == "" || c.WireBytesPerRank <= 0 || c.BytesReduction <= 0 {
			t.Fatalf("malformed codec_bytes row %+v", c)
		}
		if want := codecBytesCodecs[i%len(codecBytesCodecs)].String(); c.Codec != want {
			t.Fatalf("codec_bytes row %d is %s, want %s (one codec list, in order, per density)", i, c.Codec, want)
		}
		if i%len(codecBytesCodecs) > 0 && c.WireBytesPerRank >= cb.Rows[i-1].WireBytesPerRank {
			t.Fatalf("codec_bytes: %s ships %d B, not fewer than %s's %d", c.Name, c.WireBytesPerRank, cb.Rows[i-1].Name, cb.Rows[i-1].WireBytesPerRank)
		}
	}

	// hierarchy section: the flat-vs-hierarchical sweep with per-(G,rho)
	// crossovers.
	h := report.Hierarchy
	if h == nil {
		t.Fatal("hierarchy section missing (a regeneration dropped it)")
	}
	if h.Dim <= 0 || h.AlphaUS <= 0 || h.BetaNS <= 0 || h.SyncGamma <= 0 {
		t.Fatalf("hierarchy model stamp malformed: %+v", h)
	}
	if len(h.Sweep) == 0 || len(h.Crossovers) == 0 {
		t.Fatalf("hierarchy sweep/crossovers empty: %d/%d", len(h.Sweep), len(h.Crossovers))
	}
	seen := map[[2]interface{}]bool{}
	for _, r := range h.Sweep {
		if r.P < 2 || r.G < 2 || r.G >= r.P || r.K < 1 {
			t.Fatalf("malformed hierarchy cell %+v", r)
		}
		if r.FlatUS <= 0 || r.HierUS <= 0 || r.ModelFlatUS <= 0 || r.ModelHierUS <= 0 || r.Speedup <= 0 {
			t.Fatalf("hierarchy cell with non-positive timings %+v", r)
		}
		seen[[2]interface{}{r.G, r.Rho}] = true
	}
	// The hierarchy runs the flat tree's round count (they tie at γ=0,
	// pinned in netsim), so under skew its smaller synchronization
	// domains win from the smallest world each (G, rho) is swept at.
	for _, c := range h.Crossovers {
		if !seen[[2]interface{}{c.G, c.Rho}] {
			t.Fatalf("crossover for unswept configuration %+v", c)
		}
		minP := 0
		for _, r := range h.Sweep {
			if r.G == c.G && r.Rho == c.Rho && (minP == 0 || r.P < minP) {
				minP = r.P
			}
		}
		if c.CrossP != minP {
			t.Fatalf("crossover %+v, want the smallest swept P=%d — the hierarchy costs no extra round, so skew alone decides", c, minP)
		}
	}

	// quorum section: the straggler-tolerant sweep under a WAN straggler.
	qu := report.Quorum
	if qu == nil {
		t.Fatal("quorum section missing (a regeneration dropped it)")
	}
	if qu.Dim <= 0 || qu.K < 1 || qu.P < 2 || qu.Rounds < 1 ||
		qu.SlowRank < 0 || qu.SlowRank >= qu.P || qu.TimeoutMS <= 0 || qu.DelayMS <= qu.TimeoutMS {
		t.Fatalf("quorum workload stamp malformed: %+v", qu)
	}
	if qu.IntraAlphaUS <= 0 || qu.InterAlphaUS <= qu.IntraAlphaUS {
		t.Fatalf("quorum link models malformed (inter must dwarf intra): %+v", qu)
	}
	if len(qu.Rows) < 2 {
		t.Fatalf("quorum sweep has %d rows, want the q=P anchor plus at least one q<P row", len(qu.Rows))
	}
	fullSync, quorumWins := false, false
	for _, r := range qu.Rows {
		if r.Q < core.QuorumMin(qu.P) || r.Q > qu.P || r.SimUS <= 0 || r.Speedup <= 0 {
			t.Fatalf("malformed quorum row %+v", r)
		}
		if r.Q == qu.P {
			if r.MissedRounds != 0 {
				t.Fatalf("q=P row recorded %d missed rounds, want 0 (full sync only arrives late)", r.MissedRounds)
			}
			fullSync = true
		} else {
			if r.MissedRounds != qu.Rounds {
				t.Fatalf("q=%d row missed %d/%d rounds — the %dms delay against the %dms deadline must make the straggler miss every round",
					r.Q, r.MissedRounds, qu.Rounds, qu.DelayMS, qu.TimeoutMS)
			}
			if r.Speedup > 1 {
				quorumWins = true
			}
		}
	}
	if !fullSync {
		t.Fatal("quorum sweep lacks the q=P full-sync anchor row")
	}
	if !quorumWins {
		t.Fatal("no q<P row with speedup > 1 — closing rounds without the WAN straggler must pay off")
	}

	// quorum_hier section: per-level deadline budgets at the P>=64 scale,
	// where the hierarchy sweep shows it winning.
	qh := report.QuorumHier
	if qh == nil {
		t.Fatal("quorum_hier section missing (a regeneration dropped it)")
	}
	if qh.P < 64 || qh.G != 4 {
		t.Fatalf("quorum_hier committed at P=%d G=%d, want the P>=64, G=4 regime", qh.P, qh.G)
	}
	if qh.Dim <= 0 || qh.K < 1 || qh.Rounds < 1 || qh.NumGroups != (qh.P+qh.G-1)/qh.G ||
		qh.SlowRank < 0 || qh.SlowRank >= qh.P || qh.SlowRank%qh.G == 0 {
		t.Fatalf("quorum_hier workload stamp malformed (the slow rank must be a non-leader member): %+v", qh)
	}
	if qh.GroupMS <= 0 || qh.LeaderMS <= 0 || qh.BroadcastMS <= 0 ||
		qh.GroupMS+qh.LeaderMS+qh.BroadcastMS > qh.TimeoutMS ||
		qh.DelayMS <= qh.GroupMS || qh.DelayMS <= qh.LeaderMS {
		t.Fatalf("quorum_hier budgets malformed (levels must fit the round deadline and the delay must dwarf the gather budgets): %+v", qh)
	}
	if qh.IntraAlphaUS <= 0 || qh.InterAlphaUS <= qh.IntraAlphaUS {
		t.Fatalf("quorum_hier link models malformed (inter must dwarf intra): %+v", qh)
	}
	if len(qh.Rows) < 2 {
		t.Fatalf("quorum_hier sweep has %d rows, want the full-sync anchor plus at least one partial row", len(qh.Rows))
	}
	hierAnchor, memberWin := false, false
	for _, r := range qh.Rows {
		if r.QG < core.QuorumMin(qh.G) || r.QG > qh.G || r.QL < core.QuorumMin(qh.NumGroups) || r.QL > qh.NumGroups ||
			r.SimUS <= 0 || r.Speedup <= 0 {
			t.Fatalf("malformed quorum_hier row %+v", r)
		}
		if r.QG == qh.G && r.QL == qh.NumGroups {
			if r.MissedRanks != 0 || r.MissedRounds != 0 {
				t.Fatalf("full-sync anchor row recorded misses %+v (full sync only arrives late)", r)
			}
			hierAnchor = true
			continue
		}
		if r.MissedRanks < 1 || r.MissedRounds != qh.Rounds {
			t.Fatalf("partial row %+v missed %d ranks over %d/%d rounds — the %dms delay must make the straggler miss every round",
				r, r.MissedRanks, r.MissedRounds, qh.Rounds, qh.DelayMS)
		}
		// The acceptance bar: excluding one WAN member must buy >= 1.5x
		// over the full-sync hierarchical anchor.
		if r.MissedRanks == 1 && r.Speedup >= 1.5 {
			memberWin = true
		}
	}
	if !hierAnchor {
		t.Fatal("quorum_hier sweep lacks the full-sync (q_g=G, q_l=all) anchor row")
	}
	if !memberWin {
		t.Fatal("no single-member-miss row with speedup >= 1.5 over full-sync hierarchical — the per-level budget acceptance bar")
	}
}

// TestBenchArtifactReproduces is what makes the artifact evidence rather
// than a recording: every committed number is a count or comes off the
// α-β clock, i.e. is a pure function of (seed, code), so each section is
// regenerated at the committed seed and size and must equal the
// committed rows field for field. Editing a number in BENCH_gtopk.json
// by hand, or changing what the code ships or charges without
// regenerating, fails here.
func TestBenchArtifactReproduces(t *testing.T) {
	report, err := loadArtifact(benchArtifactPath())
	if err != nil {
		t.Fatalf("checked-in artifact unreadable: %v", err)
	}
	if report.CodecBytes == nil || report.Hierarchy == nil ||
		report.Quorum == nil || report.QuorumHier == nil {
		t.Fatal("artifact lacks a section (see TestBenchArtifactSchema)")
	}
	opt := Options{Seed: report.Seed}
	same := func(t *testing.T, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("regenerated rows differ from the committed ones\n got: %+v\nwant: %+v", got, want)
		}
	}
	skipUnderRace := func(t *testing.T) {
		t.Helper()
		if raceEnabled {
			t.Skip("trimmed under the race detector (see raceEnabled)")
		}
	}

	t.Run("codec_bytes", func(t *testing.T) {
		cb := report.CodecBytes
		half := len(cb.Rows) / 2
		for i, rho := range []float64{0.001, 0.01} {
			if i > 0 && raceEnabled {
				break
			}
			got, err := codecBytesRows(cb.Dim, rho, report.Seed)
			if err != nil {
				t.Fatal(err)
			}
			same(t, got, cb.Rows[i*half:(i+1)*half])
		}
	})
	t.Run("hierarchy", func(t *testing.T) {
		skipUnderRace(t)
		// The P <= 32 cells only: the full sweep to P=256 takes 25 s, and
		// a row depends on nothing but its own (P, G, rho).
		var want []HierarchyResult
		for _, r := range report.Hierarchy.Sweep {
			if r.P <= 32 {
				want = append(want, r)
			}
		}
		got, err := hierarchySweep(report.Seed, report.Hierarchy.Dim,
			[]int{16, 32}, []int{4, 8, 16}, []float64{0.001, 0.01})
		if err != nil {
			t.Fatal(err)
		}
		same(t, got, want)
	})
	t.Run("quorum", func(t *testing.T) {
		skipUnderRace(t)
		same(t, regenerateQuorum(t, Quorum, opt), report.Quorum)
	})
	t.Run("quorum_hier", func(t *testing.T) {
		skipUnderRace(t)
		same(t, regenerateQuorum(t, QuorumHier, opt), report.QuorumHier)
	})

	// The generic walk reads the file as the next tool would — with no Go
	// types — and holds it to the artifact's contract: every section is
	// an object whose arrays hold the result rows; every numeric field of
	// a row is a sweep coordinate or carries a kind, count or modelled,
	// from the section's `kind` or its per-field `kinds`; and no key of
	// the retired wall-clock half survives anywhere.
	t.Run("kinds", func(t *testing.T) {
		data, err := os.ReadFile(benchArtifactPath())
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		if err := checkArtifactKinds(doc); err != nil {
			t.Fatal(err)
		}
	})
}

// regenerateQuorum runs a quorum sweep, again if its own schedule check
// fails. Until ROADMAP item 3 puts deadlines on a virtual clock, the
// quorum experiments decide who missed a round with real 15-75 ms
// timers, so a starved host can make a fast rank miss one. They check
// every round's missed set against the intended schedule themselves and
// return an error instead of numbers when it differs, so trying again
// cannot let a wrong number through — only a slow host.
func regenerateQuorum[S any](t *testing.T, sweep func(context.Context, Options) (string, S, error), opt Options) S {
	t.Helper()
	const attempts = 5
	for i := 1; ; i++ {
		_, section, err := sweep(context.Background(), opt)
		if err == nil {
			return section
		}
		if i == attempts {
			t.Fatal(err)
		}
		t.Logf("attempt %d: %v", i, err)
	}
}

// artifactCoordinates are the numeric row fields that name a sweep point
// rather than report a result; every other number in a row needs a kind.
var artifactCoordinates = map[string]bool{"rho": true, "p": true, "g": true, "q": true, "q_g": true, "q_l": true}

// artifactRetiredKeys are the fields of the deleted wall-clock half of
// the old harness; none may reappear at any depth.
var artifactRetiredKeys = []string{
	"ns_per_op", "num_cpu", "percentiles", "baseline", "prev", "current", "speedups", "vs_prev",
	"selection", "measured_ns_per_op", "speedup_measured", "critical_path_ns_per_op",
}

// checkArtifactKinds is the generic walk of TestBenchArtifactReproduces.
func checkArtifactKinds(doc map[string]any) error {
	var retired func(path string, v any) error
	retired = func(path string, v any) error {
		switch v := v.(type) {
		case map[string]any:
			for _, key := range artifactRetiredKeys {
				if _, ok := v[key]; ok {
					return fmt.Errorf("%s carries the retired key %q", path, key)
				}
			}
			for key, child := range v {
				if err := retired(path+"."+key, child); err != nil {
					return err
				}
			}
		case []any:
			for i, child := range v {
				if err := retired(fmt.Sprintf("%s[%d]", path, i), child); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := retired("artifact", doc); err != nil {
		return err
	}
	for name, v := range doc {
		section, ok := v.(map[string]any)
		if !ok {
			continue // environment stamp
		}
		kinds, _ := section["kinds"].(map[string]any)
		for field, v := range section {
			rows, ok := v.([]any)
			if !ok {
				continue // workload stamp
			}
			for i, row := range rows {
				obj, ok := row.(map[string]any)
				if !ok {
					return fmt.Errorf("%s.%s[%d] is not a result row object", name, field, i)
				}
				for key, val := range obj {
					if _, numeric := val.(float64); !numeric || artifactCoordinates[key] {
						continue
					}
					kind, ok := kinds[key]
					if !ok {
						kind, ok = section["kind"]
					}
					if !ok {
						return fmt.Errorf("%s.%s[%d].%s has no kind", name, field, i, key)
					}
					if kind != kindCount && kind != kindModelled {
						return fmt.Errorf("%s.%s[%d].%s has kind %v, want %s or %s", name, field, i, key, kind, kindCount, kindModelled)
					}
				}
			}
		}
	}
	return nil
}

// TestArtifactKindsWalkRejects pins the walk itself: each doctored
// artifact breaks exactly one clause of the contract.
func TestArtifactKindsWalkRejects(t *testing.T) {
	doc := func(section string) map[string]any {
		var d map[string]any
		if err := json.Unmarshal([]byte(`{"seed": 42, "s": `+section+`}`), &d); err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, tc := range []struct{ name, section, want string }{
		{"section-kind", `{"dim": 8, "kind": "count", "rows": [{"rho": 0.1, "bytes": 3}]}`, ""},
		{"field-kinds", `{"kinds": {"k": "count", "sim_us": "modelled"}, "rows": [{"q": 3, "k": 2, "sim_us": 9}]}`, ""},
		{"untagged-field", `{"kinds": {"k": "count"}, "rows": [{"q": 3, "k": 2, "sim_us": 9}]}`, "s.rows[0].sim_us has no kind"},
		{"measured-kind", `{"kind": "measured", "rows": [{"bytes": 3}]}`, "has kind measured"},
		{"retired-key", `{"kind": "count", "rows": [{"bytes": 3, "ns_per_op": 7}]}`, `retired key "ns_per_op"`},
		{"retired-section-stamp", `{"kind": "count", "num_cpu": 1, "rows": []}`, `retired key "num_cpu"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkArtifactKinds(doc(tc.section))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("well-formed artifact rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
