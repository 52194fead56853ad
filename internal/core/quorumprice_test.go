package core

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// TestQuorumPriceByLevels pins a quorum round's price at P = 7, flat
// and grouped at G = 3 — groups {0,1,2}, {3,4,5} and the tail {6} —
// under a uniform model with a sync-skew term and under a two-class
// link model whose boundary (ranks 0–3 | 4–6) splits group {3,4,5}:
// with full participation, one missed member and one missed group,
// every rank's clock equals its legs written out from Model.Round and
// PointToPoint over the listed groups. The executor's charge is fed each
// participant set directly (no quorum at G = 3 may miss a rank); the
// full-participation rounds also run end to end.
func TestQuorumPriceByLevels(t *testing.T) {
	const p, g, dim, k = 7, 3, 300, 10
	groups := [][]int{{0, 1, 2}, {3, 4, 5}, {6}}
	leaders := []int{0, 3, 6}
	uniform := netsim.Model{Alpha: time.Millisecond, Beta: time.Nanosecond, SyncGamma: 0.5}
	lm, err := netsim.NewLinkModel(
		netsim.Model{Alpha: time.Millisecond, Beta: time.Nanosecond},
		netsim.Model{Alpha: 40 * time.Millisecond, Beta: 10 * time.Nanosecond}, 4)
	if err != nil {
		t.Fatal(err)
	}
	groupOf := func(r int) []int {
		return groups[slices.IndexFunc(groups, func(grp []int) bool { return slices.Contains(grp, r) })]
	}

	// want is rank r's clock: per leg, a uniform round among that many
	// ranks, or with links the slowest of the leg's (from, to) pairs.
	want := func(links, grouped bool, parts []int, r, nnz int) time.Duration {
		gather, down := 2*k, sparse.EncodedSize(nnz)/4
		var clock time.Duration
		leg := func(among, elems int, pairs ...[2]int) {
			if !links {
				clock += uniform.Round(among, elems)
				return
			}
			var worst time.Duration
			for _, pr := range pairs {
				worst = max(worst, lm.PointToPoint(pr[0], pr[1], elems))
			}
			clock += worst
		}
		if !grouped {
			var in [][2]int
			for _, w := range parts[1:] { // parts[0] is the root, 0
				in = append(in, [2]int{w, 0})
			}
			leg(len(parts), gather, in...)
			if r == 0 {
				leg(p, down, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3}, [2]int{0, 4}, [2]int{0, 5}, [2]int{0, 6})
			} else {
				leg(p, down, [2]int{0, r})
			}
			return clock
		}
		// The group level: each group gathers at its leader, and each
		// leader hands the result to its own group.
		var in [][2]int
		most := 0
		for _, grp := range groups {
			n := 0
			for _, w := range grp {
				if slices.Contains(parts, w) {
					n++
					if w != grp[0] {
						in = append(in, [2]int{w, grp[0]})
					}
				}
			}
			most = max(most, n)
		}
		leg(most, gather, in...)
		mine := groupOf(r)
		var out [][2]int
		for _, m := range mine[1:] {
			if r == mine[0] || r == m {
				out = append(out, [2]int{mine[0], m})
			}
		}
		leg(g, down, out...)
		// The leader level: the participating leaders gather at rank 0,
		// which hands the result to every leader; a member pays its
		// leader's receive.
		in, n := nil, 0
		for _, l := range leaders {
			if slices.Contains(parts, l) {
				n++
				if l != 0 {
					in = append(in, [2]int{l, 0})
				}
			}
		}
		leg(n, gather, in...)
		if r == 0 {
			leg(len(leaders), down, [2]int{0, 3}, [2]int{0, 6})
		} else {
			leg(len(leaders), down, [2]int{0, mine[0]})
		}
		return clock
	}

	fab, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close() //nolint:errcheck // in-process close never fails
	all := []int{0, 1, 2, 3, 4, 5, 6}
	for _, links := range []bool{false, true} {
		for _, tc := range []struct {
			name    string
			grouped bool
			parts   []int
		}{
			{"flat/full", false, all},
			{"flat/missed-member", false, []int{0, 1, 2, 3, 4, 6}},
			{"grouped/full", true, all},
			{"grouped/missed-member", true, []int{0, 1, 2, 3, 5, 6}},
			{"grouped/missed-group", true, []int{0, 1, 2, 6}},
		} {
			levels := []level{{radix: p}}
			if tc.grouped {
				levels = []level{{radix: g}, {radix: len(leaders)}}
			}
			for r := 0; r < p; r++ {
				var clock netsim.Clock
				c := collective.New(fab.Conn(r)).WithClock(&clock, uniform)
				if links {
					c.WithLinks(lm)
				}
				chargeQuorum(c, levels, &verdict{world: p, participants: tc.parts}, k, k, 0)
				if w := want(links, tc.grouped, tc.parts, r, k); clock.Now() != w {
					t.Errorf("links=%v %s: rank %d clock %v, want %v", links, tc.name, r, clock.Now(), w)
				}
				if got := c.Stats().Rounds; got != 2*len(levels) {
					t.Errorf("links=%v %s: rank %d counted %d rounds, want two legs per level", links, tc.name, r, got)
				}
			}
		}

		// End to end: the plan HierQuorumGTopKAllReduceInto builds charges
		// the same legs.
		_, vecs := makeWorkerVectors(77, p, dim, k)
		for _, grp := range []int{0, g} {
			run, err := transport.NewInProc(p)
			if err != nil {
				t.Fatal(err)
			}
			clocks := make([]time.Duration, p)
			outs := make([]*sparse.Vector, p)
			errs := make([]error, p)
			var wg sync.WaitGroup
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					var clock netsim.Clock
					c := collective.New(run.Conn(r)).WithClock(&clock, uniform)
					if links {
						c.WithLinks(lm)
					}
					qc := QuorumConfig{Q: p, Timeout: 5 * time.Second}
					if grp > 0 {
						qc.Q = g
					}
					outs[r], _, _, errs[r] = hierOnce(context.Background(), c, vecs[r].Clone(), k, grp, qc)
					clocks[r] = clock.Now()
				}(r)
			}
			wg.Wait()
			run.Close() //nolint:errcheck // in-process close never fails
			for r := 0; r < p; r++ {
				if errs[r] != nil {
					t.Fatalf("links=%v g=%d rank %d: %v", links, grp, r, errs[r])
				}
				if w := want(links, grp > 0, all, r, outs[r].NNZ()); clocks[r] != w {
					t.Errorf("links=%v g=%d end to end: rank %d clock %v, want %v", links, grp, r, clocks[r], w)
				}
			}
		}
	}
}
