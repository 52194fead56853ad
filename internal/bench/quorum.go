package bench

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/metrics"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// This file holds the two quorum experiments, one sweep each: they run
// the REAL straggler-tolerant quorum gTop-k round under a seeded
// link-level fault schedule — the last rank sits alone across a WAN
// boundary and its outgoing frames are delayed far past every deadline.
//
//   - quorum sweeps the flat round's quorum size q ∈ {P, P−1, ⌈0.75·P⌉}.
//   - quorum_hier composes the quorum with the two-level hierarchy at
//     the P >= 64 scale where the hierarchy wins. It contrasts the
//     full-sync anchor (q_g = G, q_l = all groups) with an intra-group
//     quorum that excludes the slow MEMBER (q_g = G−1) and a
//     leader-level quorum that drops its whole GROUP (q_l = ⌈P/G⌉−1,
//     reached because its leader, stuck waiting for a full intra gather,
//     misses the leader deadline as a unit).
//
// Every round is charged per participating link on a heterogeneous α-β
// model (datacenter intra-group, WAN inter-group), so the recorded times
// are a pure function of (seed, straggler schedule): a round that closes
// without its WAN straggler never pays the WAN gather leg, which is
// exactly the speedup a quorum buys. Bitwise replica agreement and the
// intended missed set are verified on every round before a row counts.

// Quorum workload shape: ρ=0.01 of a 100 000-element gradient keeps k
// large enough that verdict frames dominate headers while a P=64 sweep
// still runs in seconds.
const (
	quorumDim = 100_000
	quorumRho = 0.01
	// quorumDelay is the injected delay on the slow rank's outgoing
	// links; quorumTimeout is the per-round gather deadline. The 4x gap
	// makes the straggler schedule deterministic: a delayed frame can
	// never beat the deadline, so q < P rounds always close without the
	// slow rank and q = P rounds always wait for it.
	quorumDelay   = 300 * time.Millisecond
	quorumTimeout = 75 * time.Millisecond
	// quorumHierP/quorumHierG are quorum_hier's committed world shape:
	// the P >= 64 regime, where the hierarchy sweep shows it winning,
	// split G ways.
	quorumHierP = 64
	quorumHierG = 4
	// quorumHierTimeout is quorum_hier's round deadline. Its default
	// split (core.QuorumConfig.SplitLevels) gives the gathers 30ms and
	// 60ms, which the 300ms injected delay misses by far, and the
	// broadcast 30ms, whose verdict wait (16 budgets plus 7 pauses of a
	// quarter budget, ≈ 530ms) survives the anchor rows' full-sync waits.
	quorumHierTimeout = 120 * time.Millisecond
)

// quorumWAN returns the inter-group (WAN) α-β model: ~100x the
// datacenter startup latency and ~10x the per-element cost, the regime
// where closing a round without the WAN straggler pays off.
func quorumWAN() netsim.Model {
	return netsim.Model{Alpha: 40 * time.Millisecond, Beta: 400 * time.Nanosecond}
}

// QuorumResult is one swept quorum size.
type QuorumResult struct {
	Q int `json:"q"`
	// MissedRounds counts rounds the slow rank's contribution missed
	// (refunded to its residual by the aggregator in training use).
	MissedRounds int `json:"missed_rounds"`
	// SimUS is the fast ranks' critical path: the maximum simulated
	// clock across the non-straggling ranks, summed over all rounds.
	SimUS int64 `json:"sim_us"`
	// Speedup is the q=P row's SimUS over this row's (>1: the quorum
	// buys time on heterogeneous links).
	Speedup float64 `json:"speedup"`
}

// QuorumSection is the quorum section of BENCH_gtopk.json.
type QuorumSection struct {
	Dim          int               `json:"dim"`
	Rho          float64           `json:"rho"`
	K            int               `json:"k"`
	P            int               `json:"p"`
	SlowRank     int               `json:"slow_rank"`
	Rounds       int               `json:"rounds"`
	TimeoutMS    int64             `json:"timeout_ms"`
	DelayMS      int64             `json:"delay_ms"`
	IntraAlphaUS float64           `json:"intra_alpha_us"`
	IntraBetaNS  float64           `json:"intra_beta_ns"`
	InterAlphaUS float64           `json:"inter_alpha_us"`
	InterBetaNS  float64           `json:"inter_beta_ns"`
	Kinds        map[string]string `json:"kinds"` // tags every result field of Rows
	Rows         []QuorumResult    `json:"rows"`
}

// QuorumHierResult is one swept (q_g, q_l) configuration, and the row
// every quorum sweep reports (a flat one leaves QL zero).
type QuorumHierResult struct {
	QG int `json:"q_g"`
	QL int `json:"q_l"`
	// MissedRanks is the size of the per-round missed set (0 on the
	// full-sync anchor, 1 when the slow member alone is excluded, G when
	// its whole group misses the leader round).
	MissedRanks int `json:"missed_ranks"`
	// MissedRounds counts rounds any contribution missed (refunded to the
	// owners' residuals by the aggregator in training use).
	MissedRounds int `json:"missed_rounds"`
	// SimUS is the fast ranks' critical path: the maximum simulated clock
	// across the ranks outside the missed set, summed over all rounds.
	SimUS int64 `json:"sim_us"`
	// Speedup is the full-sync anchor's SimUS over this row's.
	Speedup float64 `json:"speedup"`
}

// QuorumHierSection is the quorum_hier section of BENCH_gtopk.json.
type QuorumHierSection struct {
	Dim          int                `json:"dim"`
	Rho          float64            `json:"rho"`
	K            int                `json:"k"`
	P            int                `json:"p"`
	G            int                `json:"g"`
	NumGroups    int                `json:"num_groups"`
	SlowRank     int                `json:"slow_rank"`
	Rounds       int                `json:"rounds"`
	TimeoutMS    int64              `json:"timeout_ms"`
	GroupMS      int64              `json:"group_ms"`
	LeaderMS     int64              `json:"leader_ms"`
	BroadcastMS  int64              `json:"broadcast_ms"`
	DelayMS      int64              `json:"delay_ms"`
	IntraAlphaUS float64            `json:"intra_alpha_us"`
	IntraBetaNS  float64            `json:"intra_beta_ns"`
	InterAlphaUS float64            `json:"inter_alpha_us"`
	InterBetaNS  float64            `json:"inter_beta_ns"`
	Kinds        map[string]string  `json:"kinds"` // tags every result field of Rows
	Rows         []QuorumHierResult `json:"rows"`
}

// quorumSweep returns the deduplicated quorum sizes {P, P−1, ⌈0.75·P⌉},
// largest first, clamped to the legal [QuorumMin(P), P] range.
func quorumSweep(p int) []int {
	var qs []int
	for _, q := range []int{p, p - 1, (3*p + 3) / 4} {
		if q >= core.QuorumMin(p) && q <= p && !slices.Contains(qs, q) {
			qs = append(qs, q)
		}
	}
	return qs
}

// quorumCase is one swept configuration: the quorum, the hierarchy's
// group size (0 runs the flat round) and the missed set every round
// must report.
type quorumCase struct {
	qc   core.QuorumConfig
	g    int
	miss []int
}

// sweepQuorum runs each case for rounds rounds over p ranks holding
// top-k selections of dim-element Gaussian gradients, the last rank the
// slow one, and returns one row per case; the first case is the
// full-sync anchor the speedups divide.
func sweepQuorum(seed uint64, p, dim, k, rounds int, cases []quorumCase) ([]QuorumHierResult, error) {
	// Group the fast ranks together and leave the slow rank alone across
	// the WAN boundary: every link it contributes over is an Inter link.
	// A hierarchy group partitions the ranks independently, so the slow
	// member's group straddles the WAN.
	lm, err := netsim.NewLinkModel(netsim.Paper1GbE(), quorumWAN(), p-1)
	if err != nil {
		return nil, err
	}
	plan := transport.FaultPlan{Seed: seed, Delay: quorumDelay, SlowRanks: []int{p - 1}}
	vecs := gaussianTopKs(seed, p, dim, []int{k})[0]
	var full time.Duration
	rows := make([]QuorumHierResult, len(cases))
	for i, c := range cases {
		sim, err := runQuorum(vecs, k, rounds, c, lm, plan)
		if err != nil {
			return nil, fmt.Errorf("q=%d q_l=%d: %w", c.qc.Q, c.qc.LeaderQ, err)
		}
		if i == 0 {
			full = sim
		}
		rows[i] = QuorumHierResult{QG: c.qc.Q, QL: c.qc.LeaderQ, MissedRanks: len(c.miss), SimUS: sim.Microseconds(), Speedup: 1}
		if len(c.miss) > 0 {
			rows[i].MissedRounds = rounds
		}
		if full > 0 && sim > 0 {
			rows[i].Speedup = float64(full) / float64(sim)
		}
	}
	return rows, nil
}

// runQuorum runs rounds rounds of one case on a fresh fault-injected
// in-process fabric and returns the critical path: the largest simulated
// clock outside the missed set and the slow rank. Every round must reach
// every rank with the intended missed set and bit-identical replicas.
func runQuorum(vecs []*sparse.Vector, k, rounds int, c quorumCase, lm *netsim.LinkModel, plan transport.FaultPlan) (time.Duration, error) {
	p := len(vecs)
	base, err := transport.NewInProc(p)
	if err != nil {
		return 0, err
	}
	fab := transport.NewFaultInjector(base, plan)
	defer fab.Close()

	var (
		wg     sync.WaitGroup
		clocks = make([]time.Duration, p)
		outs   = make([][]*sparse.Vector, rounds)
		missed = make([][][]int, rounds)
		errs   = make([]error, p)
	)
	for rd := range outs {
		outs[rd] = make([]*sparse.Vector, p)
		missed[rd] = make([][]int, p)
	}
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var clock netsim.Clock
			comm := collective.New(fab.Conn(rank)).WithClock(&clock, lm.Intra).WithLinks(lm)
			for rd := 0; rd < rounds; rd++ {
				outs[rd][rank] = &sparse.Vector{}
				gc, err := core.ForkHier(comm, c.g) // each round forks its own groups; none when flat
				if err == nil {
					_, missed[rd][rank], err = core.HierQuorumGTopKAllReduceInto(context.Background(), comm, gc, vecs[rank].Clone(), k, c.g, c.qc, outs[rd][rank])
				}
				if err != nil {
					errs[rank] = fmt.Errorf("round %d: %w", rd, err)
					return
				}
			}
			clocks[rank] = clock.Now()
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("rank %d: %w", rank, err)
		}
	}

	for rd := 0; rd < rounds; rd++ {
		for r := 0; r < p; r++ {
			if !vectorsEqualBits(outs[rd][0], outs[rd][r]) {
				return 0, fmt.Errorf("round %d: replicas diverged (rank %d != rank 0)", rd, r)
			}
			if fmt.Sprint(missed[rd][r]) != fmt.Sprint(c.miss) {
				return 0, fmt.Errorf("round %d: rank %d saw missed %v, want %v (the delay is %dx the deadline, the schedule must be deterministic)",
					rd, r, missed[rd][r], c.miss, quorumDelay/c.qc.Timeout)
			}
		}
	}

	var critical time.Duration
	for r, clk := range clocks {
		if r != p-1 && !slices.Contains(c.miss, r) {
			critical = max(critical, clk)
		}
	}
	return critical, nil
}

// renderQuorum renders a quorum sweep: head, one table row per
// configuration — its quorum (q, or q_g and q_l under a hierarchy), its
// misses, the critical path and the speedup over the full-sync anchor —
// and the closing note.
func renderQuorum(head string, rows []QuorumHierResult, note string) string {
	cols, anchor := []string{"q"}, "q=P"
	hier := rows[0].QL > 0
	if hier {
		cols, anchor = []string{"q_g", "q_l"}, "full sync"
	}
	tb := metrics.NewTable(append(cols, "missed ranks", "missed rounds", "sim time", "speedup vs "+anchor)...)
	for _, r := range rows {
		cells := []string{fmt.Sprint(r.QG)}
		if hier {
			cells = append(cells, fmt.Sprint(r.QL))
		}
		tb.AddRow(append(cells, fmt.Sprint(r.MissedRanks), fmt.Sprint(r.MissedRounds),
			fmt.Sprintf("%.2fms", float64(r.SimUS)/1000), fmt.Sprintf("%.2fx", r.Speedup))...)
	}
	return head + tb.String() + note
}

// Quorum runs the flat sweep and returns the rendered table plus the
// section. Quick mode shrinks the world and the round count.
func Quorum(_ context.Context, opt Options) (string, *QuorumSection, error) {
	p, rounds, dim := 8, 3, quorumDim
	if opt.Quick {
		p, rounds, dim = 4, 2, quorumDim/4
	}
	k := core.DensityToK(dim, quorumRho)
	var cases []quorumCase
	for _, q := range quorumSweep(p) {
		c := quorumCase{qc: core.QuorumConfig{Q: q, Timeout: quorumTimeout}}
		if q < p {
			c.miss = []int{p - 1}
		}
		cases = append(cases, c)
	}
	rows, err := sweepQuorum(opt.seed(), p, dim, k, rounds, cases)
	if err != nil {
		return "", nil, fmt.Errorf("quorum %w", err)
	}
	intra, inter := netsim.Paper1GbE(), quorumWAN()
	section := &QuorumSection{
		Dim: dim, Rho: quorumRho, K: k, P: p, SlowRank: p - 1, Rounds: rounds,
		TimeoutMS:    quorumTimeout.Milliseconds(),
		DelayMS:      quorumDelay.Milliseconds(),
		IntraAlphaUS: float64(intra.Alpha) / float64(time.Microsecond),
		IntraBetaNS:  float64(intra.Beta) / float64(time.Nanosecond),
		InterAlphaUS: float64(inter.Alpha) / float64(time.Microsecond),
		InterBetaNS:  float64(inter.Beta) / float64(time.Nanosecond),
		// Misses are counted from the verdicts; the time and the speedup
		// derived from it come off the per-link α-β clock.
		Kinds: map[string]string{
			"missed_rounds": kindCount, "sim_us": kindModelled, "speedup": kindModelled,
		},
	}
	for _, r := range rows {
		section.Rows = append(section.Rows, QuorumResult{Q: r.QG, MissedRounds: r.MissedRounds, SimUS: r.SimUS, Speedup: r.Speedup})
	}
	head := fmt.Sprintf("Quorum: straggler-tolerant gTop-k under a WAN straggler (real collective, injected faults)\n"+
		"dim=%d, rho=%g (k=%d), P=%d, rank %d alone across the WAN boundary with its\noutgoing frames delayed %v against a %v round deadline; intra %v+%v/elem,\ninter %v+%v/elem; times are the fast ranks' simulated critical path over %d rounds\n(bitwise replica agreement verified per round)\n\n",
		dim, quorumRho, k, p, p-1, quorumDelay, quorumTimeout, intra.Alpha, intra.Beta, inter.Alpha, inter.Beta, rounds)
	return renderQuorum(head, rows, "\nAt q=P the deadline only guards liveness: the round waits for the WAN rank and\npays its links on both legs. Any q<P closes the gather at the deadline with the\ndatacenter ranks only — the straggler's block is refunded to its residual, the\nverdict still reaches it, and the fast ranks stop paying the WAN gather leg.\n"), section, nil
}

// QuorumHier runs the hierarchical sweep and returns the rendered table
// plus the section. Quick mode shrinks the world and the round count.
func QuorumHier(_ context.Context, opt Options) (string, *QuorumHierSection, error) {
	p, g, rounds, dim := quorumHierP, quorumHierG, 3, quorumDim
	if opt.Quick {
		p, rounds, dim = 16, 2, quorumDim/4
	}
	numGroups := (p + g - 1) / g
	k := core.DensityToK(dim, quorumRho)
	slow := p - 1 // last member of the last hierarchy group, never a leader
	levels := core.QuorumConfig{Timeout: quorumHierTimeout}.SplitLevels()
	// The slow member's whole group, missed as a unit when its leader —
	// stuck waiting out a full intra gather — misses the leader deadline.
	var slowGroup []int
	for r := (slow / g) * g; r < p; r++ {
		slowGroup = append(slowGroup, r)
	}
	var cases []quorumCase
	for _, c := range []struct {
		qg, ql int
		miss   []int
	}{
		// Full-sync anchor: both levels wait for everyone, every round
		// pays the WAN member's gather link.
		{g, numGroups, nil},
		// Intra-group quorum: the slow member's group closes at the Group
		// deadline without it; every other rank participates.
		{g - 1, numGroups, []int{slow}},
		// Leader-level quorum: the slow member's group insists on a full
		// intra gather, so its leader frame is ~delay late and the root
		// closes the leader round without the whole group.
		{g, numGroups - 1, slowGroup},
	} {
		qc := core.QuorumConfig{Q: c.qg, LeaderQ: c.ql, Timeout: quorumHierTimeout}
		cases = append(cases, quorumCase{qc: qc, g: g, miss: c.miss})
	}
	rows, err := sweepQuorum(opt.seed(), p, dim, k, rounds, cases)
	if err != nil {
		return "", nil, fmt.Errorf("quorum_hier %w", err)
	}
	intra, inter := netsim.Paper1GbE(), quorumWAN()
	section := &QuorumHierSection{
		Dim: dim, Rho: quorumRho, K: k, P: p, G: g, NumGroups: numGroups,
		SlowRank: slow, Rounds: rounds,
		TimeoutMS:    quorumHierTimeout.Milliseconds(),
		GroupMS:      levels.Group.Milliseconds(),
		LeaderMS:     levels.Leader.Milliseconds(),
		BroadcastMS:  levels.Broadcast.Milliseconds(),
		DelayMS:      quorumDelay.Milliseconds(),
		IntraAlphaUS: float64(intra.Alpha) / float64(time.Microsecond),
		IntraBetaNS:  float64(intra.Beta) / float64(time.Nanosecond),
		InterAlphaUS: float64(inter.Alpha) / float64(time.Microsecond),
		InterBetaNS:  float64(inter.Beta) / float64(time.Nanosecond),
		Kinds: map[string]string{
			"missed_ranks": kindCount, "missed_rounds": kindCount,
			"sim_us": kindModelled, "speedup": kindModelled,
		},
		Rows: rows,
	}
	head := fmt.Sprintf("Hierarchical quorum: per-level deadline budgets under a WAN straggler (real collective, injected faults)\n"+
		"dim=%d, rho=%g (k=%d), P=%d split into %d groups of G=%d; rank %d (a non-leader\nmember) alone across the WAN boundary with its outgoing frames delayed %v against\nper-level budgets group=%v leader=%v broadcast=%v; intra %v+%v/elem,\ninter %v+%v/elem; times are the participating ranks' simulated critical path over\n%d rounds (bitwise replica agreement + exact missed set verified per round)\n\n",
		dim, quorumRho, k, p, numGroups, g, slow, quorumDelay, levels.Group, levels.Leader, levels.Broadcast,
		intra.Alpha, intra.Beta, inter.Alpha, inter.Beta, rounds)
	return renderQuorum(head, rows, "\nAt q_g=G, q_l=all the budgets only guard liveness: the slow member's group waits\nfor its WAN frame and every rank pays that link. Dropping EITHER quorum by one\ncloses the affected level at its budget — the slow member (or its whole group)\nis refunded to residual and the fast ranks' rounds never touch a WAN link.\n"), section, nil
}
