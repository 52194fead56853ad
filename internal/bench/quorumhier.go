package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/metrics"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// This file is the hierarchical quorum experiment: the straggler
// tolerance of the quorum (quorum.go) composed with the two-level
// hierarchy at the P >= 64 scale where the hierarchy wins. One rank sits
// alone across a WAN boundary inside an otherwise-datacenter world and
// its outgoing frames are delayed far past the per-level deadlines; the
// sweep contrasts the full-sync hierarchical anchor (q_g = G, q_l = all
// groups — the round always waits for the WAN member) with two partial
// regimes: an intra-group quorum that excludes the slow MEMBER
// (q_g = G−1), and a leader-level quorum that drops the slow member's
// whole GROUP (q_l = ⌈P/G⌉−1, reached because its leader — stuck
// waiting for a full intra gather — misses the leader deadline as a
// unit). Every round is charged per participating link on the
// heterogeneous α-β model, replica agreement is verified bitwise, and
// the missed set must match the deterministic straggler schedule before
// a row is recorded.

const (
	// quorumHierP/quorumHierG are the committed world shape: the P >= 64
	// regime, where the hierarchy sweep shows it winning, split G ways.
	quorumHierP = 64
	quorumHierG = 4
	// quorumHierRounds is the number of consecutive rounds each row runs
	// (agreement and the missed set are verified on every one).
	quorumHierRounds = 3
)

// quorumHierLevels pins the per-level deadline budgets: gather levels
// small enough that the 300ms injected delay misses them by >10x, and a
// broadcast budget generous enough that the verdict retry window (8
// attempts of 2x the budget) comfortably survives the anchor rows'
// full-sync waits.
func quorumHierLevels() core.LevelTimeouts {
	return core.LevelTimeouts{
		Group:     15 * time.Millisecond,
		Leader:    15 * time.Millisecond,
		Broadcast: 45 * time.Millisecond,
	}
}

// QuorumHierResult is one swept (q_g, q_l) configuration.
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

// runQuorumHierConfig runs `rounds` hierarchical quorum rounds at the
// given configuration on a fresh fault-injected in-process fabric and
// returns the fast ranks' total simulated time. Every round is checked
// for bitwise replica agreement and for the exact expected missed set
// (the injected delay dwarfs every deadline, so the schedule is
// deterministic) before it counts.
func runQuorumHierConfig(vecs []*sparse.Vector, k, g int, qc core.QuorumConfig, rounds, slow int, wantMissed []int, lm *netsim.LinkModel, plan transport.FaultPlan) (time.Duration, error) {
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
				gc, err := core.ForkHier(comm, g) // each round forks its own groups
				if err == nil {
					_, missed[rd][rank], err = core.HierQuorumGTopKAllReduceInto(context.Background(), comm, gc, vecs[rank].Clone(), k, g, qc, outs[rd][rank])
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

	excluded := make(map[int]bool, len(wantMissed)+1)
	excluded[slow] = true
	for _, r := range wantMissed {
		excluded[r] = true
	}
	for rd := 0; rd < rounds; rd++ {
		for r := 1; r < p; r++ {
			if !vectorsEqualBits(outs[rd][0], outs[rd][r]) {
				return 0, fmt.Errorf("q_g=%d q_l=%d round %d: replicas diverged (rank %d != rank 0)", qc.Q, qc.LeaderQ, rd, r)
			}
		}
		for r := 0; r < p; r++ {
			if fmt.Sprint(missed[rd][r]) != fmt.Sprint(wantMissed) {
				return 0, fmt.Errorf("q_g=%d q_l=%d round %d: rank %d saw missed %v, want %v (delay dwarfs every deadline, the schedule must be deterministic)",
					qc.Q, qc.LeaderQ, rd, r, missed[rd][r], wantMissed)
			}
		}
	}

	var fastCritical time.Duration
	for r := 0; r < p; r++ {
		if !excluded[r] && clocks[r] > fastCritical {
			fastCritical = clocks[r]
		}
	}
	return fastCritical, nil
}

// QuorumHier runs the sweep and returns the rendered table plus the
// section. Quick mode shrinks the world and the round count.
func QuorumHier(_ context.Context, opt Options) (string, *QuorumHierSection, error) {
	p, g, rounds, dim := quorumHierP, quorumHierG, quorumHierRounds, quorumDim
	if opt.Quick {
		p, rounds, dim = 16, 2, quorumDim/4
	}
	numGroups := (p + g - 1) / g
	k := core.DensityToK(dim, quorumRho)
	slow := p - 1 // last member of the last hierarchy group, never a leader
	intra := netsim.Paper1GbE()
	inter := quorumWAN()
	// Group the fast ranks together and leave the slow rank alone across
	// the WAN boundary: every link it contributes over is an Inter link.
	// Note the hierarchy group (g) and the link group (p-1) partition the
	// ranks independently — the slow member's hierarchy group straddles
	// the WAN, which is exactly the regime the per-level budgets price.
	lm, err := netsim.NewLinkModel(intra, inter, p-1)
	if err != nil {
		return "", nil, err
	}
	plan := transport.FaultPlan{Seed: opt.seed(), Delay: quorumDelay, SlowRanks: []int{slow}}
	vecs := gaussianTopKs(opt.seed(), p, dim, []int{k})[0]
	levels := quorumHierLevels()

	section := &QuorumHierSection{
		Dim: dim, Rho: quorumRho, K: k, P: p, G: g, NumGroups: numGroups,
		SlowRank: slow, Rounds: rounds,
		TimeoutMS:    quorumTimeout.Milliseconds(),
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
	}

	// The slow member's whole group, missed as a unit when its leader —
	// stuck waiting out a full intra gather — misses the leader deadline.
	slowGroup := make([]int, 0, g)
	for r := (slow / g) * g; r < p; r++ {
		slowGroup = append(slowGroup, r)
	}
	configs := []struct {
		qg, ql     int
		wantMissed []int
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
	}

	var fullSync time.Duration
	for _, cfg := range configs {
		qc := core.QuorumConfig{Q: cfg.qg, LeaderQ: cfg.ql, Timeout: quorumTimeout, Levels: levels}
		sim, err := runQuorumHierConfig(vecs, k, g, qc, rounds, slow, cfg.wantMissed, lm, plan)
		if err != nil {
			return "", nil, fmt.Errorf("quorum_hier q_g=%d q_l=%d: %w", cfg.qg, cfg.ql, err)
		}
		if cfg.wantMissed == nil {
			fullSync = sim
		}
		missedRounds := 0
		if len(cfg.wantMissed) > 0 {
			missedRounds = rounds
		}
		speedup := 1.0
		if fullSync > 0 && sim > 0 {
			speedup = float64(fullSync) / float64(sim)
		}
		section.Rows = append(section.Rows, QuorumHierResult{
			QG:           cfg.qg,
			QL:           cfg.ql,
			MissedRanks:  len(cfg.wantMissed),
			MissedRounds: missedRounds,
			SimUS:        sim.Microseconds(),
			Speedup:      speedup,
		})
	}

	var sb strings.Builder
	sb.WriteString("Hierarchical quorum: per-level deadline budgets under a WAN straggler (real collective, injected faults)\n")
	fmt.Fprintf(&sb, "dim=%d, rho=%g (k=%d), P=%d split into %d groups of G=%d; rank %d (a non-leader\nmember) alone across the WAN boundary with its outgoing frames delayed %v against\nper-level budgets group=%v leader=%v broadcast=%v; intra %v+%v/elem,\ninter %v+%v/elem; times are the participating ranks' simulated critical path over\n%d rounds (bitwise replica agreement + exact missed set verified per round)\n\n",
		section.Dim, section.Rho, section.K, section.P, section.NumGroups, section.G, section.SlowRank,
		quorumDelay, levels.Group, levels.Leader, levels.Broadcast,
		intra.Alpha, intra.Beta, inter.Alpha, inter.Beta, rounds)
	tb := metrics.NewTable("q_g", "q_l", "missed ranks", "missed rounds", "sim time", "speedup vs full sync")
	for _, r := range section.Rows {
		tb.AddRow(fmt.Sprint(r.QG), fmt.Sprint(r.QL), fmt.Sprint(r.MissedRanks), fmt.Sprint(r.MissedRounds),
			fmt.Sprintf("%.2fms", float64(r.SimUS)/1000), fmt.Sprintf("%.2fx", r.Speedup))
	}
	sb.WriteString(tb.String())
	sb.WriteString("\nAt q_g=G, q_l=all the budgets only guard liveness: the slow member's group waits\nfor its WAN frame and every rank pays that link. Dropping EITHER quorum by one\ncloses the affected level at its budget — the slow member (or its whole group)\nis refunded to residual and the fast ranks' rounds never touch a WAN link.\n")
	return sb.String(), section, nil
}
