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

// This file is the quorum experiment: it runs the REAL straggler-tolerant
// quorum gTop-k collective under a seeded link-level fault schedule — one
// rank sits alone across a WAN boundary and its outgoing frames are
// delayed far past the per-round deadline — sweeping the quorum size
// q ∈ {P, P−1, ⌈0.75·P⌉}. Every round is charged on the heterogeneous
// per-link α-β model (datacenter intra-group, WAN inter-group), so the
// recorded times are a pure function of (seed, straggler schedule): a
// round that closes without its WAN straggler never pays the WAN gather
// leg, which is exactly the speedup the quorum buys. Replica agreement
// (bitwise) and the expected participant sets are verified on every
// round before a row is recorded.

// Quorum workload shape (shared with quorumhier.go): ρ=0.01 of a
// 100 000-element gradient keeps k large enough that verdict frames
// dominate headers while a P=64 sweep still runs in seconds.
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

// quorumSweep returns the deduplicated quorum sizes {P, P−1, ⌈0.75·P⌉},
// largest first, clamped to the legal [QuorumMin(P), P] range.
func quorumSweep(p int) []int {
	cand := []int{p, p - 1, (3*p + 3) / 4}
	var qs []int
	for _, q := range cand {
		if q < core.QuorumMin(p) || q > p {
			continue
		}
		dup := false
		for _, seen := range qs {
			if seen == q {
				dup = true
				break
			}
		}
		if !dup {
			qs = append(qs, q)
		}
	}
	return qs
}

// runQuorumConfig runs `rounds` quorum rounds at quorum size q on a
// fresh fault-injected in-process fabric and returns the fast ranks'
// total simulated time plus how many rounds the slow rank missed. Every
// round's verdict is checked for bitwise replica agreement and for the
// expected participant set before it counts.
func runQuorumConfig(vecs []*sparse.Vector, k, q, rounds, slow int, lm *netsim.LinkModel, plan transport.FaultPlan) (time.Duration, int, error) {
	p := len(vecs)
	base, err := transport.NewInProc(p)
	if err != nil {
		return 0, 0, err
	}
	fab := transport.NewFaultInjector(base, plan)
	defer fab.Close()

	qc := core.QuorumConfig{Q: q, Timeout: quorumTimeout}
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
				_, miss, err := core.HierQuorumGTopKAllReduceInto(context.Background(), comm, nil, vecs[rank].Clone(), k, 0, qc, outs[rd][rank])
				if err != nil {
					errs[rank] = fmt.Errorf("round %d: %w", rd, err)
					return
				}
				missed[rd][rank] = miss
			}
			clocks[rank] = clock.Now()
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return 0, 0, fmt.Errorf("rank %d: %w", rank, err)
		}
	}

	slowMisses := 0
	for rd := 0; rd < rounds; rd++ {
		for r := 1; r < p; r++ {
			if !vectorsEqualBits(outs[rd][0], outs[rd][r]) {
				return 0, 0, fmt.Errorf("q=%d round %d: replicas diverged (rank %d != rank 0)", q, rd, r)
			}
			if fmt.Sprint(missed[rd][r]) != fmt.Sprint(missed[rd][0]) {
				return 0, 0, fmt.Errorf("q=%d round %d: missed sets disagree: rank %d saw %v, rank 0 saw %v",
					q, rd, r, missed[rd][r], missed[rd][0])
			}
		}
		switch miss := missed[rd][0]; {
		case q == p && len(miss) != 0:
			return 0, 0, fmt.Errorf("q=P round %d closed without %v", rd, miss)
		case q < p && (len(miss) != 1 || miss[0] != slow):
			return 0, 0, fmt.Errorf("q=%d round %d: missed %v, want [%d] (delay is %dx the deadline)",
				q, rd, miss, slow, quorumDelay/quorumTimeout)
		}
		if q < p {
			slowMisses++
		}
	}

	var fastCritical time.Duration
	for r := 0; r < p; r++ {
		if r != slow && clocks[r] > fastCritical {
			fastCritical = clocks[r]
		}
	}
	return fastCritical, slowMisses, nil
}

// Quorum runs the sweep and returns the rendered table plus the
// section. Quick mode shrinks the world and the round count.
func Quorum(_ context.Context, opt Options) (string, *QuorumSection, error) {
	p, rounds, dim := 8, 3, quorumDim
	if opt.Quick {
		p, rounds, dim = 4, 2, quorumDim/4
	}
	k := core.DensityToK(dim, quorumRho)
	slow := p - 1
	intra := netsim.Paper1GbE()
	inter := quorumWAN()
	// Group the fast ranks together and leave the slow rank alone across
	// the WAN boundary: every link it contributes over is an Inter link.
	lm, err := netsim.NewLinkModel(intra, inter, p-1)
	if err != nil {
		return "", nil, err
	}
	plan := transport.FaultPlan{Seed: opt.seed(), Delay: quorumDelay, SlowRanks: []int{slow}}
	vecs := gaussianTopKs(opt.seed(), p, dim, []int{k})[0]

	section := &QuorumSection{
		Dim: dim, Rho: quorumRho, K: k, P: p, SlowRank: slow, Rounds: rounds,
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

	var fullSync time.Duration
	for _, q := range quorumSweep(p) {
		sim, misses, err := runQuorumConfig(vecs, k, q, rounds, slow, lm, plan)
		if err != nil {
			return "", nil, fmt.Errorf("quorum q=%d: %w", q, err)
		}
		if q == p {
			fullSync = sim
		}
		speedup := 1.0
		if fullSync > 0 && sim > 0 {
			speedup = float64(fullSync) / float64(sim)
		}
		section.Rows = append(section.Rows, QuorumResult{
			Q:            q,
			MissedRounds: misses,
			SimUS:        sim.Microseconds(),
			Speedup:      speedup,
		})
	}

	var sb strings.Builder
	sb.WriteString("Quorum: straggler-tolerant gTop-k under a WAN straggler (real collective, injected faults)\n")
	fmt.Fprintf(&sb, "dim=%d, rho=%g (k=%d), P=%d, rank %d alone across the WAN boundary with its\noutgoing frames delayed %v against a %v round deadline; intra %v+%v/elem,\ninter %v+%v/elem; times are the fast ranks' simulated critical path over %d rounds\n(bitwise replica agreement verified per round)\n\n",
		section.Dim, section.Rho, section.K, section.P, section.SlowRank,
		quorumDelay, quorumTimeout, intra.Alpha, intra.Beta, inter.Alpha, inter.Beta, rounds)
	tb := metrics.NewTable("q", "missed rounds", "sim time", "speedup vs q=P")
	for _, r := range section.Rows {
		tb.AddRow(fmt.Sprint(r.Q), fmt.Sprint(r.MissedRounds),
			fmt.Sprintf("%.2fms", float64(r.SimUS)/1000), fmt.Sprintf("%.2fx", r.Speedup))
	}
	sb.WriteString(tb.String())
	sb.WriteString("\nAt q=P the deadline only guards liveness: the round waits for the WAN rank and\npays its links on both legs. Any q<P closes the gather at the deadline with the\ndatacenter ranks only — the straggler's block is refunded to its residual, the\nverdict still reaches it, and the fast ranks stop paying the WAN gather leg.\n")
	return sb.String(), section, nil
}
