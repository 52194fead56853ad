// Package netsim models communication time on low-bandwidth networks with
// the α-β (latency-bandwidth) model used throughout the paper.
//
// The paper measures, on its 32-node 1 Gbps Ethernet cluster,
// α = 0.436 ms startup latency and β = 3.6e-5 ms transmission time per
// element (Fig. 8; elements are 4-byte float32 values). All timing
// results (Figs 8-11, Table IV) follow from this model plus the
// collectives' round structure (Table I). Since this reproduction runs on
// one machine, wall-clock time says nothing about 1GbE behaviour; instead
// every experiment charges simulated time through this package, using the
// paper's measured constants by default.
package netsim

import (
	"fmt"
	"math"
	"time"

	"gtopkssgd/internal/prng"
)

// Model is the α-β communication cost model. Alpha is the per-message
// startup latency; Beta the per-element (float32) transmission time.
//
// SyncGamma optionally extends the model with a synchronization-skew
// term: a synchronous round among n participants completes when the
// SLOWEST of its concurrently active links completes, and with
// independently jittered per-link latencies (the paper's Fig. 8 shows a
// lognormal scatter around the α-β line) the expected maximum grows with
// log₂(n). A round among n ranks then charges
//
//	α·(1 + γ·log₂(n)) + elems·β
//
// instead of the plain α + elems·β. γ = 0 (the zero value) recovers the
// paper's Table I cost equations exactly — every pre-existing experiment
// charges with γ = 0 and is bit-unchanged. The hierarchy experiment
// charges both the flat and the two-level aggregation with the same
// γ > 0, which is what makes synchronization-domain size (P vs G and
// P/G) visible to the cost model at all.
type Model struct {
	Alpha time.Duration // startup latency per message
	Beta  time.Duration // transfer time per 4-byte element
	// SyncGamma is the per-log₂-participant latency inflation of a
	// synchronous round (0 disables; see the type comment).
	SyncGamma float64
}

// DefaultSyncGamma is the synchronization-skew factor the hierarchy
// experiment uses: at P=32 (the paper's testbed) it inflates the round
// latency by 1.5×, consistent with the straggler tails the paper's
// jittered links produce at that scale.
const DefaultSyncGamma = 0.1

// WithSyncSkew returns a copy of m with the synchronization-skew factor
// set to gamma.
func (m Model) WithSyncSkew(gamma float64) Model {
	m.SyncGamma = gamma
	return m
}

// Paper1GbE returns the model with the constants measured in the paper on
// its 1 Gbps Ethernet testbed (Section IV-C): α = 0.436 ms,
// β = 3.6e-5 ms per element.
func Paper1GbE() Model {
	return Model{
		Alpha: 436 * time.Microsecond,
		Beta:  36 * time.Nanosecond,
	}
}

// PointToPoint returns the modelled time to transfer n elements between
// two nodes: α + nβ. It never applies the synchronization-skew term —
// a point-to-point transfer has exactly two participants and no
// straggler ensemble.
func (m Model) PointToPoint(n int) time.Duration {
	return m.Alpha + time.Duration(n)*m.Beta
}

// Round returns the modelled time of one synchronous communication round
// among `participants` ranks in which the charged rank moves n elements:
// α·(1 + γ·log₂(participants)) + nβ. With γ = 0 (or fewer than two
// participants) it equals PointToPoint(n).
func (m Model) Round(participants, n int) time.Duration {
	alpha := m.Alpha
	if m.SyncGamma > 0 && participants > 1 {
		alpha = time.Duration(float64(alpha) * (1 + m.SyncGamma*math.Log2(float64(participants))))
	}
	return alpha + time.Duration(n)*m.Beta
}

// DenseAllReduce returns the ring-AllReduce time for a dense vector of
// nElems elements across p workers (paper Eq. 5):
//
//	t = 2(P−1)α + 2·(P−1)/P·mβ
func (m Model) DenseAllReduce(p, nElems int) time.Duration {
	if p < 2 {
		return 0
	}
	alphaTerm := time.Duration(2*(p-1)) * m.Alpha
	betaTerm := time.Duration(2 * float64(p-1) / float64(p) * float64(nElems) * float64(m.Beta))
	return alphaTerm + betaTerm
}

// TopKAllReduce returns the AllGather-based sparse aggregation time for
// k selected gradients across p workers (paper Eq. 6):
//
//	t = log(P)α + 2(P−1)kβ
//
// The factor 2k accounts for transferring values and indices.
func (m Model) TopKAllReduce(p, k int) time.Duration {
	if p < 2 {
		return 0
	}
	alphaTerm := time.Duration(math.Log2(float64(p)) * float64(m.Alpha))
	betaTerm := time.Duration(2*(p-1)*k) * m.Beta
	return alphaTerm + betaTerm
}

// GTopKAllReduce returns the tree-reduction + broadcast time of the
// paper's gTopKAllReduce (Eq. 7):
//
//	t = 2·log(P)α + 4k·log(P)β
//
// Each of the logP reduction rounds moves 2k elements (values+indices) to
// the surviving worker, and the flat-tree broadcast of the global top-k
// costs the same again. This is the paper's equation, kept for the
// Table I / Fig. 9 reproductions; the implemented tree swaps its top
// round and costs one round less (GTopKTree).
func (m Model) GTopKAllReduce(p, k int) time.Duration {
	if p < 2 {
		return 0
	}
	logP := math.Log2(float64(p))
	alphaTerm := time.Duration(2 * logP * float64(m.Alpha))
	betaTerm := time.Duration(4 * float64(k) * logP * float64(m.Beta))
	return alphaTerm + betaTerm
}

// GTopKTree returns the discrete (integer-round) cost of the implemented
// flat gTop-k tree (core.GTopKInto) with the synchronization-skew
// term applied: its top reduce round and first broadcast round are one
// pairwise swap, so it runs 2·⌈log₂P⌉−1 rounds, each moving at most 2k
// elements and synchronizing all P ranks:
//
//	t = (2·⌈log₂P⌉−1)·Round(P, 2k)
//
// With SyncGamma = 0 and power-of-two P this is Eq. 7 (GTopKAllReduce)
// minus one α + 2kβ; the hierarchy experiment compares it against
// HierGTopK under one shared γ.
func (m Model) GTopKTree(p, k int) time.Duration {
	if p < 2 {
		return 0
	}
	return time.Duration(2*CeilLog2(p)-1) * m.Round(p, 2*k)
}

// HierGTopK returns the modelled cost of the two-level hierarchical
// gTop-k over groups of g (core.GTopKInto) on a
// group leader's clock, the critical path: one gather round in which
// the leader receives its g−1 members' k-entry frames, the gTop-k tree
// over the ⌈P/g⌉ group leaders (2·⌈log₂⌈P/g⌉⌉−1 rounds), and one
// fan-out round in which it sends each of its members the global result:
//
//	t = Round(g, (g−1)·2k) + (2·⌈log₂⌈P/g⌉⌉−1)·Round(⌈P/g⌉, 2k) + Round(g, (g−1)·(2k+2))
//
// A gathered frame is priced at the paper's 2k elements, as the clock
// charges a reduce frame; a fan-out copy at its v1 size, 2k plus the
// 2-element (8-byte) header, as the clock charges a broadcast frame —
// times g−1, the header shows at the microsecond.
//
// At power-of-two sizes that is 2·(⌈log₂g⌉−1) rounds fewer than the flat
// tree (GTopKTree), but the leader's link carries g−1 frames per group
// leg where a tree rank carries ⌈log₂g⌉. Under γ = 0 the hierarchy is
// therefore ahead by 2·(⌈log₂g⌉−1)·α − (2·(g−1−⌈log₂g⌉)·2k + 2·(g−1))·β: it wins
// while a frame's transfer time is small next to α and loses at large
// k·g. Straggler skew (SyncGamma) adds to its margin, since its rounds
// synchronize g or ⌈P/g⌉ ranks instead of all P.
func (m Model) HierGTopK(p, g, k int) time.Duration {
	if p < 2 {
		return 0
	}
	if g <= 1 || g >= p {
		return m.GTopKTree(p, k)
	}
	leaders := (p + g - 1) / g
	inter := time.Duration(2*CeilLog2(leaders)-1) * m.Round(leaders, 2*k)
	return m.Round(g, (g-1)*2*k) + inter + m.Round(g, (g-1)*(2*k+2))
}

// CeilLog2 returns ⌈log₂n⌉ for n ≥ 1 — the sequential round count of a
// binomial tree over n ranks.
func CeilLog2(n int) int {
	r := 0
	for 1<<r < n {
		r++
	}
	return r
}

// Link is a point-to-point channel with multiplicative jitter, used to
// produce the "measured" scatter around the α-β line in the Fig. 8
// reproduction. Jitter is the fractional standard deviation of a
// log-normal noise factor (0.05 reproduces the paper's error bars).
type Link struct {
	Model  Model
	Jitter float64
	rng    *prng.Source
}

// NewLink creates a jittered link over model m seeded deterministically.
func NewLink(m Model, jitter float64, seed uint64) *Link {
	return &Link{Model: m, Jitter: jitter, rng: prng.New(seed)}
}

// Transfer returns a sampled transfer time for n elements:
// (α + nβ)·exp(σ·Z) with Z standard normal.
func (l *Link) Transfer(n int) time.Duration {
	base := float64(l.Model.PointToPoint(n))
	if l.Jitter <= 0 {
		return time.Duration(base)
	}
	noise := math.Exp(l.Jitter * l.rng.NormFloat64())
	return time.Duration(base * noise)
}

// Clock accumulates simulated time for one worker. Collectives and
// trainers advance it; experiments read it. The zero value is a clock at
// time zero.
type Clock struct {
	now time.Duration
}

// Advance moves the clock forward by d (negative d is rejected).
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("netsim: Advance(%v) with negative duration", d))
	}
	c.now += d
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Duration { return c.now }

// Reset rewinds the clock to zero.
func (c *Clock) Reset() { c.now = 0 }
