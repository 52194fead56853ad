package core

import (
	"fmt"
	"math"

	"gtopkssgd/internal/prng"
)

// ControlLag is the number of rounds a DensityController's feedback
// trails the round it steers: the k for round r is a function of the
// AGREED wire observations through round r−ControlLag only. One round
// of slack beyond the minimum means a rank whose tally for the previous
// round is still in flight (a straggler finishing its bucket late)
// computes the identical schedule as an up-to-date rank — replicas must
// agree on k or their selections, and therefore their models, diverge.
const ControlLag = 2

// densityFactorMin/Max clamp the per-round multiplicative step of the
// control law, keeping the schedule stable against one-round spikes in
// the observed frame sizes (varint widths shift with the support).
const (
	densityFactorMin = 0.75
	densityFactorMax = 1.25
)

// DensityController adapts a bucket's selection count k toward a
// wire-byte budget, DGC-style: after each aggregation round the bucket
// records the round's agreed raw-vs-encoded byte sizes (derived from
// the bit-identical global result, NOT from a rank's local WireTally —
// tree roles make local tallies differ across ranks), and the
// controller multiplies k by clamp(budget/observed, 0.75, 1.25) with
// seeded stochastic rounding. The schedule is a pure function of
// (seed, k0, budget, observations): two replicas feeding it the same
// observation trace produce bit-identical per-round k, which the
// seeded determinism test pins.
type DensityController struct {
	seed       uint64
	budget     int64
	k0         int
	kMin, kMax int
	obs        map[int]wireObs
	memo       []int
}

// wireObs is one round's agreed byte observation.
type wireObs struct {
	raw, wire int64
}

// NewDensityController creates a controller that starts at k0 entries
// per round and steers the encoded frame size toward budgetBytes,
// keeping k within [kMin, kMax]. The seed drives the stochastic
// rounding of fractional k targets; every replica must use the same
// seed (mix the bucket index in, not the rank).
func NewDensityController(k0, kMin, kMax int, budgetBytes int64, seed uint64) (*DensityController, error) {
	if kMin < 1 || kMax < kMin || k0 < kMin || k0 > kMax {
		return nil, fmt.Errorf("core: density controller k0=%d bounds [%d,%d] invalid", k0, kMin, kMax)
	}
	if budgetBytes < 1 {
		return nil, fmt.Errorf("core: density controller budget %d bytes; need >= 1", budgetBytes)
	}
	return &DensityController{
		seed:   seed,
		budget: budgetBytes,
		k0:     k0,
		kMin:   kMin,
		kMax:   kMax,
		obs:    make(map[int]wireObs),
	}, nil
}

// Observe records round r's agreed byte sizes: rawBytes the flat
// v1-equivalent size of the round's global result, wireBytes its size
// under the active codec. Both must be derived from replica-agreed
// state (the global vector every rank holds bit-identically), so every
// replica records identical observations. Record round r before asking
// for KFor(r + ControlLag); later rounds ignore missing observations by
// carrying the previous k.
func (c *DensityController) Observe(r int, rawBytes, wireBytes int64) {
	if r >= 0 {
		c.obs[r] = wireObs{raw: rawBytes, wire: wireBytes}
	}
}

// KFor returns the selection count for round r (r < 0 is treated as 0).
// Memoized: the full schedule up to r is computed on first use, so the
// cost of T rounds is O(T) total.
func (c *DensityController) KFor(r int) int {
	r = max(r, 0)
	for len(c.memo) <= r {
		c.memo = append(c.memo, c.next(len(c.memo)))
	}
	return c.memo[r]
}

// next computes round r's k from round r−1's k and the observation of
// round r−ControlLag. Rounds with no usable observation (warmup, or a
// round whose Observe never happened) carry the previous k unchanged.
func (c *DensityController) next(r int) int {
	if r == 0 {
		return c.k0
	}
	prev := c.memo[r-1]
	o, ok := c.obs[r-ControlLag]
	if r < ControlLag || !ok || o.wire <= 0 {
		return prev
	}
	factor := min(max(float64(c.budget)/float64(o.wire), densityFactorMin), densityFactorMax)
	target := float64(prev) * factor
	k := int(math.Floor(target))
	// Seeded stochastic rounding keeps the EXPECTED k on target while
	// staying a pure function of (seed, r) — no shared rng state to
	// desynchronize concurrently stepping buckets.
	if prng.New(c.seed^mixRound(r)).Float64() < target-float64(k) {
		k++
	}
	return min(max(k, c.kMin), c.kMax)
}

// mixRound spreads a round number across 64 bits (splitmix64 finalizer)
// before it perturbs the controller seed.
func mixRound(r int) uint64 {
	z := uint64(r) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
