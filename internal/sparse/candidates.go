package sparse

import (
	"fmt"
	"math"
	"sync"
)

// This file is the candidate front end of the dense top-k (DGC's
// "hierarchical threshold selection", made exact): instead of running the
// full radix/quickselect descent over all n magnitudes, pick a threshold
// τ that a few more than k entries reach, collect EVERY entry with
// |x| >= τ, and select the exact top-k among those few candidates. There
// are two ways to the candidates:
//
//   - TopKAccumulateInto, the training step's selection, collects them
//     inside the pass that accumulates the gradient into the residual, at
//     a τ carried over from the previous selection of the same residual
//     (its k-th magnitude times a factor that adapts to the declines);
//   - TopKInto estimates τ from a small strided sample, as the rank that
//     about 2.5·k entries reach, and collects in a second, read-only scan.
//     It serves every other caller, the first step of a residual and
//     every decline of the accumulate pass.
//
// Why the result is exact, whatever τ was: if at least k
// entries have magnitude >= τ, the k-th largest magnitude of x is >= τ,
// so every entry the full selection would pick — strict winners and
// threshold ties alike — is a candidate, and no candidate outranks a
// non-candidate differently than it would in x. The candidates are
// collected in ascending index order, so TopKSparseInto applies the same
// (magnitude descending, index ascending) rule to them that the dense
// emit scan applies to x: same indices, same value bits. τ only decides
// how much work that costs. Whenever the argument does not apply the path
// declines and the caller runs the full selection:
//
//   - fewer than k candidates (τ came out too high),
//   - more candidates than the cap (τ too low, or a heavy tie at τ),
//   - τ == 0 (mostly-zero input: zeros are legal tie-fillers of the full
//     selection and "every entry >= 0" is the whole vector),
//   - a NaN anywhere in x (NaN bit patterns exceed every finite τ, so all
//     of them land among the candidates; the quickselect reference pins
//     NaN behaviour), or a NaN τ,
//   - (n, k) outside the gate: n below candMinN, or k above
//     n/candMaxShare, where the candidates stop being few.
//
// Both ways share the gate and candPlan's cap; only where τ comes from
// differs.

// candMinN is the smallest input the candidate path takes: below it a
// whole selection costs a few microseconds on either path and the cap (at
// least 32 entries) stops being small next to n. A variable, not a
// constant, so the equivalence tests can lower it and drive their small
// oracle inputs through the path; nothing outside tests writes it.
var candMinN = 1 << 12

const (
	// candMaxShare bounds the selection density: k <= n/candMaxShare.
	// Measured on Gaussian input (2 vCPUs, n = 10^5 and 10^6) the path is
	// 6-8x faster than the radix descent at k = n/1000, 2x at n/50, 1.3-1.6x
	// at n/32, and break-even near n/16.
	candMaxShare = 32
	// candSample is the largest sample drawn (the stride is at least
	// n/candSample) and candRank the sample rank τ is aimed at: the
	// candidate count scatters around its expectation like 1/sqrt(rank),
	// so a denser selection, which reaches that rank with fewer samples,
	// takes a longer stride.
	candSample = 8192
	candRank   = 24
	// candExpectNum/candExpectDen = 2.5: τ is read at the sample rank that
	// about 2.5·k entries of x are expected to reach — enough head-room
	// that "fewer than k" is a one-in-thousands event at candRank.
	candExpectNum, candExpectDen = 5, 2
	// candMinRank floors the rank for tiny k, where 2.5·k entries would
	// sit at a rank too shallow to be steady; the candidates stay few
	// (rank·stride) because k is tiny.
	candMinRank = 8
	// candCapFactor caps the candidate set at this multiple of its
	// expected size rank·stride; beyond it the scan aborts.
	candCapFactor = 4
)

const signMask32 = uint32(1) << 31

// infBits is the bit pattern of +Inf; sign-free magnitudes above it are
// NaN payloads, whose float ordering disagrees with the bit ordering.
const infBits = uint32(0x7f800000)

// candScratch pools the candidate vectors. They are several times larger
// than the k-entry vectors of vecPool, which stay checked out across the
// collective's link waits: sharing that pool would grow every one of them
// to candidate size (measured: +10 % peak RSS on the 8-rank wan-hier
// workload). A selection never blocks, so this pool holds one per core.
var candScratch = sync.Pool{New: func() any { return new(Vector) }}

// candPlan sizes the candidate path for an (n, k) inside the gate: the
// sampling stride, the sample rank τ is read at, and the cap on the
// candidate set. Both divisions round up, which keeps rank <= candRank+1.
func candPlan(n, k int) (stride, rank, limit int) {
	stride = max((n+candSample-1)/candSample, (candExpectNum*k+candExpectDen*candRank-1)/(candExpectDen*candRank))
	samples := (n + stride - 1) / stride
	rank = max((candExpectNum*k*samples+candExpectDen*n-1)/(candExpectDen*n), candMinRank)
	return stride, rank, candCapFactor * rank * stride
}

// topKCandidates tries the sampled-threshold path for TopKInto(dst, x, k)
// with 0 < k < len(x). It reports false — dst untouched — whenever one of
// the fallback conditions above holds.
func topKCandidates(dst *Vector, x []float32, k int) bool {
	n := len(x)
	if n < candMinN || k > n/candMaxShare {
		return false
	}
	stride, rank, limit := candPlan(n, k)
	if limit >= n {
		return false // only reachable with the gate lowered: nothing to save
	}
	tau := sampleRank(x, stride, rank)
	if tau == 0 || tau > infBits {
		return false
	}

	cand := candScratch.Get().(*Vector)
	defer candScratch.Put(cand)
	ensureVec(cand, limit)
	c := collectAtLeast(cand.Indices, cand.Values, x, tau)
	if c < k {
		return false // too few, or -1: more than limit
	}
	cand.Indices, cand.Values, cand.Dim = cand.Indices[:c], cand.Values[:c], n
	for _, v := range cand.Values {
		if v != v {
			return false
		}
	}
	TopKSparseInto(dst, cand, k)
	return true
}

const (
	// hintFrac is the factor a fresh SelectHint starts at: τ sits a tenth
	// below the last k-th magnitude, so a residual whose top moves a little
	// between steps still yields at least k candidates.
	hintFrac = 0.9
	// hintShrink multiplies the factor after a "fewer than k" decline; a
	// cap overflow moves it halfway to 1 instead.
	hintShrink = 0.9
	// noCollect is a threshold no sign-free bit pattern reaches: with it
	// the accumulate pass only accumulates.
	noCollect = signMask32
)

// SelectHint is what one TopKAccumulateInto leaves for the next over the
// same residual: the threshold its accumulate pass collects at and the
// buffer it collects into. The zero value is ready (its first call takes
// the sampled path). It never changes a result, only what one costs. A
// hint belongs to one residual and is not safe for concurrent use.
type SelectHint struct {
	tau  uint32  // sign-free bit pattern to collect at; 0 = none yet
	frac float32 // τ = frac · the last selection's k-th magnitude
	cand Vector  // the collected candidates, reused
}

// TopKAccumulateInto accumulates grad into residual and writes the k
// largest-magnitude entries of the updated residual into dst, exactly
// what TopKInto(dst, residual, k) would write. With mu > 0 the gradient
// first folds into the momentum buffer vel (DGC's momentum correction):
// v = mu·vel[i] + grad[i]; vel[i] = v; residual[i] += v — the float32
// operations, in the same order, of the separate fold and add. With
// mu <= 0 it is residual[i] += grad[i] and vel is not touched.
//
// The same pass collects every updated entry at or above the hint's τ as
// a candidate; it reports whether the candidates sufficed. When they do
// not, or the hint has no τ yet, the selection runs TopKInto over the
// updated residual instead. Either way the hint then takes its τ from
// the new selection.
func TopKAccumulateInto(dst *Vector, residual, vel []float32, mu float32, grad []float32, k int, h *SelectHint) bool {
	n := len(grad)
	if len(residual) != n || (mu > 0 && len(vel) != n) {
		panic(fmt.Sprintf("sparse: TopKAccumulateInto length mismatch: residual %d, velocity %d, gradient %d", len(residual), len(vel), n))
	}
	if h.frac == 0 {
		h.frac = hintFrac
	}
	tau, limit := h.tau, 0
	if n < candMinN || k < 1 || k > n/candMaxShare || tau == 0 || tau > infBits {
		tau = noCollect
	} else if _, _, limit = candPlan(n, k); limit >= n {
		tau, limit = noCollect, 0
	} else {
		ensureVec(&h.cand, limit)
	}
	idx, val := h.cand.Indices[:limit], h.cand.Values[:limit]
	var c int
	if mu > 0 {
		c = accumulateMomentum(idx, val, residual, vel, mu, grad, tau)
	} else {
		c = accumulate(idx, val, residual, grad, tau)
	}

	taken := false
	switch {
	case tau == noCollect:
	case c < k:
		h.frac *= hintShrink
	case c > limit:
		h.frac = (h.frac + 1) / 2
	default:
		taken = true
		for _, v := range val[:c] {
			if v != v {
				taken = false
				break
			}
		}
	}
	if taken {
		h.cand.Indices, h.cand.Values, h.cand.Dim = idx[:c], val[:c], n
		TopKSparseInto(dst, &h.cand, k)
	} else {
		TopKInto(dst, residual, k)
	}

	// τ for the next pass: the k-th magnitude is the smallest selected one.
	kth := uint32(math.MaxUint32)
	for _, v := range dst.Values {
		kth = min(kth, math.Float32bits(v)&^signMask32)
	}
	h.tau = 0
	if len(dst.Values) > 0 {
		h.tau = math.Float32bits(math.Float32frombits(kth) * h.frac)
	}
	return taken
}

// accumulate is TopKAccumulateInto's pass without momentum: residual +=
// grad, collecting each updated entry whose sign-free bits are >= tau
// into (idx, val) while they have room. It returns how many entries
// reached tau — more than len(idx) when they did not all fit.
func accumulate(idx []int32, val []float32, residual, grad []float32, tau uint32) int {
	residual = residual[:len(grad)]
	val = val[:len(idx)]
	o := 0
	for i, g := range grad {
		r := residual[i] + g
		residual[i] = r
		if math.Float32bits(r)&^signMask32 >= tau {
			if o < len(idx) {
				idx[o] = int32(i)
				val[o] = r
			}
			o++
		}
	}
	return o
}

// accumulateMomentum is accumulate with the momentum fold in front.
func accumulateMomentum(idx []int32, val []float32, residual, vel []float32, mu float32, grad []float32, tau uint32) int {
	residual, vel = residual[:len(grad)], vel[:len(grad)]
	val = val[:len(idx)]
	o := 0
	for i, g := range grad {
		v := mu*vel[i] + g
		vel[i] = v
		r := residual[i] + v
		residual[i] = r
		if math.Float32bits(r)&^signMask32 >= tau {
			if o < len(idx) {
				idx[o] = int32(i)
				val[o] = r
			}
			o++
		}
	}
	return o
}

// collectAtLeast copies every entry of x whose sign-free bit pattern is
// >= tau into the dst slices — dense positions as indices, signed values
// as found, ascending — and returns how many it wrote, or -1 as soon as
// they would not fit in len(dstIdx). tau must be in [1, infBits]: for
// finite magnitudes bit order is float order, and every NaN pattern is
// above it, so NaNs are always collected (the caller rejects them).
func collectAtLeast(dstIdx []int32, dstVal []float32, x []float32, tau uint32) int {
	dstVal = dstVal[:len(dstIdx)]
	o := 0
	for i, v := range x {
		if math.Float32bits(v)&^signMask32 >= tau {
			if o == len(dstIdx) {
				return -1
			}
			dstIdx[o] = int32(i)
			dstVal[o] = v
			o++
		}
	}
	return o
}

// sampleRank returns the rank-th largest magnitude bit pattern among
// x[0], x[stride], x[2·stride], … — 0 when the sample holds fewer than
// rank non-zero magnitudes. It streams the sample through a small sorted
// buffer of the largest patterns seen (kept[0] the smallest of them): an
// insertion costs O(rank) but happens only about rank·ln(samples/rank)
// times. Working on bit patterns keeps NaNs ordinary (large) values:
// they land above every finite τ and the collect scan rejects them.
func sampleRank(x []float32, stride, rank int) uint32 {
	var buf [candRank + 1]uint32
	kept := buf[:rank]
	for i := 0; i < len(x); i += stride {
		u := math.Float32bits(x[i]) &^ signMask32
		if u <= kept[0] {
			continue
		}
		j := 1
		for ; j < len(kept) && kept[j] < u; j++ {
			kept[j-1] = kept[j]
		}
		kept[j-1] = u
	}
	return kept[0]
}
