package sparse

import (
	"math"
	"sync"
)

// This file is the sampled-threshold front end of the dense top-k (DGC's
// "hierarchical threshold selection", made exact): instead of running the
// full radix/quickselect descent over all n magnitudes, estimate from a
// small strided sample a threshold τ that about 2.5·k entries reach,
// collect EVERY entry with |x| >= τ in one sequential scan, and
// select the exact top-k among those few candidates.
//
// Why the result is exact, whatever the sample said: if at least k
// entries have magnitude >= τ, the k-th largest magnitude of x is >= τ,
// so every entry the full selection would pick — strict winners and
// threshold ties alike — is a candidate, and no candidate outranks a
// non-candidate differently than it would in x. The candidates are
// collected in ascending index order, so TopKSparseInto applies the same
// (magnitude descending, index ascending) rule to them that the dense
// emit scan applies to x: same indices, same value bits. The sample only
// decides how much work that costs. Whenever the argument does not apply
// the path declines and the caller runs the full selection:
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

// sampleRank returns the rank-th largest magnitude bit pattern among
// x[0], x[stride], x[2·stride], … — 0 when the sample holds fewer than
// rank non-zero magnitudes. It streams the sample through a small sorted
// buffer of the largest patterns seen (kept[0] the smallest of them): an
// insertion costs O(rank) but happens only about rank·ln(samples/rank)
// times. Working on bit patterns keeps NaNs ordinary (large) values, so
// the result does not depend on the kernel mode.
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
