package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// This file implements the straggler-tolerant quorum variant of the
// gTop-k collective: a round gathers every rank's local top-k at rank 0
// under a per-round deadline, closes once a quorum has contributed, and
// broadcasts a verdict (participant set + merged global top-k) to every
// rank. Stragglers' blocks are never lost — the owner refunds the full
// selected mass to its error-feedback residual, so the missing gradient
// signal rides into a later round exactly like any residual mass
// (DGC's momentum-correction argument makes this convergence-safe).

// quorumRoot is the gathering rank of every quorum round.
const quorumRoot = 0

// verdictAttempts bounds the non-root ranks' deadline-aware wait for the
// root's verdict frame: each attempt spans two round timeouts (the root
// may spend a full deadline gathering before it merges and sends).
const verdictAttempts = 8

// minVerdictBackoff floors the pause between verdict-receive attempts.
// The natural backoff is a quarter of the round deadline, but test-scale
// deadlines (nanoseconds) would truncate that to zero and turn the
// bounded retry loop into a hot spin against the fabric.
const minVerdictBackoff = 200 * time.Microsecond

// LevelTimeouts splits one round deadline into per-level budgets for the
// hierarchical quorum collective: the intra-group gather, the
// leader-level gather, and the verdict broadcast each get their own
// deadline, and the three must fit inside the round's Timeout.
type LevelTimeouts struct {
	// Group bounds the intra-group gather (member frames at the leader).
	Group time.Duration
	// Leader bounds the leader-level gather (group aggregates at rank 0).
	Leader time.Duration
	// Broadcast sizes each verdict-receive attempt on the way back down
	// (the retry loop spans several attempts, so a late verdict is
	// survived, not lost).
	Broadcast time.Duration
}

// QuorumConfig configures the quorum gTop-k collective. The zero value
// disables quorum mode.
type QuorumConfig struct {
	// Q is the number of contributions (the root's own included) that
	// close a round; valid values are [QuorumMin(P), P]. Q = P degrades
	// to a deadline-guarded full synchronization whose result is
	// bit-identical to the flat tree. In the hierarchical collective Q is
	// the intra-group quorum q_g over the G members of a group.
	Q int
	// Timeout is the per-round gather deadline (must be > 0). The
	// hierarchical collective treats it as the whole-round budget that
	// the per-level deadlines split (see Levels and SplitLevels).
	Timeout time.Duration
	// LeaderQ is the hierarchical collective's leader-level quorum q_l
	// over the ⌈P/G⌉ group aggregates; valid values are
	// [QuorumMin(⌈P/G⌉), ⌈P/G⌉]. Zero defaults to a full leader quorum.
	// Must be zero for the flat collective.
	LeaderQ int
	// Levels optionally pins the per-level deadline budgets. The zero
	// value applies the default split policy (SplitLevels): the
	// leader-level gather — the level that crosses the slow links — gets
	// half the round budget, the intra gather and the broadcast a
	// quarter each. Must be zero for the flat collective.
	Levels LevelTimeouts
}

// QuorumMin returns the smallest legal quorum for a P-rank world:
// ⌈P/2⌉+1, a strict majority, so two disjoint quorums can never close
// the same round with different participant sets.
func QuorumMin(p int) int { return (p+1)/2 + 1 }

// Validate checks the configuration against a P-rank world for the FLAT
// quorum collective; the hierarchical fields must be unset.
func (qc QuorumConfig) Validate(p int) error { return qc.validate(p, p) }

// ValidateHier checks the configuration against a P-rank world split
// into contiguous groups of g for the hierarchical quorum collective.
func (qc QuorumConfig) ValidateHier(p, g int) error {
	if g <= 1 || g >= p {
		return fmt.Errorf("core: hierarchical quorum group size %d out of range (1,%d)", g, p)
	}
	return qc.validate(p, g)
}

// validate checks the configuration for P ranks gathered in groups of g;
// the flat collective is the single group g == p, which has no leader
// level to configure.
func (qc QuorumConfig) validate(p, g int) error {
	if qc.Timeout <= 0 {
		return fmt.Errorf("core: quorum round timeout %v out of range: need > 0", qc.Timeout)
	}
	if lo := QuorumMin(g); qc.Q < lo || qc.Q > g {
		return fmt.Errorf("core: quorum %d out of range [%d,%d] for groups of %d (of %d workers)", qc.Q, lo, g, g, p)
	}
	lt := qc.Levels
	if g == p {
		if qc.LeaderQ != 0 || lt != (LevelTimeouts{}) {
			return fmt.Errorf("core: leader quorum %d / per-level deadline budgets set, but the collective is flat (both need a hierarchy)", qc.LeaderQ)
		}
		return nil
	}
	numGroups := (p + g - 1) / g
	if lo := QuorumMin(numGroups); qc.LeaderQ != 0 && (qc.LeaderQ < lo || qc.LeaderQ > numGroups) {
		return fmt.Errorf("core: leader quorum %d out of range [%d,%d] for %d groups", qc.LeaderQ, lo, numGroups, numGroups)
	}
	if lt != (LevelTimeouts{}) {
		if lt.Group <= 0 || lt.Leader <= 0 || lt.Broadcast <= 0 {
			return fmt.Errorf("core: per-level deadline budgets must all be positive (got group %v, leader %v, broadcast %v)",
				lt.Group, lt.Leader, lt.Broadcast)
		}
		if sum := lt.Group + lt.Leader + lt.Broadcast; sum > qc.Timeout {
			return fmt.Errorf("core: per-level deadline budgets %v + %v + %v = %v exceed the %v round deadline",
				lt.Group, lt.Leader, lt.Broadcast, sum, qc.Timeout)
		}
	}
	return nil
}

// SplitLevels resolves the per-level deadline budgets: explicit Levels
// win; otherwise the round deadline splits 1/4 : 1/2 : 1/4 across
// intra-group gather, leader gather, and broadcast. The leader level —
// the one whose links cross groups and carry the WAN latency — gets the
// largest slice, and the exact remainder lands on the broadcast so the
// three budgets always sum to the round deadline.
func (qc QuorumConfig) SplitLevels() LevelTimeouts {
	if qc.Levels != (LevelTimeouts{}) {
		return qc.Levels
	}
	group := qc.Timeout / 4
	leader := qc.Timeout / 2
	return LevelTimeouts{Group: group, Leader: leader, Broadcast: qc.Timeout - group - leader}
}

// leaderQuorum resolves the leader-level quorum (LeaderQ, defaulting to
// every leader) for a world of numGroups groups.
func (qc QuorumConfig) leaderQuorum(numGroups int) int {
	if qc.LeaderQ > 0 {
		return qc.LeaderQ
	}
	return numGroups
}

// groupQuorum clamps the configured intra-group quorum for one concrete
// group: the tail group of a non-divisible world is smaller than g, so
// the quorum shrinks with it but never below that group's own strict
// majority.
func groupQuorum(q, groupSize int) int {
	// A group of 1 or 2 has no strict majority above its own size: the
	// whole group is the quorum.
	lo := min(QuorumMin(groupSize), groupSize)
	return max(min(q, groupSize), lo)
}

// verdictRetryPolicy sizes the deadline-aware verdict receive: each
// attempt spans two deadlines (the sender may spend a full deadline
// gathering before it merges and forwards), retried with a backoff of a
// quarter deadline clamped to minVerdictBackoff.
func verdictRetryPolicy(deadline time.Duration) transport.RetryPolicy {
	return transport.RetryPolicy{
		Timeout:  2 * deadline,
		Attempts: verdictAttempts,
		Backoff:  max(deadline/4, minVerdictBackoff),
	}
}

// QuorumGTopKAllReduce runs one flat quorum gTop-k round into a fresh
// result vector: the hierarchical collective over a single group.
func QuorumGTopKAllReduce(ctx context.Context, comm *collective.Comm, local *sparse.Vector, k int, qc QuorumConfig) (*sparse.Vector, bool, []int, error) {
	out := &sparse.Vector{}
	participated, missed, err := HierQuorumGTopKAllReduceInto(ctx, comm, nil, local, k, 0, qc, out)
	if err != nil {
		return nil, false, nil, err
	}
	return out, participated, missed, nil
}

// rankIn reports whether rank r is in the ascending participant set.
func rankIn(participants []int, r int) bool {
	for _, pr := range participants {
		if pr == r {
			return true
		}
	}
	return false
}

// missedFrom derives the missed set — the complement of the ascending
// participant set in [0, p) — with a sorted-merge walk (decodeVerdict
// guarantees the sortedness the walk relies on).
func missedFrom(participants []int, p int) []int {
	if len(participants) >= p {
		return nil
	}
	missed := make([]int, 0, p-len(participants))
	j := 0
	for rank := 0; rank < p; rank++ {
		if j < len(participants) && participants[j] == rank {
			j++
			continue
		}
		missed = append(missed, rank)
	}
	return missed
}

// foldQuorumFrames merges a closed gather's frames on its root — blobs
// indexed by rank, nil where a rank missed the round — with the
// generalized binomial-tree schedule over participant POSITIONS
// (rank-ascending): in round j, position i with
// i mod 2^(j+1) == 0 absorbs position i+2^j via the ⊕ operator of
// Definition 1 (top-k of the sum). With every rank participating,
// positions coincide with ranks and every accumulator sees the exact ⊕
// sequence of the distributed tree — which is what makes full-quorum
// rounds bit-identical to the full-sync collectives.
//
// With withSets the frames are leader frames in the verdict wire format:
// each group's participant set rides ahead of its aggregate, and the
// sets are returned concatenated — leader positions ascend with group
// index and each set ascends within its contiguous rank range, so the
// world set stays strictly ascending. The returned vector is pooled; the
// caller releases it.
func foldQuorumFrames(codec sparse.Codec, blobs [][]byte, k, p int, withSets bool) (*sparse.Vector, []int, error) {
	fs := foldPool.Get().(*foldScratch)
	defer fs.release()
	var sets []int
	for pos, frame := range blobs {
		if frame == nil {
			continue // missed the round
		}
		if withSets {
			set, rest, err := splitVerdict(frame, p)
			if err != nil {
				return nil, nil, fmt.Errorf("core: quorum frame from %d: %w", pos, err)
			}
			sets, frame = append(sets, set...), rest
		}
		fs.vecs = append(fs.vecs, sparse.GetVector())
		if err := decodeInto(codec, frame, fs.vecs[len(fs.vecs)-1]); err != nil {
			return nil, nil, fmt.Errorf("core: quorum frame from %d: %w", pos, err)
		}
	}
	res, err := binomialPositionFold(fs.vecs, k)
	if err != nil {
		return nil, nil, err
	}
	// The gathered blobs are dead once decoded; recycle them (the root's
	// own frame came from the encoder, received frames follow the same
	// receiver-recycles convention as the flat tree).
	for _, b := range blobs {
		sparse.PutBuffer(b)
	}
	return res, sets, nil
}

// foldScratch is a fold's pooled working set — the vectors it folds —
// so a steady-state fold allocates nothing.
type foldScratch struct {
	vecs []*sparse.Vector
}

var foldPool = sync.Pool{New: func() any { return new(foldScratch) }}

// release recycles the scratch's vectors and returns it to the pool
// holding no frame and no vector.
func (fs *foldScratch) release() {
	for _, v := range fs.vecs {
		if v != nil {
			sparse.PutVector(v)
		}
	}
	clear(fs.vecs)
	fs.vecs = fs.vecs[:0]
	foldPool.Put(fs)
}

// binomialPositionFold runs the position-binomial ⊕ schedule over vecs
// (participant-position order, every vector pooled): in round j,
// position i with i mod 2^(j+1) == 0 absorbs position i+2^j via top-k of
// the sum. The result is vecs[0], which is cleared so the caller's
// cleanup of vecs never releases it.
func binomialPositionFold(vecs []*sparse.Vector, k int) (*sparse.Vector, error) {
	sum := sparse.GetVector()
	defer sparse.PutVector(sum)
	for stride := 1; stride < len(vecs); stride <<= 1 {
		for i := 0; i+stride < len(vecs); i += 2 * stride {
			if err := sparse.AddInto(sum, vecs[i], vecs[i+stride]); err != nil {
				return nil, fmt.Errorf("core: quorum merge: %w", err)
			}
			sparse.TopKSparseInto(vecs[i], sum, k)
		}
	}
	res := vecs[0]
	vecs[0] = nil
	return res, nil
}

// encodeVerdict serializes the round verdict: a participant-set header
// followed by the merged global top-k in the mesh codec.
func encodeVerdict(codec sparse.Codec, participants []int, v *sparse.Vector, scale float32, levels []int16) []byte {
	frame := encodeSparse(codec, v, scale, levels)
	buf := make([]byte, 4+4*len(participants)+len(frame))
	binary.LittleEndian.PutUint32(buf, uint32(len(participants)))
	for i, p := range participants {
		binary.LittleEndian.PutUint32(buf[4+4*i:], uint32(p))
	}
	copy(buf[4+4*len(participants):], frame)
	sparse.PutBuffer(frame)
	return buf
}

// splitVerdict parses a verdict frame's participant-set header and
// returns the set plus the sparse frame behind it. The set must be
// strictly ascending ranks inside [0, p) — the canonical form every
// encoder produces and the sorted-merge missed-set derivation relies on —
// so a frame that violates it is rejected rather than silently producing
// a wrong missed set.
func splitVerdict(blob []byte, p int) ([]int, []byte, error) {
	if len(blob) < 4 {
		return nil, nil, fmt.Errorf("core: verdict truncated (%d bytes)", len(blob))
	}
	n := int(binary.LittleEndian.Uint32(blob))
	if n < 1 || n > p || len(blob) < 4+4*n {
		return nil, nil, fmt.Errorf("core: verdict header invalid (%d participants of %d ranks, %d bytes)", n, p, len(blob))
	}
	participants := make([]int, n)
	for i := range participants {
		r := int(binary.LittleEndian.Uint32(blob[4+4*i:]))
		if r >= p {
			return nil, nil, fmt.Errorf("core: verdict participant %d out of range [0,%d)", r, p)
		}
		if i > 0 && r <= participants[i-1] {
			return nil, nil, fmt.Errorf("core: verdict participant set not strictly ascending (%d after %d)", r, participants[i-1])
		}
		participants[i] = r
	}
	return participants, blob[4+4*n:], nil
}

// decodeVerdict parses a verdict frame into out and returns the
// participant set (see splitVerdict for what is rejected).
func decodeVerdict(codec sparse.Codec, blob []byte, p int, out *sparse.Vector) ([]int, error) {
	participants, frame, err := splitVerdict(blob, p)
	if err != nil {
		return nil, err
	}
	return participants, decodeInto(codec, frame, out)
}

// decodeInto decodes one sparse frame under codec into out, which owns
// its slices afterwards (the frame may be recycled at once).
func decodeInto(codec sparse.Codec, frame []byte, out *sparse.Vector) error {
	v, err := codec.DecodeFrame(frame, out)
	if err == nil && codec == sparse.CodecV1 {
		sparse.CopyInto(out, &v)
	}
	return err
}
