package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"gtopkssgd/internal/sparse"
)

// This file holds the quorum gTop-k round's configuration, its verdict
// wire format and the position fold: a round gathers every rank's local
// top-k under a per-level deadline, closes once a quorum has
// contributed, and hands a verdict (participant set + merged global
// top-k) back to every rank; hierquorum.go builds its plan for the one
// sparse executor. Stragglers' blocks are never lost — the owner refunds
// the full selected mass to its error-feedback residual, so the missing
// gradient signal rides into a later round exactly like any residual
// mass (DGC's momentum-correction argument makes this convergence-safe).

// LevelTimeouts is one round deadline split into per-level budgets for
// the hierarchical quorum collective (SplitLevels): the intra-group
// gather, the leader-level gather, and the verdict broadcast each get
// their own deadline, and the three sum to the round's Timeout.
type LevelTimeouts struct {
	// Group bounds the intra-group gather (member frames at the leader).
	Group time.Duration
	// Leader bounds the leader-level gather (group aggregates at rank 0).
	Leader time.Duration
	// Broadcast sizes the verdict wait on the way back down
	// (verdictWait), so a late verdict is survived, not lost.
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
	// the per-level deadlines split (see SplitLevels).
	Timeout time.Duration
	// LeaderQ is the hierarchical collective's leader-level quorum q_l
	// over the ⌈P/G⌉ group aggregates; valid values are
	// [QuorumMin(⌈P/G⌉), ⌈P/G⌉]. Zero defaults to a full leader quorum.
	// Must be zero for the flat collective.
	LeaderQ int
}

// QuorumMin returns the smallest legal quorum for a P-rank world:
// ⌈P/2⌉+1, a strict majority, so two disjoint quorums can never close
// the same round with different participant sets.
func QuorumMin(p int) int { return (p+1)/2 + 1 }

// Validate checks the configuration against a P-rank world for the FLAT
// quorum collective; the hierarchical field LeaderQ must be unset.
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
	if g == p {
		if qc.LeaderQ != 0 {
			return fmt.Errorf("core: leader quorum %d set, but the collective is flat (it needs a hierarchy)", qc.LeaderQ)
		}
		return nil
	}
	numGroups := (p + g - 1) / g
	if lo := QuorumMin(numGroups); qc.LeaderQ != 0 && (qc.LeaderQ < lo || qc.LeaderQ > numGroups) {
		return fmt.Errorf("core: leader quorum %d out of range [%d,%d] for %d groups", qc.LeaderQ, lo, numGroups, numGroups)
	}
	return nil
}

// SplitLevels resolves the per-level deadline budgets: the round
// deadline splits 1/4 : 1/2 : 1/4 across intra-group gather, leader
// gather, and broadcast. The leader level — the one whose links cross
// groups and carry the WAN latency — gets the largest slice, and the
// exact remainder lands on the broadcast so the three budgets always sum
// to the round deadline.
func (qc QuorumConfig) SplitLevels() LevelTimeouts {
	group := qc.Timeout / 4
	leader := qc.Timeout / 2
	return LevelTimeouts{Group: group, Leader: leader, Broadcast: qc.Timeout - group - leader}
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

// verdictWait is how long a rank waits for its root's verdict under the
// broadcast budget b: sixteen budgets — a root may spend whole gather
// deadlines, and a relaying leader a delayed gather of its own, before
// the verdict leaves — plus seven pauses of max(b/4, 200 µs), so a
// nanosecond test budget still leaves the root milliseconds.
func verdictWait(b time.Duration) time.Duration {
	return 16*b + 7*max(b/4, 200*time.Microsecond)
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
// the sum. With every member of a block present, positions are the
// block's ranks, so a quorum round's fold at full participation is the
// tree's exact ⊕ sequence. The result is vecs[0], which is cleared so
// the caller's cleanup of vecs never releases it.
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

// encodeVerdict puts a participant-set header in front of an encoded
// sparse frame, in a pooled buffer; frame is recycled.
func encodeVerdict(participants []int, frame []byte) []byte {
	buf := sparse.GetBuffer(4 + 4*len(participants) + len(frame))
	binary.LittleEndian.PutUint32(buf, uint32(len(participants)))
	for i, p := range participants {
		binary.LittleEndian.PutUint32(buf[4+4*i:], uint32(p))
	}
	copy(buf[4+4*len(participants):], frame)
	sparse.PutBuffer(frame)
	return buf
}

// decodeVerdict parses a verdict frame's participant-set header, decodes
// the sparse frame behind it into out and returns the set. The set must
// be strictly ascending ranks inside [0, p) — the canonical form every
// encoder produces, in which a rank appears once — so a frame that
// violates it is rejected rather than silently producing a wrong missed
// set or a wrong charge.
func decodeVerdict(codec sparse.Codec, blob []byte, p int, out *sparse.Vector) ([]int, error) {
	if len(blob) < 4 {
		return nil, fmt.Errorf("core: verdict truncated (%d bytes)", len(blob))
	}
	n := int(binary.LittleEndian.Uint32(blob))
	if n < 1 || n > p || len(blob) < 4+4*n {
		return nil, fmt.Errorf("core: verdict header invalid (%d participants of %d ranks, %d bytes)", n, p, len(blob))
	}
	participants := make([]int, n)
	for i := range participants {
		r := int(binary.LittleEndian.Uint32(blob[4+4*i:]))
		if r >= p {
			return nil, fmt.Errorf("core: verdict participant %d out of range [0,%d)", r, p)
		}
		if i > 0 && r <= participants[i-1] {
			return nil, fmt.Errorf("core: verdict participant set not strictly ascending (%d after %d)", r, participants[i-1])
		}
		participants[i] = r
	}
	return participants, decodeInto(codec, blob[4+4*n:], out)
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
