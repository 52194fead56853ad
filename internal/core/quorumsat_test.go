package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// TestVerdictWaitSurvivesLateVerdict holds rank 0's verdict frames back
// three broadcast budgets — longer than one budget, well inside the
// verdict wait — in the flat and the grouped round. Rank 0 sends nothing
// but verdicts, so every rank still ends with the reference fold's bits
// and the full participant set.
func TestVerdictWaitSurvivesLateVerdict(t *testing.T) {
	const p, dim, k, budget = 8, 300, 12, 100 * time.Millisecond
	_, vecs := makeWorkerVectors(4242, p, dim, k)
	for _, tc := range []struct {
		name string
		g    int
		qc   QuorumConfig
	}{
		{"flat", 0, QuorumConfig{Q: p, Timeout: budget}},
		{"grouped", 4, QuorumConfig{Q: 4, LeaderQ: 2, Timeout: 4 * budget}}, // a quarter of it broadcasts
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner, err := transport.NewInProc(p)
			if err != nil {
				t.Fatal(err)
			}
			fab := transport.NewFaultInjector(inner, transport.FaultPlan{Seed: 1, Delay: 3 * budget, SlowRanks: []int{0}})
			defer fab.Close() //nolint:errcheck // test fabric
			outs, parts, missed := runHierQuorumWorld(t, fab, vecs, k, tc.g, tc.qc)
			want := serialTreeMerge(t, vecs, k)
			if tc.g > 0 {
				want = hierOracle(t, vecs, k, tc.g)
			}
			for r := 0; r < p; r++ {
				if !parts[r] || len(missed[r]) != 0 {
					t.Fatalf("rank %d: participated=%v missed=%v, want every rank in", r, parts[r], missed[r])
				}
				requireBitIdentical(t, fmt.Sprintf("rank %d vs reference", r), outs[r], want)
			}
		})
	}
}

// TestVerdictWaitEndsWithoutRoot runs one rank of a round whose root
// never runs: after its gather frame it waits one verdict wait for a
// verdict that never comes, and then fails with an error naming that
// wait, long before its context's own deadline — in the flat round and
// as a member of a group whose leader never runs.
func TestVerdictWaitEndsWithoutRoot(t *testing.T) {
	qc := QuorumConfig{Q: 2, Timeout: 10 * time.Millisecond}
	for _, tc := range []struct {
		name       string
		p, g, rank int
		broadcast  time.Duration
	}{
		{"flat", 2, 0, 1, qc.Timeout},
		{"grouped", 4, 2, 3, qc.SplitLevels().Broadcast},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab, err := transport.NewInProc(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Close() //nolint:errcheck // test fabric
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			local := &sparse.Vector{Dim: 16, Indices: []int32{3}, Values: []float32{1}}
			start := time.Now()
			_, _, _, err = hierOnce(ctx, collective.New(fab.Conn(tc.rank)), local, 1, tc.g, qc)
			took, wait := time.Since(start), verdictWait(tc.broadcast)
			if err == nil || !strings.Contains(err.Error(), "verdict wait") || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("got %v, want an error naming the verdict wait", err)
			}
			if ctx.Err() != nil || took < wait || took > wait+2*time.Second {
				t.Fatalf("gave up after %v, want the %v verdict wait (context error %v)", took, wait, ctx.Err())
			}
		})
	}
}

// TestDecodeVerdictRejectsMalformed pins the verdict-frame hardening:
// the missed-set derivation walks the participant list with a
// sorted-merge pointer, so a list that is not strictly ascending inside
// [0, P) must be rejected rather than silently yielding a wrong missed
// set.
func TestDecodeVerdictRejectsMalformed(t *testing.T) {
	const p = 8
	v := &sparse.Vector{Dim: 16, Indices: []int32{1, 5}, Values: []float32{2, -3}}
	mk := func(participants []int) []byte {
		return encodeVerdict(participants, sparse.EncodeCodec(sparse.CodecV1, v))
	}

	out := &sparse.Vector{}
	good, err := decodeVerdict(sparse.CodecV1, mk([]int{0, 2, 3, 7}), p, out)
	if err != nil {
		t.Fatalf("canonical verdict rejected: %v", err)
	}
	if fmt.Sprint(good) != "[0 2 3 7]" {
		t.Fatalf("participants %v", good)
	}
	requireBitIdentical(t, "decoded verdict payload", out, v)

	cases := map[string][]byte{
		"truncated":          mk([]int{0, 1, 2})[:3],
		"header past buffer": mk([]int{0, 1})[:10], // claims 2 participants, room for 1
		"duplicate":          mk([]int{0, 2, 2, 5}),
		"descending":         mk([]int{5, 3, 1}),
		"out of range":       mk([]int{0, 3, p}),
	}
	zero := mk([]int{0, 1, 2})
	binary.LittleEndian.PutUint32(zero, 0)
	cases["zero participants"] = zero
	over := mk([]int{0, 1, 2})
	binary.LittleEndian.PutUint32(over, uint32(p+1))
	cases["more than P"] = over
	for name, blob := range cases {
		if _, err := decodeVerdict(sparse.CodecV1, blob, p, &sparse.Vector{}); err == nil {
			t.Errorf("%s verdict accepted", name)
		}
	}
}

// TestQuorumArrivalOrderChaos floods every link with jittered delays so
// gather arrival order is adversarial (but deterministic per seed), and
// pins the invariants the verdict wire format promises regardless of
// WHICH ranks make a round: the participant set is a strictly-ascending
// quorum-or-better subset containing the root, every rank derives the
// identical missed set, and the merge equals the serial position-fold
// over exactly the participants — so replicas agree bit-for-bit even
// when frames raced the deadline in shuffled orders.
func TestQuorumArrivalOrderChaos(t *testing.T) {
	const p, dim, k = 8, 300, 12
	_, vecs := makeWorkerVectors(5150, p, dim, k)
	qc := QuorumConfig{Q: QuorumMin(p), Timeout: 60 * time.Millisecond}

	for _, seed := range []uint64{1, 12, 123} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inner, err := transport.NewInProc(p)
			if err != nil {
				t.Fatal(err)
			}
			// All links afflicted: delays uniform in [0, 80ms] straddle the
			// 60ms deadline, so arrival order — and the participant set —
			// is a pure function of the seed.
			fab := transport.NewFaultInjector(inner, transport.FaultPlan{
				Seed: seed, Delay: 40 * time.Millisecond, Jitter: 1.0,
			})
			defer fab.Close() //nolint:errcheck // test fabric
			outs, parts, missed := runQuorumWorld(t, fab, vecs, k, qc)

			ref := missed[0]
			for i := 1; i < len(ref); i++ {
				if ref[i] <= ref[i-1] {
					t.Fatalf("missed set not strictly ascending: %v", ref)
				}
			}
			if len(ref) > p-qc.Q {
				t.Fatalf("%d ranks missed, but the round may close with at most %d absent", len(ref), p-qc.Q)
			}
			var participants []*sparse.Vector
			for r := 0; r < p; r++ {
				isMissed := slices.Contains(ref, r)
				if r == 0 && isMissed {
					t.Fatal("root reported missed from its own round")
				}
				if parts[r] == isMissed {
					t.Fatalf("rank %d participated=%v but missed set is %v", r, parts[r], ref)
				}
				if fmt.Sprint(missed[r]) != fmt.Sprint(ref) {
					t.Fatalf("rank %d missed=%v, rank 0 saw %v", r, missed[r], ref)
				}
				if !isMissed {
					participants = append(participants, vecs[r])
				}
			}
			want := serialTreeMerge(t, participants, k)
			for r := 0; r < p; r++ {
				requireBitIdentical(t, fmt.Sprintf("rank %d vs serial fold", r), outs[r], want)
			}
		})
	}
}
