package cluster

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestReshardDeterminism pins the re-shard rule table-driven: the rank
// assignment must be a pure function of the member SET — independent of
// join arrival order, stable across grow-then-shrink round trips, and
// sane at the edges (single member, non-divisible worlds).
func TestReshardDeterminism(t *testing.T) {
	cases := []struct {
		name    string
		members []string
		want    []string
	}{
		{"single member", []string{"solo"}, []string{"solo"}},
		{"already sorted", []string{"a", "b", "c"}, []string{"a", "b", "c"}},
		{"reverse arrival", []string{"c", "b", "a"}, []string{"a", "b", "c"}},
		{"join slots between founders", []string{"w0", "w1", "w2", "w15"}, []string{"w0", "w1", "w15", "w2"}},
		{"numeric-ish names sort lexically", []string{"w10", "w2", "w1"}, []string{"w1", "w10", "w2"}},
		{"empty world", nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Reshard(tc.members)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Reshard(%v) = %v, want %v", tc.members, got, tc.want)
			}
		})
	}
}

// TestReshardArrivalOrderInvariance: every permutation of a member set
// must produce the identical rank assignment — the property that makes
// the coordinator's epoch declaration reproducible no matter which
// joiner's TCP handshake won a race.
func TestReshardArrivalOrderInvariance(t *testing.T) {
	members := []string{"delta", "alpha", "echo", "charlie", "bravo"}
	want := Reshard(members)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		shuffled := append([]string(nil), members...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := Reshard(shuffled); !reflect.DeepEqual(got, want) {
			t.Fatalf("Reshard(%v) = %v, want %v (arrival order must not matter)", shuffled, got, want)
		}
	}
}

// TestReshardInputUntouched: Reshard must copy, not sort the caller's
// slice in place — the coordinator iterates its member map while
// forming epochs.
func TestReshardInputUntouched(t *testing.T) {
	in := []string{"z", "a", "m"}
	Reshard(in)
	if !reflect.DeepEqual(in, []string{"z", "a", "m"}) {
		t.Fatalf("Reshard mutated its input: %v", in)
	}
}

// TestReshardGrowShrinkRoundTrip: growing a world by a joiner and then
// shrinking it away must restore the original assignment exactly, and
// the survivors' relative order must be preserved through both
// transitions — the invariant that lets shrink-era checkpoints resume
// under the name-sort rule.
func TestReshardGrowShrinkRoundTrip(t *testing.T) {
	base := []string{"w0", "w1", "w2"}
	joiners := []string{"a-first", "w05", "w15", "zz-last"}
	for _, j := range joiners {
		t.Run(j, func(t *testing.T) {
			before := Reshard(base)
			grown := Reshard(append(append([]string(nil), base...), j))
			if len(grown) != len(base)+1 {
				t.Fatalf("grown world has %d ranks, want %d", len(grown), len(base)+1)
			}
			// Survivors keep their relative order in the grown epoch.
			var survivors []string
			for _, name := range grown {
				if name != j {
					survivors = append(survivors, name)
				}
			}
			if !reflect.DeepEqual(survivors, before) {
				t.Fatalf("grow by %s scrambled survivors: %v, want %v", j, survivors, before)
			}
			// Shrinking the joiner away restores the original assignment.
			after := Reshard(survivors)
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("grow-then-shrink round trip: %v, want %v", after, before)
			}
		})
	}
}
