package cluster

import "sort"

// This file holds the deterministic re-shard rule of the elastic
// runtime: given an epoch's member set, which rank (and therefore which
// data shard and which slice of every rank-partitioned structure) does
// each worker own? The rule must be a pure function of the member set —
// not of join order, not of the previous epoch's history — so that a
// grown or shrunken cluster, a rejoined worker, and a fresh job started
// from the same snapshots all compute the identical assignment. The
// bit-identity tests (TestElasticShrinkMatchesFreshRun and
// TestElasticGrowMatchesFreshRun) lean on exactly this property.

// Reshard returns the epoch's rank assignment for the given member set:
// a new slice with the names in rank order. The rule is lexicographic
// name order, which has the two properties elasticity needs:
//
//   - Join-order invariance: any permutation of the same member set
//     produces the same assignment, so the coordinator's admission
//     timing can never skew ranks.
//   - Round-trip stability: growing by a member and then losing it (or
//     vice versa) restores the original assignment, so a transient
//     joiner leaves no permanent re-shard debt behind.
//
// Shrink epochs have always had this shape implicitly: epoch 1 ranks by
// name, and removing members preserves sortedness, so "survivors keep
// their previous relative order" and "sort by name" coincide. Grow
// epochs make the rule explicit — an inserted name shifts every member
// that sorts after it to a higher rank, deterministically.
func Reshard(members []string) []string {
	ranked := append([]string(nil), members...)
	sort.Strings(ranked)
	return ranked
}
