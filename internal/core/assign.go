package core

import (
	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/keygraph"
	"github.com/locastream/locastream/internal/partition"
	"github.com/locastream/locastream/internal/routing"
)

// This file holds the three steps every planner in the package shares on
// the way from a partition to "which instance owns this key": handing the
// key graph to the partitioner, matching the partitioner's arbitrary part
// labels to the places that already hold most of each part, and picking
// the instance on the chosen server.

// rescaleAlpha is the balance bound of every membership-change
// partitioning (elastic rescale and failure repair) — deliberately looser
// than the optimizer's 1.03: while servers come and go, keeping
// correlated key pairs together and moving few keys outranks strict
// balance, and the next planned reconfiguration restores the tight bound
// anyway.
const rescaleAlpha = 1.5

// partitionGraph hands a key graph to the partitioner. keygraph.Adj is
// partition.Adj, so the CSR arrays become the partition.Graph as they
// are; ids maps vertex indices back to (operator, key).
func partitionGraph(g *keygraph.Graph) ([]keygraph.VertexID, *partition.Graph) {
	ids, weights, adj := g.CSR()
	return ids, &partition.Graph{Weights: weights, Adj: adj}
}

// matchParts is the greedy maximum-overlap bijection between fresh part
// labels (rows) and existing places (columns): overlap[p][q] is how much
// of part p already sits at place q, and the heaviest still-free
// compatible pair is matched first, ties going to the lowest (p, q). Once
// only zero overlaps remain that same rule hands each leftover row, in
// order, the lowest free compatible column. compatible (nil: every pair)
// must split the indices into classes — an equivalence — so that the
// greedy choice can never strand a row and the result is a bijection
// inside each class. Returns row -> column.
func matchParts(overlap [][]uint64, compatible func(p, q int) bool) []int {
	k := len(overlap)
	perm := make([]int, k)
	for p := range perm {
		perm[p] = -1
	}
	taken := make([]bool, k)
	for round := 0; round < k; round++ {
		bp, bq := -1, -1
		for p := 0; p < k; p++ {
			if perm[p] >= 0 {
				continue
			}
			for q := 0; q < k; q++ {
				if taken[q] || (compatible != nil && !compatible(p, q)) {
					continue
				}
				if bp < 0 || overlap[p][q] > overlap[bp][bq] {
					bp, bq = p, q
				}
			}
		}
		if bp < 0 {
			break
		}
		perm[bp], taken[bq] = bq, true
	}
	return perm
}

// instanceOn picks the instance of op on server that owns key, spreading
// co-located instances by key hash. When op has no instance there, the
// usable servers are scanned in order, starting after server, for one
// that hosts the operator; with no usable list (the optimizer's case)
// there is no scan, ok is false and the key stays on hash fallback.
func instanceOn(place *cluster.Placement, op, key string, server int, usable []int) (int, bool) {
	if insts := place.InstancesOn(op, server); len(insts) > 0 {
		return insts[routing.HashKey(key, len(insts))], true
	}
	start := 0
	for i, s := range usable {
		if s == server {
			start = i
			break
		}
	}
	for i := 1; i < len(usable); i++ {
		s := usable[(start+i)%len(usable)]
		if insts := place.InstancesOn(op, s); len(insts) > 0 {
			return insts[routing.HashKey(key, len(insts))], true
		}
	}
	return 0, false
}
