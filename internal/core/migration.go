package core

import (
	"sort"

	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/routing"
)

// Owner resolves the instance owning key under a routing table with hash
// fallback — the effective fields-grouping function of §3.3. table may be
// nil (pure hashing). op is the recipient operator name, used to salt the
// fallback hash exactly like the routing policies do.
func Owner(table *routing.Table, op, key string, instances int) int {
	if idx, ok := tableOwner(table, key, instances); ok {
		return idx
	}
	return routing.SaltedHashKey(op, key, instances)
}

// tableOwner is the explicit half of Owner: the instance table assigns
// key to, when it names a valid one.
func tableOwner(table *routing.Table, key string, instances int) (int, bool) {
	if table == nil {
		return 0, false
	}
	idx, ok := table.Assign[key]
	return idx, ok && idx >= 0 && idx < instances
}

// DiffTables computes the keys whose owner changes when newT replaces
// oldT for operator op with the given instance count. Only keys named in
// either table can change owners (all other keys hash identically under
// both configurations). Moves are sorted by key for determinism.
func DiffTables(oldT, newT *routing.Table, op string, instances int) []engine.KeyMove {
	var oldKeys, newKeys map[string]int
	if oldT != nil {
		oldKeys = oldT.Assign
	}
	if newT != nil {
		newKeys = newT.Assign
	}
	var moves []engine.KeyMove
	for _, k := range unionKeys(oldKeys, newKeys) {
		if from, to := Owner(oldT, op, k, instances), Owner(newT, op, k, instances); from != to {
			moves = append(moves, engine.KeyMove{Key: k, From: from, To: to})
		}
	}
	return moves
}

// unionKeys returns the sorted union of the keys of two maps.
func unionKeys[V any](a, b map[string]V) []string {
	out := make([]string, 0, len(a)+len(b))
	for k := range a {
		out = append(out, k)
	}
	for k := range b {
		if _, dup := a[k]; !dup {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
