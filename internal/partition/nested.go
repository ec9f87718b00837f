package partition

import (
	"fmt"
	"sort"
)

// Nested performs the hierarchical partitioning sketched in the paper's
// conclusion ("Instead of having a binary model in which keys are
// co-located or not, distances between servers can be taken into account
// to leverage rack locality"), for any number of tiers. levels lists the
// tiers outermost first (e.g. cluster, then rack); levels[i][s] is the
// group of server s at tier i, where server s is part s of the result.
// The graph is split across the groups of levels[0] — minimizing traffic
// over the most expensive boundary — with each group weighted by its
// server count, and each group's induced subgraph is split the same way
// over levels[1:] restricted to that group's servers. A tier with a
// single group is skipped, and with no tier left the servers of the
// group are split by the flat Partition. Only the key graph enters every
// level's cut objective; what crossing a tier costs is for the caller's
// migration gate, so the same partition is optimal for any
// non-decreasing tier costs.
//
// Group ids need only be non-negative: groups are ordered by id, so
// sparse numbering is as good as dense. opts.K is ignored when levels is
// non-empty (K is the server count). With no levels, or one group on
// every level, the result is Partition's own, byte for byte.
//
// Sub-partitions derive their seeds from opts.Seed: the split of group g
// (by rank) on a level with n levels left uses Seed + (g+1)·1_000_003ⁿ⁻¹,
// so sibling subgraphs never share a tie-breaking stream and a run is
// reproducible from the one top-level seed.
func Nested(g *Graph, levels [][]int, opts Options) (*Result, error) {
	if len(levels) == 0 {
		return Partition(g, opts)
	}
	if err := validate(g); err != nil {
		return nil, err
	}
	servers := len(levels[0])
	if servers < 1 {
		return nil, fmt.Errorf("partition: nested needs at least one server")
	}
	for i, level := range levels {
		if len(level) != servers {
			return nil, fmt.Errorf("partition: level %d has %d entries for %d servers", i, len(level), servers)
		}
		for s, id := range level {
			if id < 0 {
				return nil, fmt.Errorf("partition: server %d has negative group %d on level %d", s, id, i)
			}
		}
	}
	return nested(g, levels, servers, opts)
}

// seedStride separates the seed ranges of consecutive levels.
const seedStride = 1_000_003

// nested splits g over servers 0..n-1 grouped by levels (validated,
// every level of length n).
func nested(g *Graph, levels [][]int, n int, opts Options) (*Result, error) {
	// Skip the tiers that do not divide these servers.
	var groups [][]int
	for len(levels) > 0 {
		if groups = groupServers(levels[0]); len(groups) > 1 {
			break
		}
		levels = levels[1:]
	}
	if len(levels) == 0 {
		return Partition(g, withK(opts, n))
	}

	fractions := make([]float64, len(groups))
	for i, members := range groups {
		fractions[i] = float64(len(members)) / float64(n)
	}
	top := withK(opts, len(groups))
	top.TargetFractions = fractions
	split, err := Partition(g, top)
	if err != nil {
		return nil, fmt.Errorf("partition level of %d groups: %w", len(groups), err)
	}

	stride := int64(1)
	for range levels[1:] {
		stride *= seedStride
	}
	parts := make([]int, g.NumVertices())
	for i, members := range groups {
		sub, toGlobal := induced(g, split.Parts, i)
		if sub.NumVertices() == 0 {
			continue
		}
		inner := make([][]int, len(levels)-1)
		for l, level := range levels[1:] {
			inner[l] = make([]int, len(members))
			for j, s := range members {
				inner[l][j] = level[s]
			}
		}
		subOpts := opts
		subOpts.Seed = opts.Seed + int64(i+1)*stride
		res, err := nested(sub, inner, len(members), subOpts)
		if err != nil {
			return nil, fmt.Errorf("partition group %d: %w", i, err)
		}
		for sv, p := range res.Parts {
			parts[toGlobal[sv]] = members[p]
		}
	}
	return summarize(g, parts, n), nil
}

// groupServers lists the servers of each group of one level, groups in
// ascending id order and servers ascending within a group.
func groupServers(level []int) [][]int {
	byID := make(map[int][]int)
	for s, id := range level {
		byID[id] = append(byID[id], s)
	}
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	groups := make([][]int, len(ids))
	for i, id := range ids {
		groups[i] = byID[id]
	}
	return groups
}

// CutBetween measures the weight of edges crossing groups for an
// assignment of vertices to servers; groupOf maps a server to its group
// on the tier of interest.
func CutBetween(g *Graph, parts, groupOf []int) uint64 {
	var cut uint64
	for u, list := range g.Adj {
		for _, a := range list {
			if a.To > u && groupOf[parts[a.To]] != groupOf[parts[u]] {
				cut += a.Weight
			}
		}
	}
	return cut
}

func withK(opts Options, k int) Options {
	opts.K = k
	opts.TargetFractions = nil
	return opts
}

// induced extracts the subgraph of vertices assigned to part p, returning
// it along with the mapping from subgraph indices to original indices.
func induced(g *Graph, parts []int, p int) (*Graph, []int) {
	var toGlobal []int
	toLocal := make([]int, len(parts)) // -1: outside part p
	for v, pv := range parts {
		toLocal[v] = -1
		if pv == p {
			toLocal[v] = len(toGlobal)
			toGlobal = append(toGlobal, v)
		}
	}
	sub := &Graph{
		Weights: make([]uint64, len(toGlobal)),
		Adj:     make([][]Adj, len(toGlobal)),
	}
	for lv, gv := range toGlobal {
		sub.Weights[lv] = g.Weights[gv]
		for _, a := range g.Adj[gv] {
			if la := toLocal[a.To]; la >= 0 {
				sub.Adj[lv] = append(sub.Adj[lv], Adj{To: la, Weight: a.Weight})
			}
		}
	}
	return sub, toGlobal
}
