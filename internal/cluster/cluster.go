// Package cluster models the physical deployment of a topology: a set of
// servers and the static assignment of operator instances (POIs) to them.
// Following §3.1 of the paper, the placement is an input to the routing
// optimizer, not something it changes (operator scheduling is orthogonal
// related work).
package cluster

import (
	"fmt"
	"sort"

	"github.com/locastream/locastream/internal/metrics"
	"github.com/locastream/locastream/internal/topology"
)

// TierCosts is the relative transfer cost of each locality tier, indexed
// by the metrics.Tier* constants: in-process free, rack hop 1,
// cross-rack 4, and the cross-cluster link 100× a rack hop — the gate
// every federated migration must amortize.
var TierCosts = [metrics.NumTiers]float64{0, 1, 4, 100}

// Placement maps every operator instance to the server hosting it, and
// every server to a rack inside a cluster (one rack in one cluster by
// default). The tiers feed the hierarchical locality extension sketched
// in the paper's conclusion: the partitioner splits keys across clusters
// before racks before servers (Levels), and traffic is classified by the
// cheapest tier two servers share (Tier).
type Placement struct {
	servers  int
	serverOf map[string][]int // op -> instance index -> server
	// levels is the tier list set by AssignTiers, outermost first:
	// levels[0][s] is the cluster and levels[1][s] the rack of server s,
	// both numbered densely, rack numbers unique across clusters. Nil
	// until tiers are assigned.
	levels [][]int
}

// NewRoundRobin places instance i of every operator on server i mod
// servers. With parallelism == servers this reproduces the paper's
// deployment, where each server hosts exactly one instance of each
// operator (X_i on server i, §4.1).
func NewRoundRobin(t *topology.Topology, servers int) (*Placement, error) {
	if servers < 1 {
		return nil, fmt.Errorf("cluster: %d servers, want >= 1", servers)
	}
	p := newPlacement(servers)
	for _, op := range t.Operators() {
		assign := make([]int, op.Parallelism)
		for i := range assign {
			assign[i] = i % servers
		}
		p.serverOf[op.Name] = assign
	}
	return p, nil
}

func newPlacement(servers int) *Placement {
	return &Placement{servers: servers, serverOf: make(map[string][]int)}
}

// NewExplicit builds a placement from an explicit map of operator name to
// per-instance server indices.
func NewExplicit(t *topology.Topology, servers int, assign map[string][]int) (*Placement, error) {
	if servers < 1 {
		return nil, fmt.Errorf("cluster: %d servers, want >= 1", servers)
	}
	p := newPlacement(servers)
	for _, op := range t.Operators() {
		a, ok := assign[op.Name]
		if !ok {
			return nil, fmt.Errorf("cluster: no placement for operator %q", op.Name)
		}
		if len(a) != op.Parallelism {
			return nil, fmt.Errorf("cluster: operator %q has %d instances but %d placements",
				op.Name, op.Parallelism, len(a))
		}
		for i, s := range a {
			if s < 0 || s >= servers {
				return nil, fmt.Errorf("cluster: operator %q instance %d on invalid server %d",
					op.Name, i, s)
			}
		}
		p.serverOf[op.Name] = append([]int(nil), a...)
	}
	return p, nil
}

// AssignTiers declares the deployment's hierarchy: the rack and the
// cluster of every server, one non-negative id per server. Ids need not
// be dense — they are renumbered 0..n-1 in ascending order. A nil
// clusterOf means one cluster; a nil rackOf means one rack per cluster.
// Every rack must stay within one cluster (a physical rack cannot
// straddle the cross-region link). On error the placement keeps its
// previous tiers.
func (p *Placement) AssignTiers(rackOf, clusterOf []int) error {
	if clusterOf == nil {
		clusterOf = make([]int, p.servers)
	}
	if rackOf == nil {
		rackOf = clusterOf
	}
	clusters, err := p.compact("cluster", clusterOf)
	if err != nil {
		return err
	}
	racks, err := p.compact("rack", rackOf)
	if err != nil {
		return err
	}
	first := make(map[int]int) // rack -> first server seen in it
	for s, r := range racks {
		if s0, ok := first[r]; !ok {
			first[r] = s
		} else if clusters[s0] != clusters[s] {
			return fmt.Errorf("cluster: rack %d spans clusters %d and %d", rackOf[s], clusterOf[s0], clusterOf[s])
		}
	}
	p.levels = [][]int{clusters, racks}
	return nil
}

// compact validates one tier's server→id list and renumbers its ids
// densely, preserving their order.
func (p *Placement) compact(tier string, ids []int) ([]int, error) {
	if len(ids) != p.servers {
		return nil, fmt.Errorf("cluster: %d %s entries for %d servers", len(ids), tier, p.servers)
	}
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	if sorted[0] < 0 {
		return nil, fmt.Errorf("cluster: negative %s %d", tier, sorted[0])
	}
	dense := make(map[int]int)
	for _, id := range sorted {
		if _, ok := dense[id]; !ok {
			dense[id] = len(dense)
		}
	}
	out := make([]int, len(ids))
	for s, id := range ids {
		out[s] = dense[id]
	}
	return out, nil
}

// Levels returns the tier list for partition.Nested, outermost first
// (cluster, then rack; the caller must not modify it) — nil when no
// tiers were assigned, i.e. the deployment is flat.
func (p *Placement) Levels() [][]int { return p.levels }

// Servers returns the number of servers.
func (p *Placement) Servers() int { return p.servers }

// group returns the dense id of a server's group on one level: 0 while
// no tiers are assigned, -1 for invalid servers.
func (p *Placement) group(level, server int) int {
	if server < 0 || server >= p.servers {
		return -1
	}
	if p.levels == nil {
		return 0
	}
	return p.levels[level][server]
}

// RackOf returns the rack of a server (-1 for invalid servers).
func (p *Placement) RackOf(server int) int { return p.group(1, server) }

// ClusterOf returns the cluster of a server (-1 for invalid servers).
func (p *Placement) ClusterOf(server int) int { return p.group(0, server) }

// Clusters returns the number of clusters (1 unless AssignTiers declared
// more).
func (p *Placement) Clusters() int {
	n := 1
	for s := 0; s < p.servers; s++ {
		if c := p.ClusterOf(s) + 1; c > n {
			n = c
		}
	}
	return n
}

// ServersInCluster returns the server indices assigned to cluster c.
func (p *Placement) ServersInCluster(c int) []int {
	var out []int
	for s := 0; s < p.servers; s++ {
		if p.ClusterOf(s) == c {
			out = append(out, s)
		}
	}
	return out
}

// Tier classifies a transfer between two servers into a locality tier
// (metrics.TierServer..TierRegion). Invalid servers map to TierRegion,
// the most conservative class.
func (p *Placement) Tier(from, to int) int {
	if from < 0 || from >= p.servers || to < 0 || to >= p.servers {
		return metrics.TierRegion
	}
	if from == to {
		return metrics.TierServer
	}
	switch {
	case p.ClusterOf(from) != p.ClusterOf(to):
		return metrics.TierRegion
	case p.RackOf(from) != p.RackOf(to):
		return metrics.TierCluster
	}
	return metrics.TierRack
}

// Parallelism returns the instance count of op (0 when unknown).
func (p *Placement) Parallelism(op string) int { return len(p.serverOf[op]) }

// ServerOf returns the server hosting instance idx of op; -1 when the
// operator or instance is unknown.
func (p *Placement) ServerOf(op string, idx int) int {
	a, ok := p.serverOf[op]
	if !ok || idx < 0 || idx >= len(a) {
		return -1
	}
	return a[idx]
}

// ServersOf returns a copy of the per-instance server assignment of op.
func (p *Placement) ServersOf(op string) []int {
	return append([]int(nil), p.serverOf[op]...)
}

// InstancesOn returns the instance indices of op hosted on server s.
func (p *Placement) InstancesOn(op string, s int) []int {
	var out []int
	for i, server := range p.serverOf[op] {
		if server == s {
			out = append(out, i)
		}
	}
	return out
}
