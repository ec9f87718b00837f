// Package core implements the paper's primary contribution: the manager
// that turns key-pair statistics into locality-aware routing tables
// (§3.3) and deploys them online with the DAG-ordered reconfiguration and
// state-migration protocol of §3.4 (Algorithm 1).
package core

import (
	"fmt"

	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/keygraph"
	"github.com/locastream/locastream/internal/partition"
	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/spacesaving"
	"github.com/locastream/locastream/internal/topology"
)

// OptimizerOptions tune the routing-table computation.
type OptimizerOptions struct {
	// Alpha is the load-imbalance bound passed to the partitioner. Zero
	// selects the paper's 1.03 (Metis default, §4.3).
	Alpha float64
	// MaxEdges bounds how many of the heaviest key pairs are considered
	// per operator pair (Fig. 12 studies this knob). Zero keeps all.
	MaxEdges int
	// Seed makes partitioning deterministic.
	Seed int64
	// CoarsenTo and RefinePasses are forwarded to the partitioner (zero
	// selects its defaults).
	CoarsenTo    int
	RefinePasses int
	// Flat makes the partitioner ignore the racks and clusters the
	// placement declares — the baseline for measuring what the nested
	// partition buys. Traffic accounting and simulation costs still see
	// the tiers; only the partitioner (and with it the federation layer)
	// does not.
	Flat bool
}

// Plan reports what a computed configuration promises. The expected
// locality is the one Metis reports in the paper ("Metis reports an
// expected locality of 75%", §4.3) — achieved locality on future data is
// lower because unseen keys fall back to hashing.
type Plan struct {
	// Version is the monotonically increasing configuration number.
	Version uint64
	// ExpectedLocality is 1 - cut/total over the statistics the tables
	// were computed from.
	ExpectedLocality float64
	// Imbalance is the partitioner's max/avg vertex-weight ratio.
	Imbalance float64
	// Keys is the number of distinct keys assigned.
	Keys int
	// Edges is the number of key pairs considered.
	Edges int
}

// Optimizer computes locality-aware routing tables from collected
// statistics. Not safe for concurrent use.
type Optimizer struct {
	topo    *topology.Topology
	place   *cluster.Placement
	opts    OptimizerOptions
	version uint64
	// active, when non-nil, restricts partitioning to these servers
	// (ascending) — the elastic membership. Nil means every server.
	active []int
}

// SetActiveServers restricts the next table computations to the given
// servers (ascending; nil restores full capacity). With a restricted
// membership the partitioner builds K=len(active) parts and maps part i
// to active[i], so no key is ever assigned to a parked server.
func (o *Optimizer) SetActiveServers(active []int) {
	if active == nil {
		o.active = nil
		return
	}
	o.active = append([]int(nil), active...)
}

// NewOptimizer returns an optimizer for the given deployment.
func NewOptimizer(topo *topology.Topology, place *cluster.Placement, opts OptimizerOptions) (*Optimizer, error) {
	if topo == nil || place == nil {
		return nil, fmt.Errorf("core: optimizer needs a topology and a placement")
	}
	if opts.Alpha == 0 {
		opts.Alpha = partition.DefaultAlpha
	}
	if opts.Alpha < 1 {
		return nil, fmt.Errorf("core: alpha %f < 1", opts.Alpha)
	}
	return &Optimizer{topo: topo, place: place, opts: opts}, nil
}

// ComputeTables builds the key graph from the statistics, partitions it
// across servers, and derives one routing table per operator named in the
// statistics. Keys absent from the tables keep hash routing (§3.3).
func (o *Optimizer) ComputeTables(stats []engine.PairStat) (map[string]*routing.Table, *Plan, error) {
	return o.ComputeTablesSplit(stats, nil)
}

// ComputeTablesSplit is ComputeTables with the currently split hot keys
// pinned: their pairs are excluded from the key graph (a key routed
// 2-of-d-choices has no single locality to optimize, and its enormous
// weight would dominate the partitioner's balance objective), and each
// split key is pinned to its current owner in the resulting tables so a
// deployment never migrates half a hot key while replicas hold partials.
func (o *Optimizer) ComputeTablesSplit(stats []engine.PairStat, splits []engine.SplitKeyInfo) (map[string]*routing.Table, *Plan, error) {
	o.version++
	plan := &Plan{Version: o.version, Imbalance: 1}

	splitKeys := make(map[string]map[string]int, len(splits))
	for _, s := range splits {
		if len(s.Replicas) == 0 {
			continue
		}
		if splitKeys[s.Op] == nil {
			splitKeys[s.Op] = make(map[string]int)
		}
		splitKeys[s.Op][s.Key] = s.Replicas[0]
	}

	g := keygraph.New()
	for _, st := range stats {
		if o.place.Parallelism(st.FromOp) == 0 {
			return nil, nil, fmt.Errorf("core: statistics mention unknown operator %q", st.FromOp)
		}
		if o.place.Parallelism(st.ToOp) == 0 {
			return nil, nil, fmt.Errorf("core: statistics mention unknown operator %q", st.ToOp)
		}
		g.AddPairs(st.FromOp, st.ToOp, filterSplitPairs(st, splitKeys), o.opts.MaxEdges)
	}
	plan.Keys = g.NumVertices()
	plan.Edges = g.NumEdges()
	if g.NumVertices() == 0 {
		// Nothing observed: empty tables, pure hash routing — with split
		// keys still pinned at their owners.
		tables := map[string]*routing.Table{}
		o.pinSplitKeys(tables, splitKeys, plan)
		return tables, plan, nil
	}

	ids, pg := partitionGraph(g)
	servers := o.active // nil: all servers, identity part->server map
	popts := partition.Options{
		K:            o.place.Servers(),
		Alpha:        o.opts.Alpha,
		Seed:         o.opts.Seed,
		CoarsenTo:    o.opts.CoarsenTo,
		RefinePasses: o.opts.RefinePasses,
	}
	if servers != nil {
		popts.K = len(servers)
	}
	res, err := partition.Nested(pg, o.Levels(), popts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: partition key graph: %w", err)
	}
	if tw := g.TotalEdgeWeight(); tw > 0 {
		plan.ExpectedLocality = 1 - float64(res.CutWeight)/float64(tw)
	}
	plan.Imbalance = res.Imbalance

	// Part p goes to server p as labelled. Relabelling the parts against
	// the deployed owners (matchParts) was measured and saves only ~4 % of
	// the moved keys: from window to window it is the grouping, not the
	// labels, that changes (DESIGN, "Where a key lives: one planner").
	tables := make(map[string]*routing.Table)
	for i, id := range ids {
		server := res.Parts[i]
		if servers != nil {
			server = servers[res.Parts[i]]
		}
		inst, ok := instanceOn(o.place, id.Op, id.Key, server, nil)
		if !ok {
			// No instance of this operator on the chosen server (only
			// possible with sparse placements): leave the key to hash
			// fallback.
			continue
		}
		setOwner(tables, id.Op, id.Key, inst, o.version)
	}
	o.pinSplitKeys(tables, splitKeys, plan)
	return tables, plan, nil
}

// filterSplitPairs drops key pairs touching a split key on either side
// before they enter the key graph. It aliases the input slice when
// nothing is dropped, so the common unsplit case copies nothing.
func filterSplitPairs(st engine.PairStat, splitKeys map[string]map[string]int) []spacesaving.PairCounter {
	fromSplit, toSplit := splitKeys[st.FromOp], splitKeys[st.ToOp]
	if len(fromSplit) == 0 && len(toSplit) == 0 {
		return st.Pairs
	}
	touches := func(p spacesaving.PairCounter) bool {
		if _, ok := fromSplit[p.In]; ok {
			return true
		}
		_, ok := toSplit[p.Out]
		return ok
	}
	keep := st.Pairs
	for i, p := range st.Pairs {
		if touches(p) {
			keep = append(make([]spacesaving.PairCounter, 0, len(st.Pairs)-1), st.Pairs[:i]...)
			for _, q := range st.Pairs[i+1:] {
				if !touches(q) {
					keep = append(keep, q)
				}
			}
			break
		}
	}
	return keep
}

// pinSplitKeys forces every split key to its current owner in the
// candidate tables, overriding whatever the partitioner decided for
// other keys of the same operator. DiffTables then sees from == to for
// the key and plans no migration.
func (o *Optimizer) pinSplitKeys(tables map[string]*routing.Table, splitKeys map[string]map[string]int, plan *Plan) {
	for op, keys := range splitKeys {
		for key, owner := range keys {
			setOwner(tables, op, key, owner, plan.Version)
		}
	}
}

// Levels returns the tier list the partitioner follows, outermost
// first: the placement's racks and clusters, or nil — partition flat —
// when the placement declares none, when Flat asks for the baseline, or
// while the elastic membership is restricted (the tiers describe the full
// server set; a shrunk cluster partitions flat until it is back at
// capacity). Every "is the hierarchy in effect" decision reads this.
func (o *Optimizer) Levels() [][]int {
	if o.opts.Flat || o.active != nil {
		return nil
	}
	return o.place.Levels()
}

// Version returns the last computed configuration version.
func (o *Optimizer) Version() uint64 { return o.version }

// NextVersion allocates and returns a fresh configuration version, used
// by out-of-band table changes (failure repair) so they supersede the
// last optimized configuration and are superseded by the next one.
func (o *Optimizer) NextVersion() uint64 {
	o.version++
	return o.version
}

// EnsureVersion raises the version counter to at least v, so that
// configurations computed after recovering version v supersede it.
func (o *Optimizer) EnsureVersion(v uint64) {
	if o.version < v {
		o.version = v
	}
}
