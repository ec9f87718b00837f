package core

import (
	"sort"

	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/metrics"
	"github.com/locastream/locastream/internal/routing"
)

// FederatedCandidate is a global tiered candidate split along the
// cluster boundary: one ClusterCandidate per cluster carrying only that
// cluster's intra-cluster moves, plus the cross-cluster remainder. The
// federation layer gates each part separately — local moves pay the
// ordinary per-key migration cost, cross-cluster moves pay the
// inter-cluster multiple (100×) — and merges the approved
// parts into one deployment.
type FederatedCandidate struct {
	// Global is the unrestricted tiered candidate the parts were carved
	// from (its Stats/Splits feed the hot-key splitter as usual).
	Global *Candidate
	// Current is the deployed configuration the moves are relative to.
	Current map[string]*routing.Table
	// Clusters holds one entry per cluster that has at least one local
	// move, ordered by cluster id.
	Clusters []ClusterCandidate
	// Cross describes the cross-cluster move set.
	Cross CrossCandidate

	localMoves map[int][]keyMove
	crossMoves []keyMove
}

// ClusterCandidate is one cluster's share of a federated candidate: the
// current tables with only this cluster's intra-cluster moves applied,
// scored by the ordinary impact estimator — the per-cluster controller's
// measure→decide input.
type ClusterCandidate struct {
	// Cluster is the cluster id.
	Cluster int
	// Tables is the deployable configuration for this cluster alone.
	Tables map[string]*routing.Table
	// Impact scores deploying Tables instead of keeping Current.
	Impact Impact
	// KeysMoved is the number of keys whose owner changes (within the
	// cluster).
	KeysMoved int
}

// CrossCandidate is the federation layer's half of a federated
// candidate: the keys the global partition wants to move between
// clusters, and what routing them at their new homes saves on the
// inter-cluster link.
type CrossCandidate struct {
	// KeysMoved is the number of keys changing cluster.
	KeysMoved int
	// CurrentInterCluster and CandidateInterCluster are the pair-weight
	// volumes crossing clusters per statistics period without and with
	// the cross-cluster moves (both on top of every local move, so the
	// delta isolates what the cross moves themselves buy).
	CurrentInterCluster   float64
	CandidateInterCluster float64
	// SavedInterClusterPerPeriod is their difference.
	SavedInterClusterPerPeriod float64
	// CostMultiplier is the inter-cluster transfer cost relative to a
	// same-rack hop (the cluster.TierCosts ratio, 100):
	// migrating a key across clusters ships its state over the metered
	// link, so the gate charges this multiple of the ordinary per-key
	// cost.
	CostMultiplier float64
}

// Worthwhile reports whether the cross-cluster moves clear the
// federation cost gate: the inter-cluster tuple transfers saved per
// period must amortize migrating KeysMoved keys over the inter-cluster
// link, i.e. at CostMultiplier times the ordinary costPerKey.
func (cc CrossCandidate) Worthwhile(costPerKey float64) bool {
	if cc.KeysMoved == 0 {
		return false
	}
	return cc.SavedInterClusterPerPeriod >= costPerKey*cc.CostMultiplier*float64(cc.KeysMoved)
}

// keyMove records one key's current owner and where the global
// candidate wants it.
type keyMove struct {
	op       string
	key      string
	curInst  int
	candInst int
}

// alignClusters relabels the candidate's cluster-level assignment to
// agree maximally with the current deployment. A fresh two-level
// partition carries no label continuity: on a roughly symmetric
// workload the level-1 split can come back with whole clusters swapped,
// which reads as "move every key across the inter-cluster link" — a
// giant zero-saving cross move set that buries the real drift moves the
// federation gate should be judging. The relabeling is matchParts over
// the keys each candidate cluster shares with each deployed one (hash
// fallback included); the remap sends each candidate server to its
// positional counterpart in the relabeled cluster, so only clusters that
// map rack onto rack that way may trade labels (sameRackLayout) and the
// intra-cluster structure is untouched. A no-op unless the partitioner
// split keys across clusters.
func (m *Manager) alignClusters(current, cand map[string]*routing.Table) {
	clusters := m.place.Clusters()
	if clusters < 2 || m.opt.Levels() == nil {
		return
	}
	agree := make([][]uint64, clusters)
	for c := range agree {
		agree[c] = make([]uint64, clusters)
	}
	for op, t := range cand {
		if t == nil || m.place.Parallelism(op) == 0 {
			continue
		}
		for key, inst := range t.Assign {
			cc := m.place.ClusterOf(m.place.ServerOf(op, inst))
			_, curServer := m.opt.endpoint(current, op, key)
			if uc := m.place.ClusterOf(curServer); cc >= 0 && uc >= 0 {
				agree[cc][uc]++
			}
		}
	}
	servers := make([][]int, clusters)
	for c := range servers {
		servers[c] = m.place.ServersInCluster(c)
	}
	perm := matchParts(agree, func(cc, uc int) bool { return m.sameRackLayout(servers[cc], servers[uc]) })

	for op, t := range cand {
		if t == nil {
			continue
		}
		for key, inst := range t.Assign {
			s := m.place.ServerOf(op, inst)
			c := m.place.ClusterOf(s)
			if c < 0 || perm[c] == c {
				continue
			}
			for i, sv := range servers[c] {
				if sv == s {
					if ni, ok := instanceOn(m.place, op, key, servers[perm[c]][i], nil); ok {
						t.Assign[key] = ni
					}
					break
				}
			}
		}
	}
}

// sameRackLayout reports whether the positional server map a[i] -> b[i]
// between two clusters keeps co-racked servers co-racked and separated
// ones separated, i.e. the clusters' rack sizes match position for
// position.
func (m *Manager) sameRackLayout(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := 0; j < i; j++ {
			if (m.place.RackOf(a[i]) == m.place.RackOf(a[j])) != (m.place.RackOf(b[i]) == m.place.RackOf(b[j])) {
				return false
			}
		}
	}
	return true
}

// FederatedCandidate computes a global tiered candidate and splits it
// along the cluster boundary. Like Candidate, it resets the statistics
// window; unlike Candidate it also prices the cross-cluster move set so
// the caller can gate it separately. costPerKey is the controller's
// ordinary per-key migration cost: cross moves that cannot individually
// amortize costPerKey times the inter-cluster multiple are pruned from
// the cross set (their keys keep the current owner), so a handful of
// genuinely drifted keys is never averaged against the partitioner's
// marginal relabelings. Zero disables pruning.
func (m *Manager) FederatedCandidate(costPerKey float64) (*FederatedCandidate, error) {
	cand, err := m.Candidate()
	if err != nil {
		return nil, err
	}
	current := m.tables
	fc := &FederatedCandidate{
		Global:     cand,
		Current:    cloneTables(current),
		localMoves: make(map[int][]keyMove),
	}

	// Classify every owner change by the clusters of its endpoints. The
	// cluster a local move belongs to is the (shared) cluster of both
	// owners; a move whose owners sit in different clusters crosses the
	// link.
	for _, op := range unionKeys(current, cand.Tables) {
		n := m.place.Parallelism(op)
		if n == 0 {
			continue
		}
		for _, d := range DiffTables(current[op], cand.Tables[op], op, n) {
			mv := keyMove{op: op, key: d.Key, curInst: d.From, candInst: d.To}
			curCluster := m.place.ClusterOf(m.place.ServerOf(op, d.From))
			candCluster := m.place.ClusterOf(m.place.ServerOf(op, d.To))
			if curCluster == candCluster {
				fc.localMoves[curCluster] = append(fc.localMoves[curCluster], mv)
			} else {
				fc.crossMoves = append(fc.crossMoves, mv)
			}
		}
	}

	clusters := make([]int, 0, len(fc.localMoves))
	for c := range fc.localMoves {
		clusters = append(clusters, c)
	}
	sort.Ints(clusters)
	for _, c := range clusters {
		tables := cloneTables(current)
		applyMoves(tables, fc.localMoves[c], cand.Plan.Version)
		fc.Clusters = append(fc.Clusters, ClusterCandidate{
			Cluster:   c,
			Tables:    tables,
			Impact:    m.opt.EstimateImpact(cand.Stats, current, tables),
			KeysMoved: len(fc.localMoves[c]),
		})
	}

	mult := cluster.TierCosts[metrics.TierRegion] / cluster.TierCosts[metrics.TierRack]

	// Per-key pruning: keep only cross moves that individually clear the
	// inter-cluster gate.
	allCross := fc.crossMoves
	if len(allCross) > 0 && costPerKey > 0 {
		savings := m.crossSavings(cand.Stats, cand.Tables, allCross)
		kept := make([]keyMove, 0, len(allCross))
		for _, mv := range allCross {
			if savings[[2]string{mv.op, mv.key}] >= costPerKey*mult {
				kept = append(kept, mv)
			}
		}
		fc.crossMoves = kept
	}

	// Price the kept cross moves on top of every local move, so their
	// saving is exactly what crossing the link buys.
	noCross := cloneTables(cand.Tables)
	for _, mv := range allCross {
		setOwner(noCross, mv.op, mv.key, mv.curInst, cand.Plan.Version)
	}
	withCross := cloneTables(noCross)
	applyMoves(withCross, fc.crossMoves, cand.Plan.Version)
	curCross, candCross := m.opt.EstimateInterCluster(cand.Stats, noCross, withCross)
	fc.Cross = CrossCandidate{
		KeysMoved:                  len(fc.crossMoves),
		CurrentInterCluster:        curCross,
		CandidateInterCluster:      candCross,
		SavedInterClusterPerPeriod: curCross - candCross,
		CostMultiplier:             mult,
	}
	return fc, nil
}

// crossSavings estimates, for each cross-moved key, the inter-cluster
// pair weight its move alone removes: every pair touching the key is
// scored with the key at its current versus candidate owner while the
// partner key sits at its candidate owner. A pair between two moved
// keys is credited to both — an overcount the pruning heuristic
// tolerates (it only risks keeping a borderline move, never dropping a
// clearly good one).
func (m *Manager) crossSavings(stats []engine.PairStat, cand map[string]*routing.Table, moves []keyMove) map[[2]string]float64 {
	moved := make(map[[2]string]keyMove, len(moves))
	for _, mv := range moves {
		moved[[2]string{mv.op, mv.key}] = mv
	}
	savings := make(map[[2]string]float64, len(moves))
	cross := func(a, b int) float64 {
		if m.place.ClusterOf(a) != m.place.ClusterOf(b) {
			return 1
		}
		return 0
	}
	for _, st := range stats {
		if m.place.Parallelism(st.FromOp) == 0 || m.place.Parallelism(st.ToOp) == 0 {
			continue
		}
		for _, p := range st.Pairs {
			fromID := [2]string{st.FromOp, p.In}
			toID := [2]string{st.ToOp, p.Out}
			mvFrom, fromMoved := moved[fromID]
			mvTo, toMoved := moved[toID]
			if !fromMoved && !toMoved {
				continue
			}
			_, candFrom := m.opt.endpoint(cand, st.FromOp, p.In)
			_, candTo := m.opt.endpoint(cand, st.ToOp, p.Out)
			candCross := cross(candFrom, candTo)
			if fromMoved {
				rev := cross(m.place.ServerOf(st.FromOp, mvFrom.curInst), candTo)
				savings[fromID] += (rev - candCross) * float64(p.Count)
			}
			if toMoved {
				rev := cross(candFrom, m.place.ServerOf(st.ToOp, mvTo.curInst))
				savings[toID] += (rev - candCross) * float64(p.Count)
			}
		}
	}
	return savings
}

// MergeFederated builds the deployable candidate from the approved
// parts: the current tables plus the local moves of every approved
// cluster, plus the cross-cluster moves when approveCross. The merged
// candidate's impact is re-estimated so the journal records what the
// merged deploy — not the unrestricted global one — is expected to buy.
// Returns nil when nothing was approved (there is nothing to deploy).
func (m *Manager) MergeFederated(fc *FederatedCandidate, approved map[int]bool, approveCross bool) *Candidate {
	version := fc.Global.Plan.Version
	tables := cloneTables(fc.Current)
	any := false
	for _, cc := range fc.Clusters {
		if !approved[cc.Cluster] {
			continue
		}
		any = true
		applyMoves(tables, fc.localMoves[cc.Cluster], version)
	}
	if approveCross && len(fc.crossMoves) > 0 {
		any = true
		applyMoves(tables, fc.crossMoves, version)
	}
	if !any {
		return nil
	}
	return &Candidate{
		Tables: tables,
		Plan:   fc.Global.Plan,
		Impact: m.opt.EstimateImpact(fc.Global.Stats, fc.Current, tables),
		Stats:  fc.Global.Stats,
		Splits: fc.Global.Splits,
	}
}

// applyMoves rewrites the owner of every moved key.
func applyMoves(tables map[string]*routing.Table, moves []keyMove, version uint64) {
	for _, mv := range moves {
		setOwner(tables, mv.op, mv.key, mv.candInst, version)
	}
}

// setOwner points one key at one instance, creating the table if needed.
func setOwner(tables map[string]*routing.Table, op, key string, inst int, version uint64) {
	t := tables[op]
	if t == nil {
		t = &routing.Table{Version: version, Assign: make(map[string]int)}
		tables[op] = t
	}
	t.Assign[key] = inst
}
