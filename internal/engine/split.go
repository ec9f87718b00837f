package engine

import (
	"fmt"
	"sort"

	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/topology"
)

// This file is the engine side of hot-key splitting (Partial Key
// Grouping, Nasir et al.): a promoted key routes 2-of-d-choices over a
// small replica set instead of to its single table owner, each replica
// accumulates a partial state, and demotion (or failure recovery) folds
// the partials back into the owner with the operator's associative
// combine (topology.Mergeable). Split keys are deliberately NOT moved
// through routing tables: the optimizer pins them at their owner and the
// repair planner keeps them out of the key graph, so neither planned
// reconfiguration nor recovery ever "migrates" half a hot key.

// SplitKeyInfo describes one promoted key: its operator, the key value
// and the replica set (Replicas[0] is the owner holding the
// authoritative state; the others hold partials).
type SplitKeyInfo struct {
	Op       string `json:"op"`
	Key      string `json:"key"`
	Replicas []int  `json:"replicas"`
}

// SplitStats aggregates the hot-key splitting counters.
type SplitStats struct {
	// Keys is the number of currently split keys.
	Keys int `json:"keys"`
	// Routed counts tuples routed through split entries (cumulative).
	Routed uint64 `json:"routed"`
	// Promotions / Demotions count split-set transitions (cumulative).
	Promotions uint64 `json:"promotions"`
	Demotions  uint64 `json:"demotions"`
	// MergesSent / MergesApplied count partial-state merge records
	// produced by demoted replicas and folded by owners.
	MergesSent    uint64 `json:"merges_sent"`
	MergesApplied uint64 `json:"merges_applied"`
	// MergeBacklog is MergesSent - MergesApplied: merge records still
	// queued at owners.
	MergeBacklog int64 `json:"merge_backlog"`
	// MaxReplicaSkew is the worst instantaneous queue-depth ratio
	// (max+1)/(min+1) across any split key's replica set — 1.0 means the
	// 2-choice step is keeping replicas level; 0 when nothing is split.
	MaxReplicaSkew float64 `json:"max_replica_skew"`
}

// CanSplit reports whether op's keys are eligible for splitting: the
// engine has splitting enabled, op has at least two instances, and its
// processor declares an associative combine.
func (l *Live) CanSplit(op string) bool {
	insts := l.execs[op]
	return l.cfg.KeySplitting && len(insts) >= 2 && insts[0].mergeable != nil
}

// Parallelism returns the number of instances of op (0 when unknown).
func (l *Live) Parallelism(op string) int { return len(l.execs[op]) }

// PromoteSplit promotes (op, key) to split routing over d replicas
// (raised to 2). The replica set starts at the key's current owner and
// adds instances hosted on distinct alive servers, so the split actually
// spreads load across machines. The new replicas start from empty
// partials — associativity makes that correct — so no state moves.
// Returns the installed replica set.
func (l *Live) PromoteSplit(op, key string, d int) ([]int, error) {
	if !l.cfg.KeySplitting {
		return nil, fmt.Errorf("engine: key splitting disabled")
	}
	if !l.CanSplit(op) {
		return nil, fmt.Errorf("engine: operator %q cannot split keys (needs >= 2 instances and a Mergeable processor)", op)
	}
	if d < 2 {
		d = 2
	}
	owner, ok := l.OwnerOf(op, key)
	if !ok {
		return nil, fmt.Errorf("engine: operator %q has no fields-grouped input", op)
	}
	l.splitMu.Lock()
	defer l.splitMu.Unlock()
	if _, already := l.splits[op][key]; already {
		return nil, fmt.Errorf("engine: %s/%q is already split", op, key)
	}
	replicas := l.chooseReplicas(op, owner, d)
	if len(replicas) < 2 {
		return nil, fmt.Errorf("engine: no alive replica on a distinct server for %s/%q", op, key)
	}
	// Clear any tombstone left by a previous demotion of the same key
	// BEFORE installing split routing: a tombstoned replica would bounce
	// every routed tuple back to the owner, silently disabling the split.
	// A replica that died meanwhile fails the promotion.
	others := l.instances(op, replicas[1:])
	if missed := runCalls(others, func(_ int, e *executor) { delete(e.demoted, key) }); missed >= 0 {
		return nil, fmt.Errorf("engine: replica %s[%d] died during promotion of %q", op, others[missed].inst, key)
	}
	l.forEachFieldsPolicy(op, func(tf *routing.TableFields) { tf.SetSplit(key, replicas) })
	if l.splits[op] == nil {
		l.splits[op] = make(map[string][]int)
	}
	l.splits[op][key] = replicas
	l.splitPromotions.Add(1)
	return append([]int(nil), replicas...), nil
}

// chooseReplicas builds a replica set of up to d instances for op: the
// owner first, then instances on distinct usable (alive and active)
// servers, least loaded over the last completed statistics window first
// — a replica takes half of a hot key, so it belongs on the server with
// the most room, not on whichever one the partitioner happened to label
// owner+1. Ties, and every candidate before the first window closes,
// keep the scan order forward from the owner, so the choice is
// deterministic. Called with splitMu held.
func (l *Live) chooseReplicas(op string, owner, d int) []int {
	insts := l.execs[op]
	n := len(insts)
	if owner < 0 || owner >= n {
		return nil
	}
	var cands []int
	used := map[int]bool{l.place.ServerOf(op, owner): true}
	for off := 1; off < n; off++ {
		cand := (owner + off) % n
		s := l.place.ServerOf(op, cand)
		if used[s] || !l.ServerUsable(s) {
			continue
		}
		used[s] = true
		cands = append(cands, cand)
	}
	if l.windowLoad != nil {
		sort.SliceStable(cands, func(i, j int) bool {
			return l.windowLoad[l.place.ServerOf(op, cands[i])] < l.windowLoad[l.place.ServerOf(op, cands[j])]
		})
	}
	if len(cands) > d-1 {
		cands = cands[:d-1]
	}
	return append([]int{owner}, cands...)
}

// closeLoadWindow ends a statistics window for replica choice: each
// server's window load is what its executors processed since the previous
// call. It differences counters the executors keep anyway, once per
// CollectPairStats, and only when splitting is enabled.
func (l *Live) closeLoadWindow() {
	if l.splits == nil {
		return
	}
	l.splitMu.Lock()
	defer l.splitMu.Unlock()
	if l.windowLoad == nil {
		l.windowLoad = make([]uint64, l.place.Servers())
		l.loadMark = make([]uint64, l.place.Servers())
	}
	total := make([]uint64, len(l.loadMark))
	for _, ex := range l.all {
		total[ex.server] += ex.processed.Load()
	}
	for s := range total {
		l.windowLoad[s] = total[s] - l.loadMark[s]
		l.loadMark[s] = total[s]
	}
}

// DemoteSplit demotes (op, key) back to single-owner routing: the split
// entry is removed first (new tuples route to the owner via the table),
// then every non-owner replica snapshots and deletes its partial,
// installs a forwarding tombstone for late in-flight tuples, and sends
// the partial to the owner as a merge record. DemoteSplit returns only
// after the owner has folded every partial, so a caller observing the
// return sees fully merged single-owner state. A replica killed before
// its demote ran takes its partial with it (the checkpointed partial is
// the recovery path); DemoteSplit still returns nil.
func (l *Live) DemoteSplit(op, key string) error {
	l.splitMu.Lock()
	replicas, ok := l.splits[op][key]
	if !ok {
		l.splitMu.Unlock()
		return fmt.Errorf("engine: %s/%q is not split", op, key)
	}
	delete(l.splits[op], key)
	l.forEachFieldsPolicy(op, func(tf *routing.TableFields) { tf.RemoveSplit(key) })
	l.splitMu.Unlock()

	owner := replicas[0]
	runCalls(l.instances(op, replicas[1:]), func(_ int, e *executor) { e.demote(key, owner) })
	// Every demote has run, and each enqueued its merge record into the
	// owner's FIFO mailbox directly; a barrier behind them therefore runs
	// after every fold.
	runCalls(l.execs[op][owner:owner+1], func(int, *executor) {})
	l.splitDemotions.Add(1)
	return nil
}

// demote makes this non-owner replica snapshot and delete its partial of
// key, install a forwarding tombstone towards owner, and send the
// partial to owner as a merge record.
func (e *executor) demote(key string, owner int) {
	if e.demoted == nil {
		e.demoted = make(map[string]int)
	}
	e.demoted[key] = owner
	if e.keyed == nil {
		return
	}
	if data, ok := e.keyed.SnapshotKey(key); ok {
		e.keyed.DeleteKey(key)
		if _, dirty := e.dirty[key]; dirty {
			delete(e.dirty, key)
			e.dirtyN.Add(-1)
		}
		e.eng.sendMerge(e.op.Name, owner, key, data)
	}
}

// instances resolves instance numbers of op to their executors.
func (l *Live) instances(op string, insts []int) []*executor {
	out := make([]*executor, len(insts))
	for i, inst := range insts {
		out[i] = l.execs[op][inst]
	}
	return out
}

// sendMerge delivers one split-key partial to the owner instance. Merge
// records never take the wire (the frame encoding has no merge flag and
// the ordering argument of DemoteSplit needs the synchronous enqueue).
func (l *Live) sendMerge(op string, owner int, key string, data []byte) {
	l.mergesSent.Add(1)
	if !l.execs[op][owner].box.put(message{kind: msgMigrate, key: key, mig: &migration{data: data, merge: true}}) {
		// The owner died mid-demotion; its live state is gone with it and
		// the checkpointed partials are the recovery path. Settle the
		// backlog gauge so it does not leak forever.
		l.mergesApplied.Add(1)
	}
}

// SplitSnapshot lists the currently split keys, sorted by operator then
// key.
func (l *Live) SplitSnapshot() []SplitKeyInfo {
	if l.splits == nil {
		return nil
	}
	l.splitMu.Lock()
	out := make([]SplitKeyInfo, 0, 8)
	for op, keys := range l.splits {
		for key, replicas := range keys {
			out = append(out, SplitKeyInfo{Op: op, Key: key, Replicas: append([]int(nil), replicas...)})
		}
	}
	l.splitMu.Unlock()
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Op != out[j].Op {
			return out[i].Op < out[j].Op
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// PruneSplitReplicas drops dead instances from every split set after a
// failure: a set that keeps >= 2 alive replicas shrinks in place (first
// alive replica becomes the owner — the same choice PlanRepair makes);
// a set reduced to fewer than 2 is dissolved back to single-owner
// routing. Callers run it after new tables are installed so the
// dissolved keys already route to their repaired owner.
func (l *Live) PruneSplitReplicas() {
	if l.splits == nil {
		return
	}
	l.splitMu.Lock()
	defer l.splitMu.Unlock()
	for op, keys := range l.splits {
		for key, replicas := range keys {
			alive := make([]int, 0, len(replicas))
			for _, r := range replicas {
				if l.ServerUsable(l.place.ServerOf(op, r)) {
					alive = append(alive, r)
				}
			}
			if len(alive) == len(replicas) {
				continue
			}
			k := key
			if len(alive) >= 2 {
				keys[key] = alive
				l.forEachFieldsPolicy(op, func(tf *routing.TableFields) { tf.SetSplit(k, alive) })
			} else {
				delete(keys, key)
				l.forEachFieldsPolicy(op, func(tf *routing.TableFields) { tf.RemoveSplit(k) })
				l.splitDemotions.Add(1)
			}
		}
	}
}

// forEachFieldsPolicy applies fn to every table-based policy that routes
// tuples into op: each fields-grouped in-edge's shared policy object,
// plus the source policy when op is the externally fed source. Policy
// objects are shared across sender instances, so one update covers every
// sender atomically.
func (l *Live) forEachFieldsPolicy(op string, fn func(*routing.TableFields)) {
	if op == l.topo.Source() &&
		(l.cfg.SourceGrouping == 0 || l.cfg.SourceGrouping == topology.Fields) {
		if tf, ok := l.cfg.SourcePolicy.(*routing.TableFields); ok {
			fn(tf)
		}
	}
	for _, e := range l.topo.InEdges(op) {
		if e.Grouping != topology.Fields {
			continue
		}
		if tf, ok := l.cfg.Policies[EdgeKey(e.From, e.To)].(*routing.TableFields); ok {
			fn(tf)
		}
	}
}

// installLoadProbes wires every table-based fields policy to the queue
// depths of its recipient instances, the load signal of the 2-choice
// routing step. Called once from NewLive when KeySplitting is on.
func (l *Live) installLoadProbes() {
	probeFor := func(op string) func(int) int64 {
		insts := l.execs[op]
		return func(inst int) int64 {
			if inst < 0 || inst >= len(insts) {
				return 0
			}
			return insts[inst].box.queueDepth()
		}
	}
	for _, op := range l.topo.Order() {
		op := op
		l.forEachFieldsPolicy(op, func(tf *routing.TableFields) {
			tf.SetLoadProbe(probeFor(op))
		})
	}
}

// annotateSplitRecords marks checkpoint records of currently split keys:
// the record becomes a per-replica partial carrying the replica set, so
// the store keeps one record per replica instead of collapsing them.
func (l *Live) annotateSplitRecords(recs []KeyState) {
	if l.splits == nil {
		return
	}
	l.splitMu.Lock()
	defer l.splitMu.Unlock()
	for i := range recs {
		if replicas, ok := l.splits[recs[i].Op][recs[i].Key]; ok {
			recs[i].Split = true
			recs[i].Replicas = append([]int(nil), replicas...)
		}
	}
}

// SplitStatsSnapshot aggregates the splitting counters (cheap; atomics
// and one pass over the split sets).
func (l *Live) SplitStatsSnapshot() SplitStats {
	st := SplitStats{
		Promotions:    l.splitPromotions.Load(),
		Demotions:     l.splitDemotions.Load(),
		MergesSent:    l.mergesSent.Load(),
		MergesApplied: l.mergesApplied.Load(),
	}
	st.MergeBacklog = int64(st.MergesSent) - int64(st.MergesApplied)
	if tf, ok := l.cfg.SourcePolicy.(*routing.TableFields); ok {
		st.Routed += tf.SplitRouted()
	}
	for _, p := range l.cfg.Policies {
		if tf, ok := p.(*routing.TableFields); ok {
			st.Routed += tf.SplitRouted()
		}
	}
	if l.splits == nil {
		return st
	}
	l.splitMu.Lock()
	for op, keys := range l.splits {
		insts := l.execs[op]
		for _, replicas := range keys {
			st.Keys++
			minD, maxD := int64(-1), int64(0)
			for _, r := range replicas {
				if r < 0 || r >= len(insts) {
					continue
				}
				d := insts[r].box.queueDepth()
				if minD < 0 || d < minD {
					minD = d
				}
				if d > maxD {
					maxD = d
				}
			}
			if minD >= 0 {
				if skew := float64(maxD+1) / float64(minD+1); skew > st.MaxReplicaSkew {
					st.MaxReplicaSkew = skew
				}
			}
		}
	}
	l.splitMu.Unlock()
	return st
}
