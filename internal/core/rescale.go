package core

import (
	"fmt"
	"sort"

	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/keygraph"
	"github.com/locastream/locastream/internal/partition"
	"github.com/locastream/locastream/internal/routing"
)

// This file is the planning half of elastic scaling: a minimal-movement
// repartition planner (PlanRescale) that generalizes the failure-repair
// pin-survivors-move-few logic to arbitrary membership changes. The
// decision half — when to add or remove servers — is control.Scaler.

// PlanInput is everything PlanRescale needs to compute a
// minimal-movement, locality-preserving repartition against a new
// server set.
type PlanInput struct {
	// Place is the static instance placement, built at full capacity.
	Place *cluster.Placement
	// From is the usable-server vector before the change (nil means
	// every server). Servers in From but not To are leaving; servers in
	// To but not From are joining.
	From []bool
	// To is the usable-server vector after the change.
	To []bool
	// Tables are the currently deployed routing tables (per operator).
	Tables map[string]*routing.Table
	// Stats is the key-pair statistics window the locality-preserving
	// placement is computed from.
	Stats []engine.PairStat
	// Splits lists the keys currently promoted to replicated (split)
	// routing. A split key never enters the partitioning: it is pinned
	// at its first replica whose server is in To — the same choice
	// engine.PruneSplitReplicas makes — and only a split key with no
	// replica in To falls through to the ordinary move path.
	Splits []engine.SplitKeyInfo
	// ExtraKeys names keys (per operator) that belong to the key
	// universe beyond tables, splits and statistics — the repair path
	// passes the checkpointed keys here.
	ExtraKeys map[string][]string
	// OwnerOf resolves the current owner instance of a key not found in
	// Tables (the hash-fallback path); engine.Live.OwnerOf implements
	// it.
	OwnerOf func(op, key string) (int, bool)
	// StatefulOps are the operators holding keyed state — the only ones
	// whose moves carry a state migration.
	StatefulOps []string
	// Seed fixes the partitioner's tie-breaking.
	Seed int64
	// MaxMoves caps the voluntary moves toward joining servers (the
	// disruption bound). Forced moves — keys whose server leaves — are
	// never capped: they must go somewhere. <= 0 means unbounded.
	MaxMoves int
}

// SplitReown records where a split (replicated) key was re-owned during
// the plan: pinned at NewOwner, with Gone listing replica instances
// whose server left the To set (their partials, if checkpointed, merge
// into the new owner — the repair path consumes this).
type SplitReown struct {
	Op, Key  string
	NewOwner int
	// Moved reports that the original owner (first replica) left, so
	// the table pin changed.
	Moved bool
	Gone  []int
}

// RescalePlan is the computed repartition.
type RescalePlan struct {
	// Leaving and Joining are the servers removed from / added to the
	// usable set, ascending.
	Leaving []int
	Joining []int
	// Tables merges the untouched assignments with the new homes of
	// every moved key.
	Tables map[string]*routing.Table
	// Moves carries the live state migrations (stateful operators
	// only): for each moved key the owning instance before and after.
	// Manager.Rescale feeds them to engine.Reconfigure. The repair path
	// ignores Moves — dead instances cannot snapshot — and
	// restores from the checkpoint instead.
	Moves map[string][]engine.KeyMove
	// Assigned maps op -> key -> adopting instance for every ordinary
	// (non-split) moved key; the repair path derives buffer arming and
	// restore records from it.
	Assigned map[string]map[string]int
	// SplitReowns lists the split keys re-pinned during the plan,
	// sorted by (op, key).
	SplitReowns []SplitReown
	// MovedKeys counts reassigned keys across all operators (forced +
	// voluntary + moved split pins).
	MovedKeys int
	// Bound is the a-priori ceiling on MovedKeys for this step: forced
	// moves plus the voluntary cap.
	Bound int
}

// PlanRescale computes a minimal-movement repartition against the To
// server set. Keys on staying servers are pinned and the retained key
// graph is re-partitioned under that constraint, so keys forced off
// leaving servers land next to the keys they exchange tuples with —
// locality is preserved — while nothing else moves. When servers join,
// a bounded number of voluntary moves (heaviest keys first, chosen by
// overlap with a from-scratch partition) shift load onto them without
// exceeding MaxMoves. Remove-one-server with no joiners degenerates to
// exactly the failure-repair plan.
func PlanRescale(in PlanInput) (*RescalePlan, error) {
	if in.Place == nil {
		return nil, fmt.Errorf("core: rescale needs a placement")
	}
	n := in.Place.Servers()
	if len(in.To) != n {
		return nil, fmt.Errorf("core: %d membership entries for %d servers", len(in.To), n)
	}
	if in.From != nil && len(in.From) != n {
		return nil, fmt.Errorf("core: %d from-membership entries for %d servers", len(in.From), n)
	}
	var toList []int
	for s, ok := range in.To {
		if ok {
			toList = append(toList, s)
		}
	}
	if len(toList) == 0 {
		return nil, fmt.Errorf("core: no servers in target set")
	}
	partOf := make(map[int]int, len(toList)) // server -> part index
	for i, s := range toList {
		partOf[s] = i
	}
	inFrom := func(s int) bool { return in.From == nil || in.From[s] }
	plan := &RescalePlan{
		Tables:   cloneTables(in.Tables),
		Moves:    make(map[string][]engine.KeyMove),
		Assigned: make(map[string]map[string]int),
	}
	for s := 0; s < n; s++ {
		switch {
		case inFrom(s) && !in.To[s]:
			plan.Leaving = append(plan.Leaving, s)
		case in.To[s] && !inFrom(s):
			plan.Joining = append(plan.Joining, s)
		}
	}
	stateful := make(map[string]bool, len(in.StatefulOps))
	for _, op := range in.StatefulOps {
		stateful[op] = true
	}

	// The key universe: everything named by a routing table, a split,
	// an extra (checkpointed) key, or the retained key graph. Keys
	// outside it have neither state nor an explicit assignment; after
	// the alive-mask routing update they hash-detour deterministically.
	keysOf := make(map[string]map[string]bool)
	note := func(op, key string) {
		if keysOf[op] == nil {
			keysOf[op] = make(map[string]bool)
		}
		keysOf[op][key] = true
	}
	for op, t := range in.Tables {
		for key := range t.Assign {
			note(op, key)
		}
	}
	for op, keys := range in.ExtraKeys {
		for _, key := range keys {
			note(op, key)
		}
	}

	// Split keys route by their replica set, not the table. One with a
	// replica in To is re-owned in place: the first such replica in
	// original order becomes the owner and the key is pinned there, out
	// of the partitioning, its table pin following when the old owner
	// left. No state moves — the surviving replica's live partial stays
	// valid throughout; the repair path folds departed partials in via
	// SplitReowns. Only a split key that lost every replica falls through
	// to the ordinary move path below.
	pinnedServer := make(map[keygraph.VertexID]int) // re-owned splits, then stayers
	forcedMoves := 0
	for _, si := range in.Splits {
		note(si.Op, si.Key)
		ro := SplitReown{Op: si.Op, Key: si.Key, NewOwner: -1}
		for _, inst := range si.Replicas {
			s := in.Place.ServerOf(si.Op, inst)
			if s >= 0 && in.To[s] {
				if ro.NewOwner == -1 {
					ro.NewOwner = inst
				}
			} else {
				ro.Gone = append(ro.Gone, inst)
			}
		}
		if ro.NewOwner == -1 {
			continue // every replica left: ordinary move
		}
		ownerS := in.Place.ServerOf(si.Op, si.Replicas[0])
		ro.Moved = ownerS < 0 || !in.To[ownerS]
		pinnedServer[keygraph.VertexID{Op: si.Op, Key: si.Key}] = in.Place.ServerOf(si.Op, ro.NewOwner)
		plan.SplitReowns = append(plan.SplitReowns, ro)
		if ro.Moved {
			setOwner(plan.Tables, si.Op, si.Key, ro.NewOwner, 0)
			plan.MovedKeys++
			forcedMoves++
		}
	}
	sort.Slice(plan.SplitReowns, func(i, j int) bool {
		a, b := plan.SplitReowns[i], plan.SplitReowns[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Key < b.Key
	})

	graph := keygraph.New()
	for _, st := range in.Stats {
		graph.AddPairs(st.FromOp, st.ToOp, st.Pairs, 0)
	}
	for _, v := range graph.Vertices() {
		note(v.ID.Op, v.ID.Key)
	}

	// Current owners, split into pinned stayers and forced moves.
	ownerInst := func(op, key string) (int, bool) {
		if inst, ok := tableOwner(in.Tables[op], key, in.Place.Parallelism(op)); ok {
			return inst, true
		}
		if in.OwnerOf != nil {
			if inst, ok := in.OwnerOf(op, key); ok {
				return inst, true
			}
		}
		return 0, false
	}
	type moveKey struct {
		op, key  string
		fromInst int // owning instance before the move (-1 unknown)
	}
	var forced []moveKey
	currentServer := make(map[keygraph.VertexID]int)
	currentInst := make(map[keygraph.VertexID]int)
	for _, op := range unionKeys(keysOf, nil) {
		for _, key := range unionKeys(keysOf[op], nil) {
			id := keygraph.VertexID{Op: op, Key: key}
			if _, reowned := pinnedServer[id]; reowned {
				continue
			}
			inst, ok := ownerInst(op, key)
			if !ok {
				continue // unroutable (no fields-grouped input): nothing to move
			}
			server := in.Place.ServerOf(op, inst)
			if server < 0 {
				continue
			}
			if in.To[server] {
				pinnedServer[id] = server
				currentServer[id] = server
				currentInst[id] = inst
			} else {
				forced = append(forced, moveKey{op: op, key: key, fromInst: inst})
			}
		}
	}

	assign := func(op, key string, inst int, fromInst int) {
		setOwner(plan.Tables, op, key, inst, 0)
		plan.MovedKeys++
		if plan.Assigned[op] == nil {
			plan.Assigned[op] = make(map[string]int)
		}
		plan.Assigned[op][key] = inst
		if stateful[op] && fromInst >= 0 && fromInst != inst {
			plan.Moves[op] = append(plan.Moves[op], engine.KeyMove{Key: key, From: fromInst, To: inst})
		}
	}

	// Forced placement: re-partition the retained key graph over the To
	// set with every staying vertex pinned to its current server. Only
	// the forced keys are free, so the partitioner places each next to
	// its heaviest staying neighbours under the balance constraint —
	// and cannot move anything else. Forced keys absent from the graph
	// spread deterministically by hash over the To servers.
	ids, pg := partitionGraph(graph)
	if len(forced) > 0 {
		forcedServer := make(map[keygraph.VertexID]int, len(forced))
		if len(ids) > 0 {
			pinned := make([]int, len(ids))
			for i, id := range ids {
				if s, ok := pinnedServer[id]; ok {
					pinned[i] = partOf[s]
				} else {
					pinned[i] = -1
				}
			}
			res, err := partition.Partition(pg,
				partition.Options{K: len(toList), Alpha: rescaleAlpha, Seed: in.Seed, Pinned: pinned})
			if err != nil {
				return nil, fmt.Errorf("core: rescale partition: %w", err)
			}
			for i, id := range ids {
				if pinned[i] == -1 {
					forcedServer[id] = toList[res.Parts[i]]
				}
			}
		}
		for _, m := range forced {
			server, ok := forcedServer[keygraph.VertexID{Op: m.op, Key: m.key}]
			if !ok {
				// No statistics for this key: spread by hash over To.
				server = toList[routing.HashKey(m.key, len(toList))]
			}
			inst, ok := instanceOn(in.Place, m.op, m.key, server, toList)
			if !ok {
				return nil, fmt.Errorf("core: no usable instance of %q", m.op)
			}
			assign(m.op, m.key, inst, m.fromInst)
			forcedMoves++
		}
	}

	// Voluntary phase: when servers join, compute the partition the
	// optimizer would build from scratch at the new width, match its
	// parts to servers by maximum overlap with the current ownership
	// (so staying servers keep their clusters), and move only the keys
	// the from-scratch plan hands to a JOINING server — heaviest first,
	// at most MaxMoves of them. That keeps disruption bounded while the
	// moved keys are the ones whose relocation buys the most balance.
	voluntaryCap := 0
	if len(plan.Joining) > 0 && len(ids) > 0 {
		res, err := partition.Partition(pg,
			partition.Options{K: len(toList), Alpha: rescaleAlpha, Seed: in.Seed})
		if err != nil {
			return nil, fmt.Errorf("core: fresh partition: %w", err)
		}
		overlap := make([][]uint64, len(toList))
		for p := range overlap {
			overlap[p] = make([]uint64, len(toList))
		}
		for i, id := range ids {
			if s, ok := currentServer[id]; ok {
				overlap[res.Parts[i]][partOf[s]] += pg.Weights[i]
			}
		}
		target := matchParts(overlap, nil)
		type candidate struct {
			id     keygraph.VertexID
			weight uint64
			server int
		}
		var cands []candidate
		for i, id := range ids {
			cur, ok := currentServer[id]
			if !ok {
				continue // forced, split or unroutable: not a voluntary move
			}
			want := toList[target[res.Parts[i]]] // in To, so joining iff not in From
			if inFrom(want) || want == cur {
				continue
			}
			cands = append(cands, candidate{id: id, weight: pg.Weights[i], server: want})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].weight != cands[j].weight {
				return cands[i].weight > cands[j].weight
			}
			if cands[i].id.Op != cands[j].id.Op {
				return cands[i].id.Op < cands[j].id.Op
			}
			return cands[i].id.Key < cands[j].id.Key
		})
		voluntaryCap = len(cands)
		if in.MaxMoves > 0 && in.MaxMoves < voluntaryCap {
			voluntaryCap = in.MaxMoves
		}
		taken := 0
		for _, c := range cands {
			if taken >= voluntaryCap {
				break
			}
			inst, ok := instanceOn(in.Place, c.id.Op, c.id.Key, c.server, toList)
			if !ok || inst == currentInst[c.id] {
				continue
			}
			assign(c.id.Op, c.id.Key, inst, currentInst[c.id])
			taken++
		}
	}
	plan.Bound = forcedMoves + voluntaryCap
	return plan, nil
}
