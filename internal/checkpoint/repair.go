package checkpoint

import (
	"fmt"
	"sort"

	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/core"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/routing"
)

// RepairInput is everything the planner needs to compute a
// minimal-movement, locality-preserving reassignment of a dead server's
// keys.
type RepairInput struct {
	// Place is the static instance placement.
	Place *cluster.Placement
	// Alive is the per-server usability vector after the failure
	// (alive AND inside the elastic membership — engine.UsableServers).
	Alive []bool
	// Tables are the currently deployed routing tables (per operator).
	Tables map[string]*routing.Table
	// Stats is the key-pair statistics window retained at the last
	// checkpoint — the key graph the locality-preserving placement of
	// orphaned keys is computed from. The dead server's own sketches are
	// gone with it; this retained copy is why the planner still knows
	// which keys travel together.
	Stats []engine.PairStat
	// Checkpoint is the merged latest checkpoint image (Store.Load).
	// Split keys may contribute several records — one partial per
	// replica instance.
	Checkpoint []engine.KeyState
	// Splits lists the keys currently promoted to replicated (split)
	// routing (engine.Live.SplitSnapshot). A split key never enters the
	// repair partitioning: its new owner is the first surviving replica
	// in original order — the same choice engine.PruneSplitReplicas
	// makes — and dead replicas' checkpointed partials become Merge
	// records folded into that owner.
	Splits []engine.SplitKeyInfo
	// OwnerOf resolves the current owner instance of a key not found in
	// Tables (the hash-fallback path); engine.Live.OwnerOf implements
	// it.
	OwnerOf func(op, key string) (int, bool)
	// StatefulOps are the operators holding keyed state
	// (engine.Live.StatefulOps) — the only ones that need buffer arming
	// and state restoration.
	StatefulOps []string
	// Seed fixes the repair partitioning's tie-breaking.
	Seed int64
}

// RepairPlan is the computed recovery: new routing tables covering every
// reassigned key, the buffers to arm, and the state records to restore.
type RepairPlan struct {
	// Dead lists the dead servers the plan repairs around.
	Dead []int
	// Tables merges the surviving assignments (untouched) with the new
	// homes of the dead servers' keys; install with Manager.ApplyRepair
	// + engine.UpdateTables.
	Tables map[string]*routing.Table
	// Expects maps op -> adopting instance -> keys to arm
	// (engine.RecoverArm), stateful operators only.
	Expects map[string]map[int][]string
	// Records carries one migration record per recovering stateful key,
	// Inst rewritten to the adopting instance; Data is nil for keys that
	// never reached a checkpoint (they restart empty — the bounded-loss
	// guarantee).
	Records []engine.KeyState
	// MovedKeys counts reassigned keys across all operators.
	MovedKeys int
	// RestoredKeys counts records carrying checkpointed state.
	RestoredKeys int
	// MergedPartials counts split-key partial records recovered as
	// merges into a surviving replica.
	MergedPartials int
}

// PlanRepair computes where the dead servers' keys go. It is the
// degenerate case of elastic rescaling — remove servers, add none — and
// delegates the movement planning to core.PlanRescale: survivor keys
// are pinned to their current servers and the retained key graph is
// re-partitioned under that constraint, so orphaned keys land next to
// the keys they exchange tuples with — locality is preserved — while
// keys owned by survivors never move (minimal movement). Orphaned keys
// absent from the graph (no statistics) spread deterministically by
// hash over the survivors. What remains here is the checkpoint layering:
// which buffers to arm and which saved records restore or merge where.
func PlanRepair(in RepairInput) (*RepairPlan, error) {
	if in.Place == nil {
		return nil, fmt.Errorf("checkpoint: repair needs a placement")
	}
	if len(in.Alive) != in.Place.Servers() {
		return nil, fmt.Errorf("checkpoint: %d liveness entries for %d servers",
			len(in.Alive), in.Place.Servers())
	}
	anyAlive := false
	for _, ok := range in.Alive {
		anyAlive = anyAlive || ok
	}
	if !anyAlive {
		return nil, fmt.Errorf("checkpoint: no surviving servers")
	}
	stateful := make(map[string]bool, len(in.StatefulOps))
	for _, op := range in.StatefulOps {
		stateful[op] = true
	}
	// Checkpointed keys belong to the key universe even when no table or
	// statistic names them.
	ckpt := make(map[ImageKey][]engine.KeyState, len(in.Checkpoint))
	extra := make(map[string][]string)
	for _, r := range in.Checkpoint {
		k := ImageKey{Op: r.Op, Key: r.Key}
		if ckpt[k] == nil {
			extra[r.Op] = append(extra[r.Op], r.Key)
		}
		ckpt[k] = append(ckpt[k], r)
	}
	sp, err := core.PlanRescale(core.PlanInput{
		Place:       in.Place,
		To:          in.Alive,
		Tables:      in.Tables,
		Stats:       in.Stats,
		Splits:      in.Splits,
		ExtraKeys:   extra,
		OwnerOf:     in.OwnerOf,
		StatefulOps: in.StatefulOps,
		Seed:        in.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}

	plan := &RepairPlan{
		Dead:      sp.Leaving,
		Tables:    sp.Tables,
		Expects:   make(map[string]map[int][]string),
		MovedKeys: sp.MovedKeys,
	}

	// Surviving splits re-owned by the planner: fold every dead
	// replica's checkpointed partial into the new owner. No buffer
	// arming — the owner's live partial stays valid throughout, and the
	// merge contract is associative, so tuples landing before the merge
	// applies are simply added on top.
	for _, ro := range sp.SplitReowns {
		for _, saved := range ckpt[ImageKey{Op: ro.Op, Key: ro.Key}] {
			if saved.Data == nil || !deadInstance(saved.Inst, ro.Gone) {
				continue
			}
			plan.Records = append(plan.Records, engine.KeyState{
				Op: ro.Op, Inst: ro.NewOwner, Key: ro.Key, Data: saved.Data, Merge: true,
			})
			plan.MergedPartials++
		}
	}

	// Ordinary orphans: arm the adopting instance's buffer and restore
	// the checkpointed state. A key checkpointed while split carries one
	// partial per replica (and a fully-dead split lands here): the
	// owner's partial restores as the base image, the others fold in as
	// merges.
	ops := make([]string, 0, len(sp.Assigned))
	for op := range sp.Assigned {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		keys := make([]string, 0, len(sp.Assigned[op]))
		for key := range sp.Assigned[op] {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			if !stateful[op] {
				continue
			}
			inst := sp.Assigned[op][key]
			if plan.Expects[op] == nil {
				plan.Expects[op] = make(map[int][]string)
			}
			plan.Expects[op][inst] = append(plan.Expects[op][inst], key)
			saved := ckpt[ImageKey{Op: op, Key: key}]
			base := primaryRecord(saved)
			rec := engine.KeyState{Op: op, Inst: inst, Key: key}
			if base >= 0 && saved[base].Data != nil {
				rec.Data = saved[base].Data
				plan.RestoredKeys++
			}
			plan.Records = append(plan.Records, rec)
			for i, s := range saved {
				if i == base || s.Data == nil {
					continue
				}
				plan.Records = append(plan.Records, engine.KeyState{
					Op: op, Inst: inst, Key: key, Data: s.Data, Merge: true,
				})
				plan.MergedPartials++
			}
		}
	}
	return plan, nil
}

// primaryRecord picks the record restored as the key's base image: the
// partial snapshotted at the split owner when the annotation identifies
// one, else the first record (-1 when there are none).
func primaryRecord(recs []engine.KeyState) int {
	if len(recs) == 0 {
		return -1
	}
	for i, r := range recs {
		if r.Split && len(r.Replicas) > 0 && r.Inst == r.Replicas[0] {
			return i
		}
	}
	return 0
}

// deadInstance reports whether inst is in the dead replica list.
func deadInstance(inst int, dead []int) bool {
	for _, d := range dead {
		if d == inst {
			return true
		}
	}
	return false
}
