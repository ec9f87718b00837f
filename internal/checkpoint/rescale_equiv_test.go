package checkpoint

import (
	"testing"

	"github.com/locastream/locastream/internal/core"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/spacesaving"
)

// TestPlanRepairEquivalentToPlanRescale: failure repair is the
// degenerate rescale — remove the dead servers, add none. PlanRepair
// (which layers checkpoint restoration on top) must produce exactly the
// tables, move count and split re-ownings of a direct PlanRescale call
// with the same inputs.
func TestPlanRepairEquivalentToPlanRescale(t *testing.T) {
	const servers = 4
	place := repairPlace(t, servers)
	tables := map[string]*routing.Table{
		"A": {Assign: map[string]int{}},
		"B": {Assign: map[string]int{"hot": 3}},
	}
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5"}
	for i, k := range keys {
		tables["A"].Assign[k] = i % servers
	}
	stats := []engine.PairStat{{
		FromOp: "A", ToOp: "B",
		Pairs: []spacesaving.PairCounter{
			{In: "k3", Out: "k3", Count: 100},
			{In: "k3", Out: "k0", Count: 80},
			{In: "k0", Out: "k0", Count: 60},
		},
	}}
	ckpt := []engine.KeyState{
		{Op: "A", Inst: 3, Key: "k3", Data: []byte("s3")},
		{Op: "A", Inst: 3, Key: "orphan", Data: []byte("so")}, // checkpoint-only key
		{Op: "B", Inst: 1, Key: "hot", Data: []byte("p1"), Split: true, Replicas: []int{3, 1}},
		{Op: "B", Inst: 3, Key: "hot", Data: []byte("p3"), Split: true, Replicas: []int{3, 1}},
	}
	splits := []engine.SplitKeyInfo{{Op: "B", Key: "hot", Replicas: []int{3, 1}}}
	ownerOf := func(op, key string) (int, bool) {
		if op == "A" && key == "orphan" {
			return 3, true
		}
		return 0, false
	}
	alive := aliveMask(servers, 3)

	repair, err := PlanRepair(RepairInput{
		Place:       place,
		Alive:       alive,
		Tables:      tables,
		Stats:       stats,
		Checkpoint:  ckpt,
		Splits:      splits,
		OwnerOf:     ownerOf,
		StatefulOps: []string{"A", "B"},
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rescale, err := core.PlanRescale(core.PlanInput{
		Place:       place,
		To:          alive, // From nil = all servers: remove 3, add none
		Tables:      tables,
		Stats:       stats,
		Splits:      splits,
		ExtraKeys:   map[string][]string{"A": {"k3", "orphan"}, "B": {"hot"}},
		OwnerOf:     ownerOf,
		StatefulOps: []string{"A", "B"},
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(rescale.Leaving) != 1 || rescale.Leaving[0] != 3 {
		t.Fatalf("rescale Leaving = %v, want [3]", rescale.Leaving)
	}
	if len(repair.Dead) != len(rescale.Leaving) || repair.Dead[0] != rescale.Leaving[0] {
		t.Fatalf("Dead = %v, Leaving = %v", repair.Dead, rescale.Leaving)
	}
	if repair.MovedKeys != rescale.MovedKeys {
		t.Fatalf("MovedKeys: repair %d, rescale %d", repair.MovedKeys, rescale.MovedKeys)
	}
	for op, rt := range rescale.Tables {
		pt := repair.Tables[op]
		if pt == nil || len(pt.Assign) != len(rt.Assign) {
			t.Fatalf("tables for %s differ: repair %+v, rescale %+v", op, pt, rt)
		}
		for k, inst := range rt.Assign {
			if pt.Assign[k] != inst {
				t.Fatalf("%s[%q]: repair %d, rescale %d", op, k, pt.Assign[k], inst)
			}
		}
	}
	if len(rescale.SplitReowns) != 1 || rescale.SplitReowns[0].NewOwner != 1 {
		t.Fatalf("rescale SplitReowns = %+v, want hot re-owned at 1", rescale.SplitReowns)
	}
	// The repair layered the checkpoint on top: the dead owner's partial
	// merges into the surviving replica the rescale chose.
	foundMerge := false
	for _, r := range repair.Records {
		if r.Op == "B" && r.Key == "hot" {
			if !r.Merge || r.Inst != rescale.SplitReowns[0].NewOwner || string(r.Data) != "p3" {
				t.Fatalf("hot record = %+v, want p3 merged into inst 1", r)
			}
			foundMerge = true
		}
	}
	if !foundMerge {
		t.Fatal("dead owner's partial never merged")
	}
}
