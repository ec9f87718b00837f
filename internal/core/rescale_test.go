package core

import (
	"fmt"
	"testing"

	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/spacesaving"
	"github.com/locastream/locastream/internal/topology"
)

// planPlace builds a 2-operator placement with one instance of each
// operator per server (instance i lands on server i under round-robin).
func planPlace(t testing.TB, servers int) *cluster.Placement {
	t.Helper()
	topo, err := topology.NewBuilder("rescale").
		AddOperator(topology.Operator{Name: "A", Parallelism: servers, Stateful: true,
			New: func() topology.Processor { return topology.NewCounter(0) }}).
		AddOperator(topology.Operator{Name: "B", Parallelism: servers, Stateful: true,
			New: func() topology.Processor { return topology.NewCounter(1) }}).
		Connect("A", "B", topology.Fields, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	place, err := cluster.NewRoundRobin(topo, servers)
	if err != nil {
		t.Fatal(err)
	}
	return place
}

// mask builds a usable-server vector with only the listed servers set.
func mask(servers int, on ...int) []bool {
	m := make([]bool, servers)
	for _, s := range on {
		m[s] = true
	}
	return m
}

// TestPlanRescaleScaleDownForcedOnly covers a no-statistics scale-down:
// exactly the leaving server's keys move (table keys plus a
// checkpoint-only ghost resolved via OwnerOf), spread deterministically
// by hash over the remaining servers, with a state move per stateful
// key and the bound equal to the forced count.
func TestPlanRescaleScaleDownForcedOnly(t *testing.T) {
	const servers = 4
	place := planPlace(t, servers)
	tables := map[string]*routing.Table{
		"A": {Assign: map[string]int{}},
		"B": {Assign: map[string]int{}},
	}
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
	for i, k := range keys {
		tables["A"].Assign[k] = i % servers
		tables["B"].Assign[k] = i % servers
	}

	plan, err := PlanRescale(PlanInput{
		Place:     place,
		From:      mask(servers, 0, 1, 2, 3),
		To:        mask(servers, 0, 1, 2),
		Tables:    tables,
		ExtraKeys: map[string][]string{"A": {"ghost"}},
		OwnerOf: func(op, key string) (int, bool) {
			if key == "ghost" {
				return 3, true
			}
			return 0, false
		},
		StatefulOps: []string{"A", "B"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Leaving) != 1 || plan.Leaving[0] != 3 || len(plan.Joining) != 0 {
		t.Fatalf("Leaving = %v Joining = %v, want [3] and none", plan.Leaving, plan.Joining)
	}
	// k3 and k7 on both operators plus the ghost: 5 forced moves, and
	// with no joiners the bound IS the forced count.
	if plan.MovedKeys != 5 || plan.Bound != 5 {
		t.Fatalf("MovedKeys = %d Bound = %d, want 5 and 5", plan.MovedKeys, plan.Bound)
	}
	stayers := []int{0, 1, 2}
	for _, op := range []string{"A", "B"} {
		for i, k := range keys {
			got := plan.Tables[op].Assign[k]
			if i%servers != 3 {
				if got != i%servers {
					t.Errorf("staying key %s/%s moved: %d -> %d", op, k, i%servers, got)
				}
				continue
			}
			want := stayers[routing.HashKey(k, len(stayers))]
			if got != want {
				t.Errorf("forced %s/%s assigned to %d, want hash choice %d", op, k, got, want)
			}
		}
	}
	if got := plan.Tables["A"].Assign["ghost"]; got != stayers[routing.HashKey("ghost", 3)] {
		t.Errorf("ghost assigned to %d, want hash choice", got)
	}
	// One state move per forced stateful key, consistent with the table.
	if len(plan.Moves["A"]) != 3 || len(plan.Moves["B"]) != 2 {
		t.Fatalf("Moves = A:%d B:%d, want 3 and 2", len(plan.Moves["A"]), len(plan.Moves["B"]))
	}
	for op, moves := range plan.Moves {
		for _, m := range moves {
			if m.From != 3 {
				t.Errorf("move %s/%s from inst %d, want 3", op, m.Key, m.From)
			}
			if m.To != plan.Tables[op].Assign[m.Key] {
				t.Errorf("move %s/%s to inst %d, table says %d", op, m.Key, m.To, plan.Tables[op].Assign[m.Key])
			}
		}
	}
	// Assigned mirrors the forced keys.
	if len(plan.Assigned["A"]) != 3 || len(plan.Assigned["B"]) != 2 {
		t.Fatalf("Assigned = %+v, want 3 A keys and 2 B keys", plan.Assigned)
	}
}

// TestPlanRescaleFollowsKeyGraph: a forced key pair heavily correlated
// with a pinned stayer must land on the stayer's server, and the
// correlated pair must stay together — the locality-preserving path.
func TestPlanRescaleFollowsKeyGraph(t *testing.T) {
	const servers = 3
	place := planPlace(t, servers)
	tables := map[string]*routing.Table{
		"A": {Assign: map[string]int{"hot": 2, "warm": 2, "anchor": 0}},
		"B": {Assign: map[string]int{"hot": 2, "warm": 2, "anchor": 0}},
	}
	stats := []engine.PairStat{{
		FromOp: "A", ToOp: "B",
		Pairs: []spacesaving.PairCounter{
			{In: "hot", Out: "hot", Count: 100},
			{In: "warm", Out: "warm", Count: 90},
			{In: "hot", Out: "anchor", Count: 80},
			{In: "warm", Out: "hot", Count: 70},
			{In: "anchor", Out: "anchor", Count: 60},
		},
	}}

	plan, err := PlanRescale(PlanInput{
		Place:       place,
		From:        mask(servers, 0, 1, 2),
		To:          mask(servers, 0, 1),
		Tables:      tables,
		Stats:       stats,
		StatefulOps: []string{"A", "B"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.MovedKeys != 4 {
		t.Fatalf("MovedKeys = %d, want 4 (hot+warm on A and B)", plan.MovedKeys)
	}
	if got := plan.Tables["A"].Assign["anchor"]; got != 0 {
		t.Fatalf("pinned anchor moved to %d", got)
	}
	for _, key := range []string{"hot", "warm"} {
		a, b := plan.Tables["A"].Assign[key], plan.Tables["B"].Assign[key]
		if a == 2 || b == 2 {
			t.Fatalf("%s still assigned to the leaving server (A=%d B=%d)", key, a, b)
		}
		if a != b {
			t.Errorf("pair %s split: A=%d B=%d", key, a, b)
		}
	}
	if got := plan.Tables["A"].Assign["hot"]; got != 0 {
		t.Errorf("hot assigned to %d, want the anchor's server 0", got)
	}
}

// clusteredStats builds nClusters independent heavy key clusters (two
// keys each, cross-linked) — a workload whose from-scratch partition at
// a wider K spreads clusters onto the joining servers.
func clusteredStats(nClusters int) []engine.PairStat {
	st := engine.PairStat{FromOp: "A", ToOp: "B"}
	for c := 0; c < nClusters; c++ {
		a, b := fmt.Sprintf("k%d", 2*c), fmt.Sprintf("k%d", 2*c+1)
		st.Pairs = append(st.Pairs,
			spacesaving.PairCounter{In: a, Out: a, Count: 100},
			spacesaving.PairCounter{In: b, Out: b, Count: 100},
			spacesaving.PairCounter{In: a, Out: b, Count: 90},
		)
	}
	return []engine.PairStat{st}
}

// TestPlanRescaleScaleUpVoluntaryBounded: when servers join, only
// voluntary moves toward the joiners happen, every stayer not selected
// stays put, and MaxMoves caps the disruption.
func TestPlanRescaleScaleUpVoluntaryBounded(t *testing.T) {
	const servers = 4
	place := planPlace(t, servers)
	tables := map[string]*routing.Table{
		"A": {Assign: map[string]int{}},
		"B": {Assign: map[string]int{}},
	}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		tables["A"].Assign[k] = i % 2
		tables["B"].Assign[k] = i % 2
	}
	in := PlanInput{
		Place:       place,
		From:        mask(servers, 0, 1),
		To:          mask(servers, 0, 1, 2, 3),
		Tables:      tables,
		Stats:       clusteredStats(4),
		StatefulOps: []string{"A", "B"},
	}

	plan, err := PlanRescale(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Joining) != 2 || plan.Joining[0] != 2 || plan.Joining[1] != 3 {
		t.Fatalf("Joining = %v, want [2 3]", plan.Joining)
	}
	if len(plan.Leaving) != 0 {
		t.Fatalf("Leaving = %v, want none", plan.Leaving)
	}
	if plan.MovedKeys == 0 {
		t.Fatal("no voluntary moves toward the joining servers")
	}
	if plan.MovedKeys > plan.Bound {
		t.Fatalf("MovedKeys %d exceeds Bound %d", plan.MovedKeys, plan.Bound)
	}
	for op, assigned := range plan.Assigned {
		for key, inst := range assigned {
			s := place.ServerOf(op, inst)
			if s != 2 && s != 3 {
				t.Errorf("voluntary move %s/%s landed on staying server %d", op, key, s)
			}
			if tables[op].Assign[key] == inst {
				t.Errorf("voluntary move %s/%s did not change instance", op, key)
			}
		}
	}
	// Keys not selected stay exactly where they were.
	for op, table := range tables {
		for key, inst := range table.Assign {
			if _, moved := plan.Assigned[op][key]; moved {
				continue
			}
			if got := plan.Tables[op].Assign[key]; got != inst {
				t.Errorf("unselected key %s/%s moved: %d -> %d", op, key, inst, got)
			}
		}
	}
	// State moves accompany every voluntary stateful move.
	moves := 0
	for _, ms := range plan.Moves {
		moves += len(ms)
	}
	if moves != plan.MovedKeys {
		t.Fatalf("state moves = %d, moved keys = %d", moves, plan.MovedKeys)
	}

	// A hard cap of one voluntary move bounds both the plan and its
	// a-priori ceiling.
	in.MaxMoves = 1
	capped, err := PlanRescale(in)
	if err != nil {
		t.Fatal(err)
	}
	if capped.MovedKeys > 1 || capped.Bound != 1 {
		t.Fatalf("capped plan: MovedKeys = %d Bound = %d, want <= 1 and 1", capped.MovedKeys, capped.Bound)
	}
	if capped.MovedKeys > plan.MovedKeys {
		t.Fatalf("capped plan moved more keys (%d) than unbounded (%d)", capped.MovedKeys, plan.MovedKeys)
	}
}

// TestPlanRescaleScaleUpNoStats: with no key graph there is nothing
// worth moving voluntarily — adding servers is a routing no-op until
// the next reconfiguration.
func TestPlanRescaleScaleUpNoStats(t *testing.T) {
	const servers = 3
	place := planPlace(t, servers)
	tables := map[string]*routing.Table{"A": {Assign: map[string]int{"k": 0}}}
	plan, err := PlanRescale(PlanInput{
		Place:       place,
		From:        mask(servers, 0),
		To:          mask(servers, 0, 1, 2),
		Tables:      tables,
		StatefulOps: []string{"A"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.MovedKeys != 0 || plan.Bound != 0 {
		t.Fatalf("MovedKeys = %d Bound = %d, want 0 and 0", plan.MovedKeys, plan.Bound)
	}
	if plan.Tables["A"].Assign["k"] != 0 {
		t.Fatal("stayer moved with no statistics")
	}
}

// TestPlanRescaleSplitReown: a split key with a replica on a leaving
// server is re-owned at its first replica still in the To set — no
// partitioning, no state move — and only a moved pin counts as a moved
// key.
func TestPlanRescaleSplitReown(t *testing.T) {
	const servers = 4
	place := planPlace(t, servers)
	tables := map[string]*routing.Table{
		"B": {Assign: map[string]int{"hot": 3, "cool": 0}},
	}
	plan, err := PlanRescale(PlanInput{
		Place:  place,
		From:   mask(servers, 0, 1, 2, 3),
		To:     mask(servers, 0, 1, 2),
		Tables: tables,
		Splits: []engine.SplitKeyInfo{
			{Op: "B", Key: "hot", Replicas: []int{3, 1}},  // owner leaves
			{Op: "B", Key: "cool", Replicas: []int{0, 3}}, // replica leaves
		},
		StatefulOps: []string{"A", "B"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.SplitReowns) != 2 {
		t.Fatalf("SplitReowns = %+v, want 2", plan.SplitReowns)
	}
	cool, hot := plan.SplitReowns[0], plan.SplitReowns[1]
	if hot.Key != "hot" || hot.NewOwner != 1 || !hot.Moved || len(hot.Gone) != 1 || hot.Gone[0] != 3 {
		t.Fatalf("hot reown = %+v, want owner 1, moved, gone [3]", hot)
	}
	if cool.Key != "cool" || cool.NewOwner != 0 || cool.Moved || len(cool.Gone) != 1 || cool.Gone[0] != 3 {
		t.Fatalf("cool reown = %+v, want owner 0, unmoved, gone [3]", cool)
	}
	if got := plan.Tables["B"].Assign["hot"]; got != 1 {
		t.Fatalf("hot pinned at %d, want surviving replica 1", got)
	}
	if got := plan.Tables["B"].Assign["cool"]; got != 0 {
		t.Fatalf("cool pinned at %d, want unchanged owner 0", got)
	}
	// Only the moved pin counts; re-owning never moves live state.
	if plan.MovedKeys != 1 {
		t.Fatalf("MovedKeys = %d, want 1", plan.MovedKeys)
	}
	if len(plan.Moves) != 0 || len(plan.Assigned) != 0 {
		t.Fatalf("split re-owning produced Moves %+v Assigned %+v", plan.Moves, plan.Assigned)
	}
}

func TestPlanRescaleErrors(t *testing.T) {
	place := planPlace(t, 2)
	if _, err := PlanRescale(PlanInput{}); err == nil {
		t.Error("nil placement accepted")
	}
	if _, err := PlanRescale(PlanInput{Place: place, To: []bool{true}}); err == nil {
		t.Error("short To vector accepted")
	}
	if _, err := PlanRescale(PlanInput{Place: place, To: mask(2, 0), From: []bool{true}}); err == nil {
		t.Error("short From vector accepted")
	}
	if _, err := PlanRescale(PlanInput{Place: place, To: mask(2)}); err == nil {
		t.Error("empty target set accepted")
	}
}

// TestAdoptInstanceFallsBack: when the chosen server hosts no instance
// of the operator, the usable servers are scanned deterministically for
// one that does.
func TestAdoptInstanceFallsBack(t *testing.T) {
	topo, err := topology.NewBuilder("partial").
		AddOperator(topology.Operator{Name: "A", Parallelism: 2, Stateful: true,
			New: func() topology.Processor { return topology.NewCounter(0) }}).
		AddOperator(topology.Operator{Name: "B", Parallelism: 4, Stateful: true,
			New: func() topology.Processor { return topology.NewCounter(1) }}).
		Connect("A", "B", topology.Fields, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// A has instances only on servers 0 and 1; B everywhere.
	place, err := cluster.NewRoundRobin(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	inst, ok := instanceOn(place, "A", "k", 3, []int{0, 1, 2, 3})
	if !ok {
		t.Fatal("no instance found")
	}
	if s := place.ServerOf("A", inst); s != 0 && s != 1 {
		t.Fatalf("adopted on server %d, want a server hosting A", s)
	}
	if _, ok := instanceOn(place, "C", "k", 0, []int{0, 1}); ok {
		t.Fatal("unknown operator adopted")
	}
}

// BenchmarkRescalePlan measures the planner on a 4 -> 8 scale-up over a
// 512-key ring-correlated workload — the cost of one elastic decision.
func BenchmarkRescalePlan(b *testing.B) {
	const servers, keys = 8, 512
	place := planPlace(b, servers)
	tables := map[string]*routing.Table{
		"A": {Assign: map[string]int{}},
		"B": {Assign: map[string]int{}},
	}
	st := engine.PairStat{FromOp: "A", ToOp: "B"}
	for i := 0; i < keys; i++ {
		k, next := fmt.Sprintf("k%d", i), fmt.Sprintf("k%d", (i+1)%keys)
		tables["A"].Assign[k] = i % 4
		tables["B"].Assign[k] = i % 4
		st.Pairs = append(st.Pairs,
			spacesaving.PairCounter{In: k, Out: k, Count: 50},
			spacesaving.PairCounter{In: k, Out: next, Count: 10},
		)
	}
	in := PlanInput{
		Place:       place,
		From:        mask(servers, 0, 1, 2, 3),
		To:          mask(servers, 0, 1, 2, 3, 4, 5, 6, 7),
		Tables:      tables,
		Stats:       []engine.PairStat{st},
		StatefulOps: []string{"A", "B"},
		MaxMoves:    keys / 4,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanRescale(in); err != nil {
			b.Fatal(err)
		}
	}
}
