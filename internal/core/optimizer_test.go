package core

import (
	"fmt"
	"strconv"
	"testing"

	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/spacesaving"
	"github.com/locastream/locastream/internal/topology"
)

func evalTopology(t testing.TB, parallelism int) (*topology.Topology, *cluster.Placement) {
	t.Helper()
	topo, err := topology.NewBuilder("eval").
		AddOperator(topology.Operator{Name: "A", Parallelism: parallelism, Stateful: true,
			New: func() topology.Processor { return topology.NewCounter(0) }}).
		AddOperator(topology.Operator{Name: "B", Parallelism: parallelism, Stateful: true,
			New: func() topology.Processor { return topology.NewCounter(1) }}).
		Connect("A", "B", topology.Fields, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	place, err := cluster.NewRoundRobin(topo, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return topo, place
}

func pairStat(fromOp, toOp string, triples ...interface{}) engine.PairStat {
	st := engine.PairStat{FromOp: fromOp, ToOp: toOp}
	for i := 0; i+2 < len(triples)+1; i += 3 {
		st.Pairs = append(st.Pairs, spacesaving.PairCounter{
			In:    triples[i].(string),
			Out:   triples[i+1].(string),
			Count: uint64(triples[i+2].(int)),
		})
	}
	return st
}

func TestOptimizerValidation(t *testing.T) {
	topo, place := evalTopology(t, 2)
	if _, err := NewOptimizer(nil, place, OptimizerOptions{}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := NewOptimizer(topo, nil, OptimizerOptions{}); err == nil {
		t.Error("nil placement accepted")
	}
	if _, err := NewOptimizer(topo, place, OptimizerOptions{Alpha: 0.5}); err == nil {
		t.Error("alpha < 1 accepted")
	}

	o, err := NewOptimizer(topo, place, OptimizerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.ComputeTables([]engine.PairStat{pairStat("X", "B", "a", "b", 1)}); err == nil {
		t.Error("unknown FromOp accepted")
	}
	if _, _, err := o.ComputeTables([]engine.PairStat{pairStat("A", "Y", "a", "b", 1)}); err == nil {
		t.Error("unknown ToOp accepted")
	}
}

func TestOptimizerEmptyStats(t *testing.T) {
	topo, place := evalTopology(t, 2)
	o, _ := NewOptimizer(topo, place, OptimizerOptions{})
	tables, plan, err := o.ComputeTables(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 0 {
		t.Fatalf("tables = %v, want empty", tables)
	}
	if plan.Version != 1 || plan.Keys != 0 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestOptimizerCoLocatesCorrelatedKeys(t *testing.T) {
	// The Fig. 4/5 scenario: Asia correlates with #java and #ruby,
	// Oceania with #python. The optimizer must put each cluster's keys
	// on the same server.
	topo, place := evalTopology(t, 2)
	o, _ := NewOptimizer(topo, place, OptimizerOptions{Seed: 1})
	tables, plan, err := o.ComputeTables([]engine.PairStat{
		pairStat("A", "B",
			"Asia", "#java", 3463,
			"Asia", "#ruby", 3011,
			"Africa", "#python", 2923,
			"Oceania", "#python", 3108,
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := tables["A"], tables["B"]
	if ta == nil || tb == nil {
		t.Fatalf("missing tables: %v", tables)
	}
	serverOfA := func(k string) int { return place.ServerOf("A", ta.Assign[k]) }
	serverOfB := func(k string) int { return place.ServerOf("B", tb.Assign[k]) }

	if serverOfA("Asia") != serverOfB("#java") {
		t.Error("Asia and #java not co-located")
	}
	if serverOfA("Asia") != serverOfB("#ruby") {
		t.Error("Asia and #ruby not co-located")
	}
	if serverOfA("Oceania") != serverOfB("#python") {
		t.Error("Oceania and #python not co-located")
	}
	if serverOfA("Africa") != serverOfB("#python") {
		t.Error("Africa and #python not co-located")
	}
	// Two clusters of nearly equal weight: they must use both servers.
	if serverOfA("Asia") == serverOfA("Oceania") {
		t.Error("both clusters on one server: load not balanced")
	}
	if plan.ExpectedLocality != 1.0 {
		t.Errorf("ExpectedLocality = %f, want 1 (no cut needed)", plan.ExpectedLocality)
	}
	if plan.Keys != 6 || plan.Edges != 4 {
		t.Errorf("plan = %+v", plan)
	}
}

func TestOptimizerVersionIncrements(t *testing.T) {
	topo, place := evalTopology(t, 2)
	o, _ := NewOptimizer(topo, place, OptimizerOptions{})
	_, p1, _ := o.ComputeTables(nil)
	_, p2, _ := o.ComputeTables(nil)
	if p1.Version != 1 || p2.Version != 2 || o.Version() != 2 {
		t.Fatalf("versions %d %d %d", p1.Version, p2.Version, o.Version())
	}
}

func TestOptimizerMaxEdges(t *testing.T) {
	topo, place := evalTopology(t, 2)
	o, _ := NewOptimizer(topo, place, OptimizerOptions{MaxEdges: 1, Seed: 3})
	_, plan, err := o.ComputeTables([]engine.PairStat{
		pairStat("A", "B", "a", "x", 100, "b", "y", 50, "c", "z", 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Edges != 1 {
		t.Fatalf("Edges = %d, want 1 (MaxEdges)", plan.Edges)
	}
	if plan.Keys != 2 {
		t.Fatalf("Keys = %d, want 2", plan.Keys)
	}
}

func TestOptimizerBalancesLoad(t *testing.T) {
	// Many uncorrelated pairs of equal weight: the partition must
	// respect the alpha bound.
	topo, place := evalTopology(t, 4)
	o, _ := NewOptimizer(topo, place, OptimizerOptions{Alpha: 1.03, Seed: 5})
	var pairs []spacesaving.PairCounter
	for i := 0; i < 200; i++ {
		pairs = append(pairs, spacesaving.PairCounter{
			In: fmt.Sprintf("in%d", i), Out: fmt.Sprintf("out%d", i), Count: 10,
		})
	}
	_, plan, err := o.ComputeTables([]engine.PairStat{{FromOp: "A", ToOp: "B", Pairs: pairs}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Imbalance > 1.1 {
		t.Fatalf("Imbalance = %f, want <= 1.1", plan.Imbalance)
	}
	if plan.ExpectedLocality != 1.0 {
		t.Fatalf("ExpectedLocality = %f, want 1 (pairs are disjoint)", plan.ExpectedLocality)
	}
}

func TestOptimizerTablesImproveSimLocality(t *testing.T) {
	// End-to-end: run the simulator with hash routing, collect stats,
	// optimize, rerun with tables: locality must rise well above 1/n.
	const n = 4
	topo, place := evalTopology(t, n)
	policies, err := engine.NewPolicies(topo, place, engine.FieldsTable)
	if err != nil {
		t.Fatal(err)
	}
	src, err := engine.NewSourcePolicy(topo, place, topology.Fields, engine.FieldsTable)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := engine.NewSim(engine.SimConfig{
		Topology: topo, Placement: place,
		Policies: policies, SourcePolicy: src,
		SourceKeyField: 0, SketchCapacity: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Perfectly correlated workload: key pairs (i, i').
	inject := func() {
		for i := 0; i < 8000; i++ {
			k := strconv.Itoa(i % 16)
			sim.Inject(topology.Tuple{Values: []string{k, k + "'"}})
		}
	}
	inject()
	before := sim.FieldsTraffic().Locality()

	o, _ := NewOptimizer(topo, place, OptimizerOptions{Seed: 7})
	tables, plan, err := o.ComputeTables(sim.PairStats(true))
	if err != nil {
		t.Fatal(err)
	}
	if plan.ExpectedLocality != 1.0 {
		t.Fatalf("ExpectedLocality = %f, want 1", plan.ExpectedLocality)
	}
	sim.ApplyTables(tables)
	sim.ResetWindow()
	inject()
	after := sim.FieldsTraffic().Locality()

	if after != 1.0 {
		t.Fatalf("locality after optimization = %f, want 1.0 (before %f)", after, before)
	}
	if before > 0.6 {
		t.Fatalf("hash-fallback locality suspiciously high: %f", before)
	}
}

func TestOwner(t *testing.T) {
	table := &routing.Table{Assign: map[string]int{"a": 2, "bad": 9}}
	if Owner(table, "B", "a", 4) != 2 {
		t.Error("table entry not used")
	}
	if got, want := Owner(table, "B", "zzz", 4), routing.SaltedHashKey("B", "zzz", 4); got != want {
		t.Error("hash fallback not used for missing key")
	}
	if got, want := Owner(table, "B", "bad", 4), routing.SaltedHashKey("B", "bad", 4); got != want {
		t.Error("invalid entry should fall back to hash")
	}
	if got, want := Owner(nil, "B", "a", 4), routing.SaltedHashKey("B", "a", 4); got != want {
		t.Error("nil table should hash")
	}
}

func TestDiffTables(t *testing.T) {
	oldT := &routing.Table{Assign: map[string]int{"a": 0, "b": 1, "c": 2}}
	newT := &routing.Table{Assign: map[string]int{"a": 1, "b": 1}}
	moves := DiffTables(oldT, newT, "B", 4)

	want := map[string][2]int{
		"a": {0, 1},
		"c": {2, Owner(nil, "B", "c", 4)},
	}
	// b stays at 1: no move. c drops out of the table: moves to hash
	// owner unless the hash already places it at 2.
	if Owner(nil, "B", "c", 4) == 2 {
		delete(want, "c")
	}
	if len(moves) != len(want) {
		t.Fatalf("moves = %+v, want %d entries", moves, len(want))
	}
	for _, m := range moves {
		w, ok := want[m.Key]
		if !ok || m.From != w[0] || m.To != w[1] {
			t.Errorf("unexpected move %+v", m)
		}
	}
	// Determinism: sorted by key.
	for i := 1; i < len(moves); i++ {
		if moves[i-1].Key >= moves[i].Key {
			t.Error("moves not sorted")
		}
	}
}

func TestDiffTablesNilCases(t *testing.T) {
	if moves := DiffTables(nil, nil, "B", 4); len(moves) != 0 {
		t.Fatalf("nil/nil diff = %v", moves)
	}
	newT := &routing.Table{Assign: map[string]int{"k": 3}}
	moves := DiffTables(nil, newT, "B", 4)
	if Owner(nil, "B", "k", 4) == 3 {
		if len(moves) != 0 {
			t.Fatalf("no-op move reported: %v", moves)
		}
	} else if len(moves) != 1 || moves[0].To != 3 {
		t.Fatalf("moves = %v", moves)
	}
}
