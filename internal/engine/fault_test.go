package engine

import (
	"strconv"
	"testing"

	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/topology"
)

// newFaultLive builds the standard two-operator stateful chain used by
// the fault-tolerance tests: src "A" -> "B", fields-grouped, table
// routing, one instance of each operator per server.
func newFaultLive(t testing.TB, servers int, cfgTweak func(*LiveConfig)) *Live {
	t.Helper()
	topo, err := topology.NewBuilder("fault").
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
	policies, err := NewPolicies(topo, place, FieldsTable)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSourcePolicy(topo, place, topology.Fields, FieldsTable)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LiveConfig{
		Topology: topo, Placement: place, Policies: policies,
		SourcePolicy: src, SketchCapacity: 256,
	}
	if cfgTweak != nil {
		cfgTweak(&cfg)
	}
	live, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Stop)
	return live
}

func injectKeys(t testing.TB, live *Live, n, mod int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := "k" + strconv.Itoa(i%mod)
		_ = live.Inject(topology.Tuple{Values: []string{k, k}})
	}
	live.Drain()
}

func TestCheckpointDirtyIncremental(t *testing.T) {
	live := newFaultLive(t, 2, nil)

	// No traffic yet: nothing dirty.
	if recs := live.CheckpointDirty(); len(recs) != 0 {
		t.Fatalf("clean engine returned %d records", len(recs))
	}

	injectKeys(t, live, 40, 4)
	recs := live.CheckpointDirty()
	// 4 keys dirty on A and 4 on B.
	if len(recs) != 8 {
		t.Fatalf("first checkpoint has %d records, want 8", len(recs))
	}
	seen := map[string]bool{}
	for _, r := range recs {
		seen[r.Op+"/"+r.Key] = true
		if len(r.Data) == 0 {
			t.Fatalf("record %s/%s has empty data", r.Op, r.Key)
		}
	}
	for _, op := range []string{"A", "B"} {
		for i := 0; i < 4; i++ {
			if !seen[op+"/k"+strconv.Itoa(i)] {
				t.Fatalf("missing record for %s/k%d", op, i)
			}
		}
	}

	// Unchanged since the snapshot: incremental checkpoint is empty.
	if recs := live.CheckpointDirty(); len(recs) != 0 {
		t.Fatalf("second checkpoint has %d records, want 0 (all clean)", len(recs))
	}

	// Touch one key: only it reappears (on both stateful ops).
	_ = live.Inject(topology.Tuple{Values: []string{"k1", "k1"}})
	live.Drain()
	recs = live.CheckpointDirty()
	if len(recs) != 2 {
		t.Fatalf("incremental checkpoint has %d records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Key != "k1" {
			t.Fatalf("incremental checkpoint includes clean key %q", r.Key)
		}
	}
}

// TestCheckpointCleanPathNoAllocs asserts the skipped-clean-key fast
// path: checkpointing an engine with no dirty keys must not allocate.
func TestCheckpointCleanPathNoAllocs(t *testing.T) {
	live := newFaultLive(t, 2, nil)
	injectKeys(t, live, 40, 4)
	live.CheckpointDirty() // consume the dirty set

	allocs := testing.AllocsPerRun(100, func() {
		if recs := live.CheckpointDirty(); recs != nil {
			t.Fatalf("unexpected records on clean engine: %d", len(recs))
		}
	})
	if allocs != 0 {
		t.Fatalf("clean checkpoint allocates %v times per run, want 0", allocs)
	}
}

func TestKillServerAccounting(t *testing.T) {
	const servers = 2
	live := newFaultLive(t, servers, nil)
	injectKeys(t, live, 100, 8)

	if err := live.KillServer(5); err == nil {
		t.Fatal("unknown server accepted")
	}
	if err := live.KillServer(1); err != nil {
		t.Fatal(err)
	}
	if err := live.KillServer(1); err != nil {
		t.Fatal("KillServer not idempotent")
	}
	if live.Ping(1) || !live.Ping(0) {
		t.Fatal("Ping disagrees with kill state")
	}
	alive := live.AliveServers()
	if !alive[0] || alive[1] {
		t.Fatalf("AliveServers = %v", alive)
	}

	// Keep injecting: tuples routed to dead instances are rejected at
	// the source (error) or dropped mid-stream (counted), and Drain must
	// not hang on the lost ones.
	var rejected int
	for i := 0; i < 100; i++ {
		k := "k" + strconv.Itoa(i%8)
		if err := live.Inject(topology.Tuple{Values: []string{k, k}}); err != nil {
			rejected++
		}
	}
	live.Drain()

	st := live.StatsSnapshot()
	if rejected == 0 && st.TuplesLost == 0 {
		t.Fatal("no loss observed despite a dead server receiving traffic")
	}
	if len(st.Alive) != servers || st.Alive[1] {
		t.Fatalf("Stats.Alive = %v", st.Alive)
	}

	// Inspecting a dead instance errors instead of hanging.
	deadInst := -1
	for i := 0; i < servers; i++ {
		if live.Placement().ServerOf("A", i) == 1 {
			deadInst = i
		}
	}
	if err := live.ProcessorState("A", deadInst, func(topology.Processor) {}); err == nil {
		t.Fatal("ProcessorState on dead instance succeeded")
	}
}

// TestRecoverArmRestore exercises the two-phase recovery path in
// isolation: tuples for an armed key buffer, the restore installs
// checkpointed state, and the buffered tuples are processed on top of
// it, in order.
func TestRecoverArmRestore(t *testing.T) {
	const servers = 2
	live := newFaultLive(t, servers, nil)

	// Build state for k0 and checkpoint it.
	for i := 0; i < 7; i++ {
		_ = live.Inject(topology.Tuple{Values: []string{"k0", "k0"}})
	}
	live.Drain()
	recs := live.CheckpointDirty()
	var k0A *KeyState
	for i := range recs {
		if recs[i].Op == "A" && recs[i].Key == "k0" {
			k0A = &recs[i]
		}
	}
	if k0A == nil {
		t.Fatal("no checkpoint record for A/k0")
	}
	oldOwner, ok := live.OwnerOf("A", "k0")
	if !ok {
		t.Fatal("OwnerOf failed for A")
	}
	newOwner := (oldOwner + 1) % servers

	// Phase 1: the new owner arms its buffer for k0.
	if err := live.RecoverArm(map[string]map[int][]string{
		"A": {newOwner: {"k0"}},
	}); err != nil {
		t.Fatal(err)
	}
	// Reroute k0 to the new owner (what recovery's table update does).
	live.UpdateTables(map[string]*routing.Table{
		"A": {Version: 99, Assign: map[string]int{"k0": newOwner}},
	})

	// Tuples injected now reach the new owner and must buffer, not
	// process: the state is not there yet.
	for i := 0; i < 5; i++ {
		_ = live.Inject(topology.Tuple{Values: []string{"k0", "k0"}})
	}
	var cnt uint64
	_ = live.ProcessorState("A", newOwner, func(p topology.Processor) {
		cnt = p.(*topology.Counter).Count("k0")
	})
	if cnt != 0 {
		t.Fatalf("new owner processed %d tuples before restore", cnt)
	}

	// Phase 2: restore from the checkpoint; buffered tuples drain on top.
	rec := *k0A
	rec.Inst = newOwner
	if err := live.RecoverRestore([]KeyState{rec}); err != nil {
		t.Fatal(err)
	}
	live.Drain()
	_ = live.ProcessorState("A", newOwner, func(p topology.Processor) {
		cnt = p.(*topology.Counter).Count("k0")
	})
	if cnt != 12 {
		t.Fatalf("post-restore count = %d, want 7 checkpointed + 5 buffered", cnt)
	}
}

// TestRecoverRestoreWithoutCheckpoint verifies a nil-data record clears
// the pending marker so the key starts fresh instead of buffering
// forever.
func TestRecoverRestoreWithoutCheckpoint(t *testing.T) {
	live := newFaultLive(t, 2, nil)
	owner, _ := live.OwnerOf("A", "kx")
	adopt := (owner + 1) % 2
	if err := live.RecoverArm(map[string]map[int][]string{"A": {adopt: {"kx"}}}); err != nil {
		t.Fatal(err)
	}
	live.UpdateTables(map[string]*routing.Table{
		"A": {Version: 1, Assign: map[string]int{"kx": adopt}},
	})
	for i := 0; i < 3; i++ {
		_ = live.Inject(topology.Tuple{Values: []string{"kx", "kx"}})
	}
	if err := live.RecoverRestore([]KeyState{{Op: "A", Inst: adopt, Key: "kx"}}); err != nil {
		t.Fatal(err)
	}
	live.Drain()
	var cnt uint64
	_ = live.ProcessorState("A", adopt, func(p topology.Processor) {
		cnt = p.(*topology.Counter).Count("kx")
	})
	if cnt != 3 {
		t.Fatalf("count = %d, want 3 (fresh state, buffered tuples drained)", cnt)
	}
}

func TestMaxBufferedBoundsRecoveryBuffer(t *testing.T) {
	live := newFaultLive(t, 2, func(cfg *LiveConfig) { cfg.MaxBuffered = 2 })
	owner, _ := live.OwnerOf("A", "kb")
	adopt := (owner + 1) % 2
	if err := live.RecoverArm(map[string]map[int][]string{"A": {adopt: {"kb"}}}); err != nil {
		t.Fatal(err)
	}
	live.UpdateTables(map[string]*routing.Table{
		"A": {Version: 1, Assign: map[string]int{"kb": adopt}},
	})
	for i := 0; i < 10; i++ {
		_ = live.Inject(topology.Tuple{Values: []string{"kb", "kb"}})
	}
	if err := live.RecoverRestore([]KeyState{{Op: "A", Inst: adopt, Key: "kb"}}); err != nil {
		t.Fatal(err)
	}
	live.Drain()
	var cnt uint64
	_ = live.ProcessorState("A", adopt, func(p topology.Processor) {
		cnt = p.(*topology.Counter).Count("kb")
	})
	if cnt != 2 {
		t.Fatalf("count = %d, want 2 (buffer bound)", cnt)
	}
	if lost := live.TuplesLost(); lost != 8 {
		t.Fatalf("TuplesLost = %d, want 8 overflow drops", lost)
	}
}

// TestSetAliveReroutesHashFallback verifies keys without a table entry
// detour around dead instances deterministically.
func TestSetAliveReroutesHashFallback(t *testing.T) {
	tf := routing.NewTableFields(4, "X")
	key := "somekey"
	orig := tf.Route(key, -1, 0)
	alive := []bool{true, true, true, true}
	alive[orig] = false
	tf.SetAlive(alive)
	got := tf.Route(key, -1, 0)
	if got == orig {
		t.Fatal("Route returned a dead instance")
	}
	if want := (orig + 1) % 4; got != want {
		t.Fatalf("Route = %d, want first alive successor %d", got, want)
	}
	// Clearing the mask restores the original routing.
	tf.SetAlive(nil)
	if tf.Route(key, -1, 0) != orig {
		t.Fatal("nil mask did not restore routing")
	}
}

// BenchmarkCheckpointClean measures the clean-path cost of a checkpoint
// tick against a warm engine: all keys clean, so the call must only
// read one atomic per executor.
func BenchmarkCheckpointClean(b *testing.B) {
	live := newFaultLive(b, 4, nil)
	for i := 0; i < 1000; i++ {
		k := "k" + strconv.Itoa(i%32)
		_ = live.Inject(topology.Tuple{Values: []string{k, k}})
	}
	live.Drain()
	live.CheckpointDirty()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs := live.CheckpointDirty(); recs != nil {
			b.Fatal("engine not clean")
		}
	}
}

// BenchmarkCheckpointDirty measures the incremental-checkpoint cost
// when work actually happened since the last tick: each iteration
// injects one tuple (dirtying one key on its home executor) and then
// snapshots, so the measured cost is one dirty-key snapshot plus the
// clean-scan of every other executor. The CI bench gate tracks this
// alongside the wire and hot-path numbers in BENCH_8.json.
func BenchmarkCheckpointDirty(b *testing.B) {
	live := newFaultLive(b, 4, nil)
	for i := 0; i < 1000; i++ {
		k := "k" + strconv.Itoa(i%32)
		_ = live.Inject(topology.Tuple{Values: []string{k, k}})
	}
	live.Drain()
	live.CheckpointDirty()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := "k" + strconv.Itoa(i%32)
		_ = live.Inject(topology.Tuple{Values: []string{k, k}})
		live.Drain()
		if recs := live.CheckpointDirty(); len(recs) == 0 {
			b.Fatal("expected a dirty key to snapshot")
		}
	}
}

// BenchmarkInjectWithCheckpointing measures hot-path throughput with
// periodic checkpoints, to compare against the no-checkpoint baseline:
// the per-tuple overhead is one map lookup (dirty tracking), and the
// periodic CheckpointDirty call snapshots only dirty keys.
func BenchmarkInjectWithCheckpointing(b *testing.B) {
	for _, interval := range []int{0, 10000} {
		name := "off"
		if interval > 0 {
			name = "every" + strconv.Itoa(interval)
		}
		b.Run(name, func(b *testing.B) {
			live := newFaultLive(b, 4, func(cfg *LiveConfig) { cfg.MaxInFlight = 4096 })
			keys := make([]string, 64)
			for i := range keys {
				keys[i] = "k" + strconv.Itoa(i)
			}
			// Warm up routes and state.
			for _, k := range keys {
				_ = live.Inject(topology.Tuple{Values: []string{k, k}})
			}
			live.Drain()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i&63]
				_ = live.Inject(topology.Tuple{Values: []string{k, k}})
				if interval > 0 && i%interval == interval-1 {
					live.CheckpointDirty()
				}
			}
			live.Drain()
		})
	}
}
