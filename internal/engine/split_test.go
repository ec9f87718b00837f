package engine

import (
	"strconv"
	"testing"

	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/topology"
)

func counterCount(t *testing.T, live *Live, op string, inst int, key string) uint64 {
	t.Helper()
	var n uint64
	if err := live.ProcessorState(op, inst, func(p topology.Processor) {
		n = p.(*topology.Counter).Count(key)
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

func injectHot(t *testing.T, live *Live, key string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := live.Inject(topology.Tuple{Values: []string{key, key}}); err != nil {
			t.Fatal(err)
		}
	}
	live.Drain()
}

// TestSplitPromoteDemoteNoLoss drives one full promote -> split-route ->
// demote cycle on a downstream operator and asserts the merge contract:
// every tuple processed exactly once, partials folded back into the
// owner, nothing lost, and the split set empty again afterwards.
func TestSplitPromoteDemoteNoLoss(t *testing.T) {
	live := newFaultLive(t, 4, func(cfg *LiveConfig) { cfg.KeySplitting = true })

	injectHot(t, live, "hot", 100)
	owner, ok := live.OwnerOf("B", "hot")
	if !ok {
		t.Fatal("no owner for B/hot")
	}
	if got := counterCount(t, live, "B", owner, "hot"); got != 100 {
		t.Fatalf("owner holds %d before split, want 100", got)
	}

	if !live.CanSplit("B") {
		t.Fatal("CanSplit(B) = false with splitting enabled and a Mergeable Counter")
	}
	replicas, err := live.PromoteSplit("B", "hot", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(replicas) != 2 || replicas[0] != owner {
		t.Fatalf("replica set %v, want [%d x]", replicas, owner)
	}
	if _, err := live.PromoteSplit("B", "hot", 2); err == nil {
		t.Fatal("double promote succeeded")
	}

	before := live.Loads("B")
	injectHot(t, live, "hot", 100)
	after := live.Loads("B")
	for _, r := range replicas {
		if after[r] == before[r] {
			t.Fatalf("replica %d processed nothing while split (loads %v -> %v)", r, before, after)
		}
	}
	st := live.SplitStatsSnapshot()
	if st.Keys != 1 || st.Routed == 0 || st.Promotions != 1 {
		t.Fatalf("split stats mid-split: %+v", st)
	}
	snap := live.SplitSnapshot()
	if len(snap) != 1 || snap[0].Op != "B" || snap[0].Key != "hot" {
		t.Fatalf("split snapshot %+v", snap)
	}

	// The two partials must cover all 200 tuples between them.
	var sum uint64
	for _, r := range replicas {
		sum += counterCount(t, live, "B", r, "hot")
	}
	if sum != 200 {
		t.Fatalf("partials sum to %d, want 200", sum)
	}

	if err := live.DemoteSplit("B", "hot"); err != nil {
		t.Fatal(err)
	}
	if got := counterCount(t, live, "B", owner, "hot"); got != 200 {
		t.Fatalf("owner holds %d after demote, want 200 (merged)", got)
	}
	if got := counterCount(t, live, "B", replicas[1], "hot"); got != 0 {
		t.Fatalf("demoted replica still holds %d", got)
	}
	if live.TuplesLost() != 0 {
		t.Fatalf("lost %d tuples through the cycle", live.TuplesLost())
	}
	st = live.SplitStatsSnapshot()
	if st.Keys != 0 || st.Demotions != 1 || st.MergeBacklog != 0 || st.MergesApplied != st.MergesSent {
		t.Fatalf("split stats after demote: %+v", st)
	}
	if live.SplitSnapshot() != nil {
		t.Fatalf("split snapshot not empty after demote: %+v", live.SplitSnapshot())
	}

	// Routing is back to single-owner.
	injectHot(t, live, "hot", 10)
	if got := counterCount(t, live, "B", owner, "hot"); got != 210 {
		t.Fatalf("owner holds %d after demote traffic, want 210", got)
	}
}

// TestSplitTombstoneForwardsLateTuples simulates a tuple that was already
// in flight towards a replica when its key demoted: the tombstone must
// forward it to the owner without losing its in-flight count.
func TestSplitTombstoneForwardsLateTuples(t *testing.T) {
	live := newFaultLive(t, 4, func(cfg *LiveConfig) { cfg.KeySplitting = true })
	injectHot(t, live, "hot", 20)
	replicas, err := live.PromoteSplit("B", "hot", 2)
	if err != nil {
		t.Fatal(err)
	}
	injectHot(t, live, "hot", 20)
	if err := live.DemoteSplit("B", "hot"); err != nil {
		t.Fatal(err)
	}
	owner, stale := replicas[0], replicas[1]

	// A late tuple keyed to the demoted key lands on the stale replica.
	live.inflight.incInternal()
	if !live.execs["B"][stale].box.put(message{
		kind: msgData, tuple: topology.Tuple{Values: []string{"hot", "hot"}}, keyOp: "B", key: "hot",
	}) {
		t.Fatal("stale replica rejected the late tuple")
	}
	live.Drain()
	if got := counterCount(t, live, "B", owner, "hot"); got != 41 {
		t.Fatalf("owner holds %d, want 41 (late tuple forwarded)", got)
	}
	if got := counterCount(t, live, "B", stale, "hot"); got != 0 {
		t.Fatalf("stale replica recounted the demoted key: %d", got)
	}
	if live.TuplesLost() != 0 {
		t.Fatalf("lost %d tuples", live.TuplesLost())
	}

	// Re-promotion clears the tombstone: the replica counts again.
	if _, err := live.PromoteSplit("B", "hot", 2); err != nil {
		t.Fatal(err)
	}
	injectHot(t, live, "hot", 40)
	if got := counterCount(t, live, "B", stale, "hot"); got == 0 {
		t.Fatal("re-promoted replica processed nothing (tombstone not cleared)")
	}
}

// TestSplitSourceOperator promotes a key of the externally fed source
// operator: Inject itself must take the 2-choice step via the source
// policy.
func TestSplitSourceOperator(t *testing.T) {
	live := newFaultLive(t, 4, func(cfg *LiveConfig) { cfg.KeySplitting = true })
	injectHot(t, live, "hot", 10)
	replicas, err := live.PromoteSplit("A", "hot", 2)
	if err != nil {
		t.Fatal(err)
	}
	injectHot(t, live, "hot", 100)
	var sum uint64
	for _, r := range replicas {
		if c := counterCount(t, live, "A", r, "hot"); c == 0 {
			t.Fatalf("source replica %d holds nothing while split", r)
		} else {
			sum += c
		}
	}
	if sum != 110 {
		t.Fatalf("source partials sum to %d, want 110", sum)
	}
	if err := live.DemoteSplit("A", "hot"); err != nil {
		t.Fatal(err)
	}
	if got := counterCount(t, live, "A", replicas[0], "hot"); got != 110 {
		t.Fatalf("source owner holds %d after demote, want 110", got)
	}
}

// TestSplitCheckpointRecordsPartials asserts that a checkpoint taken
// while a key is split produces one annotated record per dirty replica.
func TestSplitCheckpointRecordsPartials(t *testing.T) {
	live := newFaultLive(t, 4, func(cfg *LiveConfig) { cfg.KeySplitting = true })
	injectHot(t, live, "hot", 50)
	live.CheckpointDirty()
	replicas, err := live.PromoteSplit("B", "hot", 2)
	if err != nil {
		t.Fatal(err)
	}
	injectHot(t, live, "hot", 50)

	var recs []KeyState
	for _, r := range live.CheckpointDirty() {
		if r.Op == "B" && r.Key == "hot" {
			recs = append(recs, r)
		}
	}
	if len(recs) != 2 {
		t.Fatalf("%d records for the split key, want 2 (one per replica)", len(recs))
	}
	seen := map[int]bool{}
	for _, r := range recs {
		if !r.Split {
			t.Fatalf("record %+v not marked Split", r)
		}
		if len(r.Replicas) != 2 || r.Replicas[0] != replicas[0] || r.Replicas[1] != replicas[1] {
			t.Fatalf("record replicas %v, want %v", r.Replicas, replicas)
		}
		seen[r.Inst] = true
	}
	if !seen[replicas[0]] || !seen[replicas[1]] {
		t.Fatalf("records cover instances %v, want both of %v", seen, replicas)
	}
}

// TestSplitDisabledAndIneligible covers the refusal paths.
func TestSplitDisabledAndIneligible(t *testing.T) {
	plain := newFaultLive(t, 2, nil)
	if plain.CanSplit("B") {
		t.Fatal("CanSplit true with splitting disabled")
	}
	if _, err := plain.PromoteSplit("B", "hot", 2); err == nil {
		t.Fatal("promote succeeded with splitting disabled")
	}

	live := newFaultLive(t, 2, func(cfg *LiveConfig) { cfg.KeySplitting = true })
	if _, err := live.PromoteSplit("nosuch", "hot", 2); err == nil {
		t.Fatal("promote of unknown operator succeeded")
	}
	if err := live.DemoteSplit("B", "hot"); err == nil {
		t.Fatal("demote of unsplit key succeeded")
	}
	if live.Parallelism("B") != 2 {
		t.Fatalf("Parallelism(B) = %d", live.Parallelism("B"))
	}
}

// TestPruneSplitReplicasOnFailure kills the server hosting the non-owner
// replica: pruning must dissolve the split (fewer than 2 alive replicas)
// and restore single-owner routing for the key.
func TestPruneSplitReplicasOnFailure(t *testing.T) {
	live := newFaultLive(t, 4, func(cfg *LiveConfig) { cfg.KeySplitting = true })
	injectHot(t, live, "hot", 10)
	replicas, err := live.PromoteSplit("B", "hot", 2)
	if err != nil {
		t.Fatal(err)
	}
	victim := live.Placement().ServerOf("B", replicas[1])
	if err := live.KillServer(victim); err != nil {
		t.Fatal(err)
	}
	live.PruneSplitReplicas()
	if live.SplitSnapshot() != nil {
		t.Fatalf("split survived losing a replica: %+v", live.SplitSnapshot())
	}
	live.ApplyAliveRouting()

	owner := replicas[0]
	beforeLoads := live.Loads("B")
	for i := 0; i < 20; i++ {
		_ = live.Inject(topology.Tuple{Values: []string{"hot", "hot"}})
	}
	live.Drain()
	afterLoads := live.Loads("B")
	if afterLoads[owner] != beforeLoads[owner]+20 {
		t.Fatalf("owner %d processed %d new tuples, want 20 (loads %v -> %v)",
			owner, afterLoads[owner]-beforeLoads[owner], beforeLoads, afterLoads)
	}
}

// TestSplitBalancesSkewAcrossServers is the drill in miniature at engine
// level: with one key dominating the stream, splitting it must cut the
// hottest instance's share of that key's tuples roughly in half.
func TestSplitBalancesSkewAcrossServers(t *testing.T) {
	unsplit := newFaultLive(t, 4, nil)
	split := newFaultLive(t, 4, func(cfg *LiveConfig) { cfg.KeySplitting = true })

	feed := func(live *Live) {
		for i := 0; i < 400; i++ {
			var k string
			if i%2 == 0 {
				k = "hot"
			} else {
				k = "t" + strconv.Itoa(i%40)
			}
			_ = live.Inject(topology.Tuple{Values: []string{k, k}})
		}
		live.Drain()
	}

	if _, err := split.PromoteSplit("B", "hot", 2); err != nil {
		t.Fatal(err)
	}
	feed(unsplit)
	feed(split)

	maxLoad := func(live *Live) uint64 {
		var max uint64
		for _, l := range live.Loads("B") {
			if l > max {
				max = l
			}
		}
		return max
	}
	mu, ms := maxLoad(unsplit), maxLoad(split)
	if float64(ms) > 0.8*float64(mu) {
		t.Fatalf("split max load %d not below 80%% of unsplit %d", ms, mu)
	}
}

// TestPromoteSplitPicksIdleServer: the replica of a hot key goes to the
// server that processed least in the last completed statistics window,
// not to whichever server carries the label owner+1. Before any window
// has closed the forward scan from the owner decides, as it always did.
func TestPromoteSplitPicksIdleServer(t *testing.T) {
	live := newFaultLive(t, 4, func(cfg *LiveConfig) { cfg.KeySplitting = true })
	owner, ok := live.OwnerOf("B", "hot")
	if !ok {
		t.Fatal("no owner for B/hot")
	}
	busy, light, idle := (owner+1)%4, (owner+2)%4, (owner+3)%4
	assign := map[string]int{"hot": owner, "busy": busy, "light": light}
	live.UpdateTables(map[string]*routing.Table{"A": {Assign: assign}, "B": {Assign: assign}})

	replicas, err := live.PromoteSplit("B", "hot", 2)
	if err != nil {
		t.Fatal(err)
	}
	if replicas[1] != busy {
		t.Fatalf("no window yet: replicas %v, want the forward scan's [%d %d]", replicas, owner, busy)
	}
	if err := live.DemoteSplit("B", "hot"); err != nil {
		t.Fatal(err)
	}

	injectHot(t, live, "hot", 60)
	injectHot(t, live, "busy", 30)
	injectHot(t, live, "light", 5)
	live.CollectPairStats()
	replicas, err = live.PromoteSplit("B", "hot", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(replicas) != 3 || replicas[0] != owner || replicas[1] != idle || replicas[2] != light {
		t.Fatalf("replicas %v, want owner, idle, light = [%d %d %d] (busy server %d processed most)",
			replicas, owner, idle, light, busy)
	}
}
