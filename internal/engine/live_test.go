package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/topology"
)

func newLive(t testing.TB, parallelism int, mode FieldsMode, maxInFlight int) *Live {
	t.Helper()
	topo, place := paperTopology(t, parallelism)
	policies, err := NewPolicies(topo, place, mode)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSourcePolicy(topo, place, topology.Fields, mode)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewLive(LiveConfig{
		Topology:       topo,
		Placement:      place,
		Policies:       policies,
		SourcePolicy:   src,
		SourceKeyField: 0,
		SketchCapacity: 1024,
		MaxInFlight:    maxInFlight,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Stop)
	return live
}

func liveTotalCount(t *testing.T, l *Live, op string, parallelism int) uint64 {
	t.Helper()
	var total uint64
	for i := 0; i < parallelism; i++ {
		if err := l.ProcessorState(op, i, func(p topology.Processor) {
			total += p.(*topology.Counter).TotalCount()
		}); err != nil {
			t.Fatal(err)
		}
	}
	return total
}

func TestLiveValidation(t *testing.T) {
	topo, place := paperTopology(t, 2)
	policies, _ := NewPolicies(topo, place, FieldsHash)
	src, _ := NewSourcePolicy(topo, place, topology.Fields, FieldsHash)

	if _, err := NewLive(LiveConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewLive(LiveConfig{Topology: topo, Placement: place, Policies: policies}); err == nil {
		t.Error("missing source policy accepted")
	}
	if _, err := NewLive(LiveConfig{Topology: topo, Placement: place, SourcePolicy: src}); err == nil {
		t.Error("missing edge policy accepted")
	}
}

func TestLiveProcessesAllTuples(t *testing.T) {
	const n = 1000
	live := newLive(t, 3, FieldsHash, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		if err := live.Inject(topology.Tuple{Values: []string{
			fmt.Sprintf("a%d", rng.Intn(20)),
			fmt.Sprintf("b%d", rng.Intn(20)),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	live.Drain()

	if got := liveTotalCount(t, live, "A", 3); got != n {
		t.Fatalf("A counted %d tuples, want %d", got, n)
	}
	if got := liveTotalCount(t, live, "B", 3); got != n {
		t.Fatalf("B counted %d tuples, want %d", got, n)
	}
	loads := live.Loads("A")
	var sum uint64
	for _, l := range loads {
		sum += l
	}
	if sum != n {
		t.Fatalf("Loads(A) sum = %d, want %d", sum, n)
	}
	if tr := live.Traffic("A", "B"); tr.Total() != n {
		t.Fatalf("edge traffic = %d, want %d", tr.Total(), n)
	}
}

func TestLiveKeyConsistency(t *testing.T) {
	// All tuples with the same second field must be counted by exactly
	// one B instance.
	live := newLive(t, 4, FieldsHash, 0)
	for i := 0; i < 200; i++ {
		_ = live.Inject(topology.Tuple{Values: []string{fmt.Sprintf("a%d", i%10), "hot"}})
	}
	live.Drain()
	owners := 0
	for i := 0; i < 4; i++ {
		_ = live.ProcessorState("B", i, func(p topology.Processor) {
			if p.(*topology.Counter).Count("hot") > 0 {
				owners++
			}
		})
	}
	if owners != 1 {
		t.Fatalf("key counted on %d instances, want 1", owners)
	}
}

func TestLiveHashLocality(t *testing.T) {
	const n = 6
	live := newLive(t, n, FieldsHash, 0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		_ = live.Inject(topology.Tuple{Values: []string{
			fmt.Sprintf("loc%d", rng.Intn(300)),
			fmt.Sprintf("tag%d", rng.Intn(300)),
		}})
	}
	live.Drain()
	got := live.FieldsTraffic().Locality()
	if math.Abs(got-1.0/n) > 0.04 {
		t.Fatalf("hash locality = %f, want ~%f", got, 1.0/n)
	}
}

func TestLiveReconfigureMigratesState(t *testing.T) {
	const parallelism = 4
	live := newLive(t, parallelism, FieldsTable, 0)

	// Phase 1: route with empty tables (hash fallback).
	for i := 0; i < 400; i++ {
		k := strconv.Itoa(i % 8)
		_ = live.Inject(topology.Tuple{Values: []string{k, k + "'"}})
	}
	live.Drain()

	// Build tables that move every key to a chosen instance.
	assignA := make(map[string]int)
	assignB := make(map[string]int)
	for i := 0; i < 8; i++ {
		assignA[strconv.Itoa(i)] = i % parallelism
		assignB[strconv.Itoa(i)+"'"] = i % parallelism
	}
	tables := map[string]*routing.Table{
		"A": {Version: 1, Assign: assignA},
		"B": {Version: 1, Assign: assignB},
	}
	moves := map[string][]KeyMove{}
	for k, to := range assignA {
		from := routing.SaltedHashKey("A", k, parallelism)
		if from != to {
			moves["A"] = append(moves["A"], KeyMove{Key: k, From: from, To: to})
		}
	}
	for k, to := range assignB {
		from := routing.SaltedHashKey("B", k, parallelism)
		if from != to {
			moves["B"] = append(moves["B"], KeyMove{Key: k, From: from, To: to})
		}
	}
	if err := live.Reconfigure(ReconfigPlan{Tables: tables, Moves: moves}); err != nil {
		t.Fatal(err)
	}

	// No state lost during migration.
	if got := liveTotalCount(t, live, "A", parallelism); got != 400 {
		t.Fatalf("A total after migration = %d, want 400", got)
	}
	if got := liveTotalCount(t, live, "B", parallelism); got != 400 {
		t.Fatalf("B total after migration = %d, want 400", got)
	}

	// State must now live exactly where the tables say.
	for k, inst := range assignA {
		var cnt uint64
		_ = live.ProcessorState("A", inst, func(p topology.Processor) {
			cnt = p.(*topology.Counter).Count(k)
		})
		if cnt != 50 {
			t.Errorf("A[%d].Count(%s) = %d, want 50", inst, k, cnt)
		}
	}

	// Phase 2: inject again; tuples must follow the tables (perfect
	// locality for matching pairs i -> i').
	for i := 0; i < 400; i++ {
		k := strconv.Itoa(i % 8)
		_ = live.Inject(topology.Tuple{Values: []string{k, k + "'"}})
	}
	live.Drain()
	for k, inst := range assignA {
		var cnt uint64
		_ = live.ProcessorState("A", inst, func(p topology.Processor) {
			cnt = p.(*topology.Counter).Count(k)
		})
		if cnt != 100 {
			t.Errorf("A[%d].Count(%s) = %d after phase 2, want 100", inst, k, cnt)
		}
	}
}

func TestLiveReconfigureDuringTraffic(t *testing.T) {
	// The stream is not suspended during reconfiguration (§3.4): inject
	// concurrently with a reconfiguration and verify nothing is lost.
	const parallelism = 3
	const total = 3000
	live := newLive(t, parallelism, FieldsTable, 0)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			k := strconv.Itoa(i % 12)
			_ = live.Inject(topology.Tuple{Values: []string{k, k + "'"}})
		}
	}()

	// Two overlapping-in-time reconfigurations while tuples flow.
	for round := 0; round < 2; round++ {
		assignA := make(map[string]int)
		assignB := make(map[string]int)
		for i := 0; i < 12; i++ {
			assignA[strconv.Itoa(i)] = (i + round) % parallelism
			assignB[strconv.Itoa(i)+"'"] = (i + round) % parallelism
		}
		tables := map[string]*routing.Table{
			"A": {Version: uint64(round + 1), Assign: assignA},
			"B": {Version: uint64(round + 1), Assign: assignB},
		}
		var moves map[string][]KeyMove
		if round == 0 {
			moves = map[string][]KeyMove{}
			for k, to := range assignA {
				if from := routing.SaltedHashKey("A", k, parallelism); from != to {
					moves["A"] = append(moves["A"], KeyMove{Key: k, From: from, To: to})
				}
			}
			for k, to := range assignB {
				if from := routing.SaltedHashKey("B", k, parallelism); from != to {
					moves["B"] = append(moves["B"], KeyMove{Key: k, From: from, To: to})
				}
			}
		} else {
			moves = map[string][]KeyMove{}
			for i := 0; i < 12; i++ {
				k := strconv.Itoa(i)
				moves["A"] = append(moves["A"], KeyMove{Key: k, From: i % parallelism, To: (i + 1) % parallelism})
				moves["B"] = append(moves["B"], KeyMove{Key: k + "'", From: i % parallelism, To: (i + 1) % parallelism})
			}
		}
		if err := live.Reconfigure(ReconfigPlan{Tables: tables, Moves: moves}); err != nil {
			t.Fatal(err)
		}
	}

	wg.Wait()
	live.Drain()

	if got := liveTotalCount(t, live, "A", parallelism); got != total {
		t.Fatalf("A total = %d, want %d (tuples lost in reconfiguration)", got, total)
	}
	if got := liveTotalCount(t, live, "B", parallelism); got != total {
		t.Fatalf("B total = %d, want %d", got, total)
	}
	// Per-key counts must each equal total/12 on exactly one instance.
	for i := 0; i < 12; i++ {
		k := strconv.Itoa(i)
		var sum uint64
		owners := 0
		for inst := 0; inst < parallelism; inst++ {
			_ = live.ProcessorState("A", inst, func(p topology.Processor) {
				if c := p.(*topology.Counter).Count(k); c > 0 {
					sum += c
					owners++
				}
			})
		}
		if sum != total/12 {
			t.Errorf("key %s: total count %d, want %d", k, sum, total/12)
		}
		if owners != 1 {
			t.Errorf("key %s: state on %d instances, want 1", k, owners)
		}
	}
}

func TestLiveCollectPairStats(t *testing.T) {
	live := newLive(t, 2, FieldsHash, 0)
	for i := 0; i < 60; i++ {
		_ = live.Inject(topology.Tuple{Values: []string{"Asia", "#java"}})
	}
	live.Drain()
	stats := live.CollectPairStats()
	if len(stats) != 1 || stats[0].FromOp != "A" || stats[0].ToOp != "B" {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Pairs[0].Count != 60 {
		t.Fatalf("pair count = %d, want 60", stats[0].Pairs[0].Count)
	}
	// Collection resets the sketches.
	stats = live.CollectPairStats()
	if len(stats) != 1 || len(stats[0].Pairs) != 0 {
		t.Fatalf("sketches not reset: %+v", stats)
	}
}

func TestLiveMaxInFlightBackpressure(t *testing.T) {
	live := newLive(t, 2, FieldsHash, 8)
	for i := 0; i < 500; i++ {
		if err := live.Inject(topology.Tuple{Values: []string{"a", "b"}}); err != nil {
			t.Fatal(err)
		}
	}
	live.Drain()
	if got := liveTotalCount(t, live, "B", 2); got != 500 {
		t.Fatalf("B total = %d, want 500", got)
	}
}

func TestLiveStopIdempotentAndInjectAfterStop(t *testing.T) {
	live := newLive(t, 2, FieldsHash, 0)
	_ = live.Inject(topology.Tuple{Values: []string{"a", "b"}})
	live.Stop()
	live.Stop() // must not panic or hang
	if err := live.Inject(topology.Tuple{Values: []string{"a", "b"}}); err == nil {
		t.Fatal("Inject after Stop should fail")
	}
	if err := live.Reconfigure(ReconfigPlan{}); err == nil {
		t.Fatal("Reconfigure after Stop should fail")
	}
}

func TestLiveProcessorStateUnknownInstance(t *testing.T) {
	live := newLive(t, 2, FieldsHash, 0)
	if err := live.ProcessorState("A", 9, func(topology.Processor) {}); err == nil {
		t.Fatal("unknown instance accepted")
	}
	if err := live.ProcessorState("nope", 0, func(topology.Processor) {}); err == nil {
		t.Fatal("unknown operator accepted")
	}
}

func TestMailbox(t *testing.T) {
	mb := newMailbox()
	mb.put(message{kind: msgData, key: "1"})
	mb.put(message{kind: msgData, key: "2"})
	if mb.len() != 2 {
		t.Fatalf("len = %d", mb.len())
	}
	batch, ok := mb.getBatch(nil)
	if !ok || len(batch) != 2 || batch[0].key != "1" || batch[1].key != "2" {
		t.Fatalf("getBatch = %+v %v, want keys 1, 2 in order", batch, ok)
	}
	// Close with items: drain then report closed.
	mb.put(message{kind: msgData, key: "3"})
	mb.close()
	if batch, ok := mb.getBatch(batch); !ok || len(batch) != 1 || batch[0].key != "3" {
		t.Fatal("close should let queued items drain")
	}
	if _, ok := mb.getBatch(nil); ok {
		t.Fatal("getBatch on drained closed mailbox should report closed")
	}
	mb.put(message{kind: msgData, key: "4"}) // dropped silently
	if mb.len() != 0 {
		t.Fatal("put after close should drop")
	}
}

func TestMailboxConcurrent(t *testing.T) {
	mb := newMailbox()
	const producers, perProducer = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				mb.put(message{kind: msgData})
			}
		}()
	}
	done := make(chan int)
	go func() {
		count := 0
		var buf []message
		for {
			batch, ok := mb.getBatch(buf)
			if !ok {
				done <- count
				return
			}
			count += len(batch)
			buf = batch
		}
	}()
	wg.Wait()
	mb.close()
	if got := <-done; got != producers*perProducer {
		t.Fatalf("consumed %d, want %d", got, producers*perProducer)
	}
}

func TestStatsSnapshot(t *testing.T) {
	const parallelism = 3
	live := newLive(t, parallelism, FieldsHash, 0)
	const n = 900
	for i := 0; i < n; i++ {
		k := strconv.Itoa(i % 9)
		if err := live.Inject(topology.Tuple{Values: []string{k, "t" + k}}); err != nil {
			t.Fatal(err)
		}
	}
	live.Drain()

	st := live.StatsSnapshot()
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after Drain, want 0", st.InFlight)
	}
	if st.WireDrops != 0 {
		t.Fatalf("WireDrops = %d, want 0", st.WireDrops)
	}
	if got, want := st.Fields, live.FieldsTraffic(); got != want {
		t.Fatalf("Fields = %+v, want %+v", got, want)
	}
	var totalA, totalB uint64
	for _, l := range st.Loads["A"] {
		totalA += l
	}
	for _, l := range st.Loads["B"] {
		totalB += l
	}
	if totalA != n || totalB != n {
		t.Fatalf("Loads totals A=%d B=%d, want %d each", totalA, totalB, n)
	}
	if len(st.Loads["A"]) != parallelism || len(st.Loads["B"]) != parallelism {
		t.Fatalf("Loads widths = %d/%d, want %d", len(st.Loads["A"]), len(st.Loads["B"]), parallelism)
	}
}

func TestStatsSnapshotAndCollectOnStoppedEngine(t *testing.T) {
	live := newLive(t, 2, FieldsHash, 0)
	for i := 0; i < 50; i++ {
		_ = live.Inject(topology.Tuple{Values: []string{"k", "v"}})
	}
	live.Stop()
	// Neither call may block or panic on a stopped engine: the snapshot
	// reads atomics only, and the sketch collection skips closed
	// mailboxes instead of waiting for replies that cannot come.
	if st := live.StatsSnapshot(); st.InFlight != 0 {
		t.Fatalf("InFlight = %d on stopped engine", st.InFlight)
	}
	if stats := live.CollectPairStats(); len(stats) != 0 {
		t.Fatalf("CollectPairStats on stopped engine = %v, want empty", stats)
	}
}

// TestMovesByInstance: an operator's moves group into per-instance send
// and receive lists; out-of-range and self moves are dropped.
func TestMovesByInstance(t *testing.T) {
	moves := []KeyMove{
		{Key: "a", From: 0, To: 1},
		{Key: "b", From: 0, To: 2},
		{Key: "c", From: 2, To: 0},
		{Key: "x", From: -1, To: 9}, // invalid, dropped
		{Key: "y", From: 1, To: 1},  // no owner change, dropped
	}
	send, recv := movesByInstance(moves, 3)
	if send[0]["a"] != 1 || send[0]["b"] != 2 || send[2]["c"] != 0 {
		t.Fatalf("send = %v", send)
	}
	if recv[1]["a"] != 0 || recv[2]["b"] != 0 || recv[0]["c"] != 2 {
		t.Fatalf("recv = %v", recv)
	}
	if len(send[1]) != 0 || len(recv[1]) != 1 {
		t.Fatalf("instance 1 should send nothing and receive only a: send %v recv %v", send[1], recv[1])
	}
}
