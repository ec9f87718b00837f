package engine

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/topology"
	"github.com/locastream/locastream/internal/transport"
)

func newTCPLive(t testing.TB, parallelism int, mode FieldsMode) *Live {
	t.Helper()
	return newTCPLiveWith(t, parallelism, mode, 0, 0)
}

// newTCPLiveWith is newTCPLive with the transport's flush thresholds
// seeded (zeros take the defaults).
func newTCPLiveWith(t testing.TB, parallelism int, mode FieldsMode, flushBytes int, flushInterval time.Duration) *Live {
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
		TCPTransport:   true,
		FlushBytes:     flushBytes,
		FlushInterval:  flushInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Stop)
	return live
}

// TestTCPLiveIdleFlushNeedsNoTimer is the proof that no tuple waits on
// an idle wire: with the backstop timer an hour away and the size
// threshold out of reach, every A-to-B hop of a worst-case-routed
// stream can only leave its sender's batch through the executors' idle
// hints — so Drain returning at all, with exact counts, is the property.
func TestTCPLiveIdleFlushNeedsNoTimer(t *testing.T) {
	const (
		parallelism = 4
		keys        = 64
		perKey      = 64
		n           = keys * perKey
	)
	live := newTCPLiveWith(t, parallelism, FieldsWorstCase, 4<<20, time.Hour)
	for i := 0; i < n; i++ {
		k := strconv.Itoa(i % keys)
		if err := live.Inject(topology.Tuple{Values: []string{"a" + k, "b" + k}}); err != nil {
			t.Fatal(err)
		}
	}
	drained := make(chan struct{})
	go func() {
		live.Drain()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Errorf("Drain still waiting: %d tuples sit in batches only the timer would flush",
			live.StatsSnapshot().InFlight)
		// Push them out with control frames so the cleanup's Stop returns.
		for from := 0; from < parallelism; from++ {
			for to := 0; to < parallelism; to++ {
				if to != from {
					_ = live.fabric.Send(from, to, transport.Message{Kind: transport.KindHeartbeat, From: from})
				}
			}
		}
		<-drained
	}

	for _, spec := range []struct{ op, prefix string }{{"A", "a"}, {"B", "b"}} {
		counts := make(map[string]uint64, keys)
		for inst := 0; inst < parallelism; inst++ {
			if err := live.ProcessorState(spec.op, inst, func(p topology.Processor) {
				c := p.(*topology.Counter)
				for _, k := range c.StateKeys() {
					counts[k] += c.Count(k)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		if len(counts) != keys {
			t.Fatalf("%s holds %d keys, want %d", spec.op, len(counts), keys)
		}
		for i := 0; i < keys; i++ {
			if k := spec.prefix + strconv.Itoa(i); counts[k] != perKey {
				t.Fatalf("%s counted %q %d times, want %d", spec.op, k, counts[k], perKey)
			}
		}
	}
	if tr := live.FieldsTraffic(); tr.RemoteTuples != n {
		t.Fatalf("%d of %d A-to-B hops crossed the wire; worst-case routing must send all", tr.RemoteTuples, n)
	}
	if lost := live.TuplesLost(); lost != 0 {
		t.Fatalf("TuplesLost = %d, want 0", lost)
	}
	assertNoWireDrops(t, live)
	// A flusher meters a frame after its writev returns, so the receiver
	// can settle the last tuples — and Drain return — a moment before the
	// sender has counted them.
	ws := live.WireStats()
	for deadline := time.Now().Add(5 * time.Second); ws.TuplesSent < n && time.Now().Before(deadline); ws = live.WireStats() {
		time.Sleep(time.Millisecond)
	}
	if ws.TuplesSent != n || ws.FlushIdle == 0 || ws.FlushTimer != 0 || ws.FlushSize != 0 {
		t.Fatalf("wire sent %d tuples in idle/timer/size frames %d/%d/%d, want %d in idle frames only",
			ws.TuplesSent, ws.FlushIdle, ws.FlushTimer, ws.FlushSize, n)
	}
}

func TestTCPLiveProcessesAllTuples(t *testing.T) {
	const n = 2000
	live := newTCPLive(t, 3, FieldsHash)
	for i := 0; i < n; i++ {
		if err := live.Inject(topology.Tuple{Values: []string{
			fmt.Sprintf("a%d", i%20),
			fmt.Sprintf("b%d", i%20),
		}, Padding: 256}); err != nil {
			t.Fatal(err)
		}
	}
	live.Drain()
	if got := liveTotalCount(t, live, "A", 3); got != n {
		t.Fatalf("A counted %d, want %d", got, n)
	}
	if got := liveTotalCount(t, live, "B", 3); got != n {
		t.Fatalf("B counted %d, want %d", got, n)
	}
	// With hash routing on 3 servers most transfers cross the (real) TCP
	// transport; totals prove they arrived intact.
	if tr := live.FieldsTraffic(); tr.RemoteTuples == 0 {
		t.Fatal("no remote traffic recorded; transport untested")
	}
	assertNoWireDrops(t, live)
}

// assertNoWireDrops fails the test when any transport message was
// silently discarded: a healthy pipeline must deliver every message.
func assertNoWireDrops(t *testing.T, live *Live) {
	t.Helper()
	if n := live.StatsSnapshot().WireDrops; n != 0 {
		t.Fatalf("WireDrops = %d, want 0 (transport silently discarded messages)", n)
	}
}

func TestTCPLiveReconfigureMigratesState(t *testing.T) {
	const parallelism = 3
	live := newTCPLive(t, parallelism, FieldsTable)

	for i := 0; i < 600; i++ {
		k := strconv.Itoa(i % 6)
		_ = live.Inject(topology.Tuple{Values: []string{k, k + "'"}})
	}
	live.Drain()

	// Move every key: state crosses the wire.
	tables := map[string]*routing.Table{}
	moves := map[string][]KeyMove{}
	for _, spec := range []struct{ op, suffix string }{{"A", ""}, {"B", "'"}} {
		assign := map[string]int{}
		for i := 0; i < 6; i++ {
			key := strconv.Itoa(i) + spec.suffix
			from := routing.SaltedHashKey(spec.op, key, parallelism)
			to := (from + 1) % parallelism
			assign[key] = to
			moves[spec.op] = append(moves[spec.op], KeyMove{Key: key, From: from, To: to})
		}
		tables[spec.op] = &routing.Table{Version: 1, Assign: assign}
	}
	if err := live.Reconfigure(ReconfigPlan{Tables: tables, Moves: moves}); err != nil {
		t.Fatal(err)
	}

	if got := liveTotalCount(t, live, "B", parallelism); got != 600 {
		t.Fatalf("B total after TCP migration = %d, want 600", got)
	}
	for i := 0; i < 6; i++ {
		key := strconv.Itoa(i)
		inst := tables["A"].Assign[key]
		var cnt uint64
		_ = live.ProcessorState("A", inst, func(p topology.Processor) {
			cnt = p.(*topology.Counter).Count(key)
		})
		if cnt != 100 {
			t.Errorf("A[%d].Count(%s) = %d, want 100", inst, key, cnt)
		}
	}
	assertNoWireDrops(t, live)
}

func TestTCPLiveReconfigureUnderTraffic(t *testing.T) {
	const parallelism = 3
	const total = 1500
	live := newTCPLive(t, parallelism, FieldsTable)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			k := strconv.Itoa(i % 9)
			_ = live.Inject(topology.Tuple{Values: []string{k, k + "'"}})
		}
	}()

	assign := map[string]int{}
	moves := map[string][]KeyMove{}
	for i := 0; i < 9; i++ {
		k := strconv.Itoa(i)
		from := routing.SaltedHashKey("A", k, parallelism)
		to := (from + 1) % parallelism
		assign[k] = to
		moves["A"] = append(moves["A"], KeyMove{Key: k, From: from, To: to})
	}
	if err := live.Reconfigure(ReconfigPlan{
		Tables: map[string]*routing.Table{"A": {Version: 1, Assign: assign}},
		Moves:  moves,
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	live.Drain()

	if got := liveTotalCount(t, live, "A", parallelism); got != total {
		t.Fatalf("A total = %d, want %d (tuples lost over TCP during migration)", got, total)
	}
	assertNoWireDrops(t, live)
}

func TestWireDropsCountCorruptAddresses(t *testing.T) {
	live := newTCPLive(t, 2, FieldsHash)
	// Deliver messages with out-of-range instances and an unknown kind
	// directly, as a corrupted or version-skewed peer would.
	live.deliverWire(transport.Message{To: transport.Addr{Op: "A", Instance: 99}})
	live.deliverWire(transport.Message{To: transport.Addr{Op: "A", Instance: -1}})
	live.deliverWire(transport.Message{To: transport.Addr{Op: "ghost", Instance: 0}})
	live.deliverWire(transport.Message{Kind: transport.Kind(255), To: transport.Addr{Op: "A", Instance: 0}})
	if n := live.WireDrops(); n != 4 {
		t.Fatalf("WireDrops = %d, want 4", n)
	}
	if n := live.StatsSnapshot().WireDrops; n != 4 {
		t.Fatalf("StatsSnapshot().WireDrops = %d, want 4", n)
	}
}
