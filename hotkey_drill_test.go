package locastream

import (
	"fmt"
	"strconv"
	"testing"
)

// drillResult captures one run of the skewed drill: the per-server load
// of the measured window, the end-to-end locality, and the hot-key
// bookkeeping for the loss check.
type drillResult struct {
	maxServerLoad uint64
	locality      float64 // tail-only window (see runSkewDrill)
	hotTotal      uint64
	counted       uint64 // hot occurrences summed over instances, per op (equal across ops)
	holders       int    // instances holding hot-key state at the end (max over ops)
	lost          uint64
	promotions    int
	demotions     int
}

// runSkewDrill drives the deterministic skewed workload through a 4-server
// deployment: a hot key takes hotShare% of the stream, the tail is a set
// of correlated key pairs the optimizer can still improve. Each window is
// followed by one autopilot tick, so the split run walks the full
// promote → reconfigure → demote cycle with a manual clock and no sleeps.
// seed is the optimizer's: it decides which part labels — which servers —
// the hot key and the tail land on.
func runSkewDrill(t *testing.T, seed int64, split bool) drillResult {
	t.Helper()
	const (
		servers  = 4
		window   = 800
		hotShare = 60
	)
	topo, err := NewTopology("drill").
		AddOperator(Operator{Name: "A", Parallelism: servers, Stateful: true,
			New: func() Processor { return NewCounter(0) }}).
		AddOperator(Operator{Name: "B", Parallelism: servers, Stateful: true,
			New: func() Processor { return NewCounter(1) }}).
		Connect("A", "B", Fields, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{
		WithServers(servers),
		WithOptimizer(0, 0, seed),
		WithMaxInFlight(4096),
	}
	if split {
		opts = append(opts, WithKeySplitting())
	}
	app, err := NewApp(topo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	ap, err := app.NewAutopilot(AutopilotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Stop()

	res := drillResult{}
	inject := func(share int) {
		for i := 0; i < window; i++ {
			k := "t" + strconv.Itoa(i%16)
			if i%100 < share {
				k = "hot"
				res.hotTotal++
			}
			if err := app.Inject(Tuple{Values: []string{k, k}}); err != nil {
				t.Fatal(err)
			}
			// A paced source: the injector never runs more than 50 tuples
			// ahead of the executors. In one 800-tuple burst the 2-choice
			// step hands the faster replica whatever the OS scheduler took
			// from the slower one, and the split run's hottest server
			// spread over 480-680 tuples run to run on the same tables.
			if i%50 == 49 {
				app.Drain()
			}
		}
		app.Drain()
	}

	// Two hot windows: with splitting on, the second tick promotes
	// (Confirm = 2); either way the ticks deploy routing tables for the
	// tail, so the measured window below runs on optimized routing.
	inject(hotShare)
	ap.Tick()
	inject(hotShare)
	ap.Tick()

	// Measured window: fully split (when enabled) on deployed tables.
	// Round-robin placement with parallelism == servers puts instance i
	// of both operators on server i.
	before := make([]uint64, servers)
	for _, op := range []string{"A", "B"} {
		for i, n := range app.Loads(op) {
			before[i] += n
		}
	}
	inject(hotShare)
	ap.Tick()
	after := make([]uint64, servers)
	for _, op := range []string{"A", "B"} {
		for i, n := range app.Loads(op) {
			after[i] += n
		}
	}
	for i := 0; i < servers; i++ {
		if d := after[i] - before[i]; d > res.maxServerLoad {
			res.maxServerLoad = d
		}
	}

	// Cooling windows: the hot key vanishes; with splitting on, the
	// second cold tick demotes and merges the partials back. The first
	// cold window doubles as the tail-locality measurement: pure tail
	// traffic on the deployed tables, with the split (when enabled)
	// still installed — the hot key's own 2-choice traffic is remote by
	// design, so the preservation claim is about the tail.
	tb := app.FieldsTraffic()
	inject(0)
	ta := app.FieldsTraffic()
	res.locality = float64(ta.LocalTuples-tb.LocalTuples) / float64(ta.Total()-tb.Total())
	ap.Tick()
	inject(0)
	ap.Tick()
	// One more plain window proves post-demote routing still flows.
	inject(0)
	app.Drain()
	res.lost = app.TuplesLost()
	st := ap.Status()
	res.promotions = st.Promotions
	res.demotions = st.Demotions
	for _, op := range []string{"A", "B"} {
		var total uint64
		holders := 0
		for i := 0; i < servers; i++ {
			var n uint64
			if err := app.ProcessorState(op, i, func(p Processor) {
				n = p.(interface{ Count(string) uint64 }).Count("hot")
			}); err != nil {
				t.Fatal(err)
			}
			if n > 0 {
				holders++
			}
			total += n
		}
		if res.counted == 0 {
			res.counted = total
		} else if total != res.counted {
			t.Fatalf("%s counted %d hot tuples, other op counted %d", op, total, res.counted)
		}
		if holders > res.holders {
			res.holders = holders
		}
	}
	return res
}

// TestHotKeyDrill is the acceptance drill for hot-key splitting: on an
// identical deterministic skewed stream, the split run must cut the
// hottest server's measured-window load by at least 30%, keep tail
// locality within 5 points of the unsplit run (the tail still enjoys
// the paper's routing-table treatment), and lose nothing through the
// full promote → reconfigure → demote cycle — whatever labels the
// partitioner hands out, hence one run per optimizer seed.
func TestHotKeyDrill(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { hotKeyDrill(t, seed) })
	}
}

func hotKeyDrill(t *testing.T, seed int64) {
	unsplit := runSkewDrill(t, seed, false)
	split := runSkewDrill(t, seed, true)
	t.Logf("max server load: unsplit=%d split=%d (%.0f%% relief); locality: unsplit=%.3f split=%.3f",
		unsplit.maxServerLoad, split.maxServerLoad,
		100*(1-float64(split.maxServerLoad)/float64(unsplit.maxServerLoad)),
		unsplit.locality, split.locality)

	if unsplit.promotions != 0 || split.promotions == 0 {
		t.Fatalf("promotions: unsplit=%d split=%d", unsplit.promotions, split.promotions)
	}
	if split.demotions != split.promotions {
		t.Fatalf("split run ended with %d promotions but %d demotions", split.promotions, split.demotions)
	}

	// Load relief: >= 30% off the hottest server during the split window.
	if limit := unsplit.maxServerLoad * 7 / 10; split.maxServerLoad > limit {
		t.Fatalf("max server load %d, want <= 70%% of unsplit %d",
			split.maxServerLoad, unsplit.maxServerLoad)
	}

	// The tail's locality is preserved: within 5 points of the unsplit run.
	if split.locality < unsplit.locality-0.05 {
		t.Fatalf("tail locality %.3f fell more than 5 points below unsplit %.3f",
			split.locality, unsplit.locality)
	}

	// Zero loss, exact counting, single owner after demote — for both runs.
	for name, r := range map[string]drillResult{"unsplit": unsplit, "split": split} {
		if r.lost != 0 {
			t.Fatalf("%s run lost %d tuples", name, r.lost)
		}
		if r.counted != r.hotTotal {
			t.Fatalf("%s run counted %d hot tuples, injected %d", name, r.counted, r.hotTotal)
		}
		if r.holders != 1 {
			t.Fatalf("%s run ends with hot-key state on %d instances, want 1", name, r.holders)
		}
	}
}
