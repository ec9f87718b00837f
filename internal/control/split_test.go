package control

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/core"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/spacesaving"
	"github.com/locastream/locastream/internal/topology"
)

// fakeSplitEngine records promote/demote calls without an engine.
type fakeSplitEngine struct {
	par      map[string]int
	splits   map[string][]int
	promoted []string
	demoted  []string
}

func newFakeSplitEngine(par map[string]int) *fakeSplitEngine {
	return &fakeSplitEngine{par: par, splits: map[string][]int{}}
}

func (f *fakeSplitEngine) CanSplit(op string) bool   { return f.par[op] >= 2 }
func (f *fakeSplitEngine) Parallelism(op string) int { return f.par[op] }
func (f *fakeSplitEngine) PromoteSplit(op, key string, d int) ([]int, error) {
	id := splitID(op, key)
	if _, ok := f.splits[id]; ok {
		return nil, fmt.Errorf("already split")
	}
	reps := make([]int, d)
	for i := range reps {
		reps[i] = i
	}
	f.splits[id] = reps
	f.promoted = append(f.promoted, id)
	return reps, nil
}
func (f *fakeSplitEngine) DemoteSplit(op, key string) error {
	id := splitID(op, key)
	if _, ok := f.splits[id]; !ok {
		return fmt.Errorf("not split")
	}
	delete(f.splits, id)
	f.demoted = append(f.demoted, id)
	return nil
}
func (f *fakeSplitEngine) SplitSnapshot() []engine.SplitKeyInfo { return nil }

// window builds a one-edge candidate whose Out-marginals give hotCount
// to "hot" and spread tailCount over 8 tail keys, with the fake engine's
// current split set attached.
func window(f *fakeSplitEngine, hotCount, tailCount uint64) *core.Candidate {
	pairs := []spacesaving.PairCounter{{In: "hot", Out: "hot", Count: hotCount}}
	for i := 0; i < 8; i++ {
		k := "t" + strconv.Itoa(i)
		pairs = append(pairs, spacesaving.PairCounter{In: k, Out: k, Count: tailCount / 8})
	}
	cand := &core.Candidate{Stats: []engine.PairStat{{FromOp: "A", ToOp: "B", Pairs: pairs}}}
	for id, reps := range f.splits {
		for i := 0; i < len(id); i++ {
			if id[i] == 0 {
				cand.Splits = append(cand.Splits, engine.SplitKeyInfo{Op: id[:i], Key: id[i+1:], Replicas: reps})
				break
			}
		}
	}
	return cand
}

// newSplitHarness is newHarness with hot-key splitting enabled in the
// engine.
func newSplitHarness(t *testing.T, parallelism int) *harness {
	t.Helper()
	topo, err := topology.NewBuilder("split").
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
	policies, err := engine.NewPolicies(topo, place, engine.FieldsTable)
	if err != nil {
		t.Fatal(err)
	}
	src, err := engine.NewSourcePolicy(topo, place, topology.Fields, engine.FieldsTable)
	if err != nil {
		t.Fatal(err)
	}
	live, err := engine.NewLive(engine.LiveConfig{
		Topology:       topo,
		Placement:      place,
		Policies:       policies,
		SourcePolicy:   src,
		SourceKeyField: 0,
		SketchCapacity: 4096,
		KeySplitting:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Stop)
	mgr, err := core.NewManager(live, topo, place, core.ManagerOptions{
		Optimizer: core.OptimizerOptions{Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{live: live, mgr: mgr, topo: topo, place: place}
}

// TestSplitterHysteresisNoFlapping drives the splitter through
// alternating and sustained windows: a key hot for a single window (or
// alternating hot/cold) must never promote with Confirm=2, a key hot for
// two consecutive windows promotes exactly once, and the promoted key
// demotes only after two consecutive cold windows.
func TestSplitterHysteresisNoFlapping(t *testing.T) {
	f := newFakeSplitEngine(map[string]int{"B": 4})
	s := newSplitter(f, SplitOptions{Threshold: 1.5, Confirm: 2})
	now := time.Unix(1700000000, 0)
	seq := 0
	tick := func(hot, tail uint64) []Decision {
		seq++
		return s.run(window(f, hot, tail), now, seq, 1)
	}

	// 400 hot of 800 total, fair share 200, threshold 300: hot.
	// One hot window: streak 1 of 2, nothing happens.
	if ds := tick(400, 400); len(ds) != 0 || len(f.promoted) != 0 {
		t.Fatalf("promoted after one hot window: %v / %v", ds, f.promoted)
	}
	// Cold window resets the streak.
	if ds := tick(100, 700); len(ds) != 0 {
		t.Fatalf("transition on cold window: %v", ds)
	}
	// Alternating hot/cold: still nothing, ever.
	for i := 0; i < 4; i++ {
		tick(400, 400)
		tick(100, 700)
	}
	if len(f.promoted) != 0 {
		t.Fatalf("flapped into promotion under alternating windows: %v", f.promoted)
	}

	// Two consecutive hot windows: promoted exactly once.
	tick(400, 400)
	ds := tick(400, 400)
	if len(f.promoted) != 1 || f.promoted[0] != splitID("B", "hot") {
		t.Fatalf("promotions = %v, want exactly B/hot", f.promoted)
	}
	if len(ds) != 1 || ds[0].Action != ActionPromoted {
		t.Fatalf("decisions = %+v, want one ActionPromoted", ds)
	}
	// Staying hot keeps it split, no re-promotion.
	tick(400, 400)
	tick(400, 400)
	if len(f.promoted) != 1 {
		t.Fatalf("re-promoted an already split key: %v", f.promoted)
	}

	// Demotion threshold is DemoteFraction(0.5) * 300 = 150 of an 800
	// window. One cold window: no demote. Hot again: cold streak resets.
	tick(100, 700)
	tick(400, 400)
	tick(100, 700)
	if len(f.demoted) != 0 {
		t.Fatalf("demoted without two consecutive cold windows: %v", f.demoted)
	}
	// Two consecutive cold windows: demoted exactly once.
	tick(100, 700)
	ds = tick(100, 700)
	if len(f.demoted) != 1 {
		t.Fatalf("demotions = %v, want exactly one", f.demoted)
	}
	// The second cold tick carries the demote; nothing further happens.
	found := false
	for _, d := range ds {
		if d.Action == ActionDemoted {
			found = true
		}
	}
	if !found && len(ds) > 0 {
		t.Fatalf("unexpected decisions %+v", ds)
	}
	tick(100, 700)
	if len(f.demoted) != 1 || len(f.promoted) != 1 {
		t.Fatalf("extra transitions: promoted %v demoted %v", f.promoted, f.demoted)
	}
}

// TestSplitterVanishedKeyDemotes demotes a split key that stops showing
// up in the statistics window at all.
func TestSplitterVanishedKeyDemotes(t *testing.T) {
	f := newFakeSplitEngine(map[string]int{"B": 4})
	s := newSplitter(f, SplitOptions{Confirm: 2})
	now := time.Unix(1700000000, 0)
	s.run(window(f, 400, 400), now, 1, 1)
	s.run(window(f, 400, 400), now, 2, 1)
	if len(f.promoted) != 1 {
		t.Fatalf("setup: promotions %v", f.promoted)
	}
	// Candidates whose stats no longer mention "hot" at all.
	s.run(window(f, 0, 800), now, 3, 1)
	s.run(window(f, 0, 800), now, 4, 1)
	if len(f.demoted) != 1 {
		t.Fatalf("vanished key not demoted: %v", f.demoted)
	}
}

// withoutHot drops the "hot" pair from a window: the key fell out of the
// window's sketch entirely, so the splitter never visits it.
func withoutHot(cand *core.Candidate) *core.Candidate {
	pairs := cand.Stats[0].Pairs[:0:0]
	for _, p := range cand.Stats[0].Pairs {
		if p.Out != "hot" {
			pairs = append(pairs, p)
		}
	}
	cand.Stats[0].Pairs = pairs
	return cand
}

// TestSplitterWindowsMustBeConsecutive: a key that is hot, then absent
// from a window's sketch, then hot again has not been hot on two
// consecutive windows and must not promote at Confirm 2 — and a key
// whose streak ended holds no state, however it ended.
func TestSplitterWindowsMustBeConsecutive(t *testing.T) {
	f := newFakeSplitEngine(map[string]int{"B": 4})
	s := newSplitter(f, SplitOptions{Threshold: 1.5, Confirm: 2})
	now := time.Unix(1700000000, 0)

	s.run(window(f, 400, 400), now, 1, 1)
	s.run(withoutHot(window(f, 0, 800)), now, 2, 1)
	if len(s.gates) != 0 {
		t.Errorf("%d gate(s) survive a window their key was absent from", len(s.gates))
	}
	s.run(window(f, 400, 400), now, 3, 1)
	if len(f.promoted) != 0 {
		t.Fatalf("promoted on non-consecutive hot windows: %v", f.promoted)
	}
	s.run(window(f, 400, 400), now, 4, 1)
	if len(f.promoted) != 1 || len(s.gates) != 0 {
		t.Fatalf("after two consecutive hot windows: promoted %v, %d gate(s) left", f.promoted, len(s.gates))
	}

	// One cold window starts a demotion streak; then the key is demoted
	// behind the splitter's back (ScaleTo and repair do that). The stale
	// streak must not outlive the next window.
	s.run(window(f, 100, 700), now, 5, 1)
	if len(s.gates) != 1 {
		t.Fatalf("%d gate(s) after one cold window on a split key, want 1", len(s.gates))
	}
	delete(f.splits, splitID("B", "hot"))
	s.run(window(f, 100, 700), now, 6, 1)
	if len(s.gates) != 0 || len(f.demoted) != 0 {
		t.Fatalf("after an external demotion: %d gate(s) left, demoted %v", len(s.gates), f.demoted)
	}
}

// TestControllerSplitLifecycleNoLoss is the end-to-end control-plane
// cycle on a real engine: a skewed stream promotes the hot key through
// controller ticks, the key demotes after the workload cools, and the
// owner's count equals every tuple injected — partials merged back, zero
// loss, all with a manual clock and no sleeps.
func TestControllerSplitLifecycleNoLoss(t *testing.T) {
	h := newSplitHarness(t, 4)
	c := newTestController(t, h, Options{
		CostPerKey: 1e9, // never deploy; this test isolates the splitter
		Split:      SplitOptions{Threshold: 1.5, Confirm: 2, Replicas: 2},
	})
	c.AttachSplitEngine(h.live)

	hotTotal := uint64(0)
	injectSkewed := func(hotShare int) {
		for i := 0; i < 800; i++ {
			k := "t" + strconv.Itoa(i%16)
			if i%100 < hotShare {
				k = "hot"
				hotTotal++
			}
			if err := h.live.Inject(topology.Tuple{Values: []string{k, k}}); err != nil {
				t.Fatal(err)
			}
		}
		h.live.Drain()
	}

	// Two hot windows (40% of traffic on one key of 4 instances).
	injectSkewed(40)
	c.Tick()
	if got := c.Status().Promotions; got != 0 {
		t.Fatalf("promoted after one window (Confirm=2): %d", got)
	}
	injectSkewed(40)
	c.Tick()
	st := c.Status()
	// The hot key is hot at both stateful ops, so both promote together.
	if st.Promotions != 2 || len(st.SplitKeys) != 2 {
		t.Fatalf("no promotion after two hot windows: %+v", st)
	}
	var promotedJournal bool
	for _, d := range c.Journal().Recent(10) {
		if d.Action == ActionPromoted {
			promotedJournal = true
		}
	}
	if !promotedJournal {
		t.Fatal("journal has no promoted entry")
	}

	// Split traffic flows through both replicas.
	injectSkewed(40)
	c.Tick()
	if st := c.Status(); st.Split.Routed == 0 {
		t.Fatalf("no split-routed tuples: %+v", st.Split)
	}

	// The workload cools: two cold windows demote.
	injectSkewed(0)
	c.Tick()
	injectSkewed(0)
	c.Tick()
	st = c.Status()
	if st.Demotions != 2 || len(st.SplitKeys) != 0 {
		t.Fatalf("no demotion after two cold windows: %+v", st)
	}

	// Zero loss: every hot tuple ever injected is counted exactly once,
	// merged into single-owner state on every split op.
	for _, op := range []string{"A", "B"} {
		var total uint64
		var holders int
		for i := 0; i < 4; i++ {
			var n uint64
			if err := h.live.ProcessorState(op, i, func(p topology.Processor) {
				n = p.(*topology.Counter).Count("hot")
			}); err != nil {
				t.Fatal(err)
			}
			if n > 0 {
				holders++
			}
			total += n
		}
		if total != hotTotal {
			t.Fatalf("%s holds %d for the hot key, want %d (tuple loss or double count)", op, total, hotTotal)
		}
		if holders != 1 {
			t.Fatalf("%s: hot key spread over %d instances after demote, want 1", op, holders)
		}
	}
	if lost := h.live.TuplesLost(); lost != 0 {
		t.Fatalf("lost %d tuples", lost)
	}
}
