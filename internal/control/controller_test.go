package control

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/core"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/topology"
)

// harness is a real live engine plus manager under controller test: the
// paper's two-operator evaluation topology with correlated keys.
type harness struct {
	live  *engine.Live
	mgr   *core.Manager
	topo  *topology.Topology
	place *cluster.Placement
}

func newHarness(t *testing.T, parallelism int, store core.ConfigStore) *harness {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Stop)
	mgr, err := core.NewManager(live, topo, place, core.ManagerOptions{
		Optimizer: core.OptimizerOptions{Seed: 11},
		Store:     store,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{live: live, mgr: mgr, topo: topo, place: place}
}

// injectCorrelated streams n tuples whose second field is a fixed
// function of the first (shifted by rot), the perfectly correlated
// workload of §4.2, and drains them.
func (h *harness) injectCorrelated(t *testing.T, n, keys, rot int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := i % keys
		tag := fmt.Sprintf("t%d", (k+rot)%keys)
		if err := h.live.Inject(topology.Tuple{Values: []string{strconv.Itoa(k), tag}}); err != nil {
			t.Fatal(err)
		}
	}
	h.live.Drain()
}

func newTestController(t *testing.T, h *harness, opts Options) *Controller {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = NewManualClock(time.Unix(1700000000, 0))
	}
	c, err := New(h.live, h.mgr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestControllerConvergesOnSkewedWorkload is the acceptance scenario: a
// skewed synthetic workload converges under the controller alone — no
// manual Reconfigure call anywhere — with window locality strictly
// improving and the journal holding both a deployed and a skipped
// decision with their signal values.
func TestControllerConvergesOnSkewedWorkload(t *testing.T) {
	h := newHarness(t, 4, nil)
	c := newTestController(t, h, Options{CostPerKey: 1, Confirm: 1, Cooldown: 0})

	const rounds = 4
	for round := 0; round < rounds; round++ {
		h.injectCorrelated(t, 3200, 16, 0)
		c.Tick()
	}

	snaps := c.Snapshots()
	if len(snaps) != rounds {
		t.Fatalf("snapshots = %d, want %d", len(snaps), rounds)
	}
	// Tick 1 measures the hash-routed phase; the deployment at its end
	// makes every later window fully local: strict improvement, then
	// monotone.
	if snaps[1].WindowLocality <= snaps[0].WindowLocality {
		t.Fatalf("locality did not strictly improve: %f then %f",
			snaps[0].WindowLocality, snaps[1].WindowLocality)
	}
	for i := 2; i < rounds; i++ {
		if snaps[i].WindowLocality < snaps[i-1].WindowLocality {
			t.Fatalf("locality regressed at tick %d: %f -> %f",
				i+1, snaps[i-1].WindowLocality, snaps[i].WindowLocality)
		}
	}
	if got := snaps[rounds-1].WindowLocality; got != 1.0 {
		t.Fatalf("final window locality = %f, want 1.0 (perfectly correlated keys)", got)
	}
	for _, s := range snaps {
		if s.WindowTraffic == 0 {
			t.Fatalf("snapshot %d saw no traffic", s.Seq)
		}
		if s.WireDrops != 0 {
			t.Fatalf("snapshot %d: wire drops %d", s.Seq, s.WireDrops)
		}
	}

	decisions := c.Journal().All()
	if len(decisions) != rounds {
		t.Fatalf("journal = %d decisions, want %d", len(decisions), rounds)
	}
	var deployed, skipped *Decision
	for i := range decisions {
		switch decisions[i].Action {
		case ActionDeployed:
			if deployed == nil {
				deployed = &decisions[i]
			}
		case ActionSkipped:
			if skipped == nil {
				skipped = &decisions[i]
			}
		}
	}
	if deployed == nil || skipped == nil {
		t.Fatalf("journal lacks a deployed and a skipped decision: %+v", decisions)
	}
	// Both kinds of decisions carry the signal values that drove them.
	if deployed.Signals.WindowTraffic == 0 || deployed.CandidateLocality != 1.0 {
		t.Fatalf("deployed decision lacks signals: %+v", deployed)
	}
	if deployed.KeysToMigrate == 0 {
		t.Fatalf("deployed decision migrated no keys: %+v", deployed)
	}
	if skipped.Signals.WindowTraffic == 0 {
		t.Fatalf("skipped decision lacks signals: %+v", skipped)
	}
	if skipped.Reason == "" || deployed.Reason == "" {
		t.Fatal("decisions lack reasons")
	}

	st := c.Status()
	if st.Deploys != 1 || st.Version == 0 {
		t.Fatalf("status = %+v, want exactly 1 deploy", st)
	}
	if st.SmoothedLocality <= snaps[0].WindowLocality {
		t.Fatalf("smoothed locality %f not pulled up toward 1.0", st.SmoothedLocality)
	}
}

// TestControllerConfirmationSuppressesTransientFlip: with Confirm = 2, a
// single statistics window showing a flipped correlation is never
// deployed — the flip reverts before a second confirming window arrives.
func TestControllerConfirmationSuppressesTransientFlip(t *testing.T) {
	h := newHarness(t, 3, nil)
	c := newTestController(t, h, Options{CostPerKey: 1, Confirm: 2, Cooldown: 0})

	// Two stable windows deploy the base configuration (streak 1, then
	// streak 2 = confirm).
	h.injectCorrelated(t, 1800, 9, 0)
	if d := c.Tick(); d.Action != ActionSkipped || d.Streak != 1 {
		t.Fatalf("tick 1 = %s (streak %d), want skipped awaiting confirmation", d.Action, d.Streak)
	}
	h.injectCorrelated(t, 1800, 9, 0)
	if d := c.Tick(); d.Action != ActionDeployed {
		t.Fatalf("tick 2 = %s (%s), want deployed", d.Action, d.Reason)
	}
	base := c.Status().Version

	// One transient window with the correlation flipped: worthwhile on
	// its own, but unconfirmed — must be suppressed.
	h.injectCorrelated(t, 1800, 9, 4)
	d := c.Tick()
	if d.Action != ActionSkipped || d.Streak != 1 {
		t.Fatalf("flip tick = %s (streak %d, %s), want skipped awaiting confirmation",
			d.Action, d.Streak, d.Reason)
	}
	if d.KeysToMigrate == 0 {
		t.Fatalf("flip candidate moved no keys — the flip was not observed: %+v", d)
	}

	// The workload reverts: the new candidate matches the deployed
	// tables, the streak resets, and the flip never deploys.
	h.injectCorrelated(t, 1800, 9, 0)
	d = c.Tick()
	if d.Action != ActionSkipped || d.Streak != 0 {
		t.Fatalf("revert tick = %s (streak %d, %s), want skipped with streak reset",
			d.Action, d.Streak, d.Reason)
	}
	if st := c.Status(); st.Deploys != 1 || st.Version != base {
		t.Fatalf("status after flip = %+v, want version %d and exactly 1 deploy", st, base)
	}
}

// TestControllerCooldownSuppressesReconfiguration: with a cooldown, the
// ticks right after a deployment never even compute a candidate, so a
// correlation flip inside the cooldown cannot trigger a migration.
func TestControllerCooldownSuppressesReconfiguration(t *testing.T) {
	h := newHarness(t, 3, nil)
	c := newTestController(t, h, Options{CostPerKey: 1, Confirm: 1, Cooldown: 2})

	h.injectCorrelated(t, 1800, 9, 0)
	if d := c.Tick(); d.Action != ActionDeployed {
		t.Fatalf("tick 1 = %s, want deployed", d.Action)
	}
	base := c.Status().Version

	// The correlation flips during the cooldown window.
	h.injectCorrelated(t, 1800, 9, 4)
	if d := c.Tick(); d.Action != ActionCooldown {
		t.Fatalf("tick 2 = %s, want cooldown", d.Action)
	}
	h.injectCorrelated(t, 1800, 9, 4)
	if d := c.Tick(); d.Action != ActionCooldown {
		t.Fatalf("tick 3 = %s, want cooldown", d.Action)
	}
	if st := c.Status(); st.Deploys != 1 || st.Version != base || st.Cooldowns != 2 {
		t.Fatalf("status during cooldown = %+v", st)
	}

	// After the cooldown the controller acts again.
	h.injectCorrelated(t, 1800, 9, 4)
	if d := c.Tick(); d.Action != ActionDeployed {
		t.Fatalf("tick 4 = %s, want deployed once cooldown expired", d.Action)
	}
}

// TestControllerRecoversFromFileStore: killing the controller (and its
// engine) and recreating both against the same FileStore restores the
// last deployed tables — the §3.4 fault-tolerance story, closed by the
// controller's constructor.
func TestControllerRecoversFromFileStore(t *testing.T) {
	dir := t.TempDir()

	// First life: converge and deploy, then die.
	h1 := newHarness(t, 4, &core.FileStore{Dir: dir})
	c1 := newTestController(t, h1, Options{CostPerKey: 1, Confirm: 1})
	h1.injectCorrelated(t, 3200, 16, 0)
	if d := c1.Tick(); d.Action != ActionDeployed {
		t.Fatalf("first life tick = %s, want deployed", d.Action)
	}
	want := c1.Tables()
	h1.live.Stop()

	// Second life: a fresh engine; the controller recovers at
	// construction, before any tick.
	h2 := newHarness(t, 4, &core.FileStore{Dir: dir})
	c2 := newTestController(t, h2, Options{CostPerKey: 1, Confirm: 1})

	st := c2.Status()
	if !st.Recovered || st.Version != 1 {
		t.Fatalf("status after recovery = %+v, want recovered v1", st)
	}
	journal := c2.Journal().All()
	if len(journal) != 1 || journal[0].Action != ActionRecovered {
		t.Fatalf("journal after recovery = %+v, want one recovered entry", journal)
	}
	got := c2.Tables()
	for op, table := range want {
		gt := got[op]
		if gt == nil || len(gt.Assign) != len(table.Assign) {
			t.Fatalf("recovered tables for %s = %v, want %v", op, gt, table)
		}
		for k, inst := range table.Assign {
			if gt.Assign[k] != inst {
				t.Fatalf("recovered %s[%q] = %d, want %d", op, k, gt.Assign[k], inst)
			}
		}
	}

	// The recovered configuration is live: the workload is fully local
	// with no tick and no reconfiguration.
	h2.injectCorrelated(t, 3200, 16, 0)
	if loc := h2.live.FieldsTraffic().Locality(); loc != 1.0 {
		t.Fatalf("locality after recovery = %f, want 1.0", loc)
	}
}

// TestControllerStartStopManualClock drives the background loop with an
// injected clock: one Advance delivers exactly one tick, and Stop joins
// the loop deterministically — no sleeps.
func TestControllerStartStopManualClock(t *testing.T) {
	h := newHarness(t, 2, nil)
	clock := NewManualClock(time.Unix(1700000000, 0))
	c := newTestController(t, h, Options{Confirm: 1, Clock: clock, Period: time.Second})

	h.injectCorrelated(t, 400, 4, 0)
	c.Start()
	c.Start() // idempotent
	clock.Advance(time.Second)
	c.Stop()
	c.Stop() // idempotent

	if got := c.Journal().Total(); got != 1 {
		t.Fatalf("decisions after one advance = %d, want 1", got)
	}
	if st := c.Status(); st.Running {
		t.Fatal("still running after Stop")
	}
	// The loop is restartable.
	c.Start()
	clock.Advance(time.Second)
	c.Stop()
	if got := c.Journal().Total(); got != 2 {
		t.Fatalf("decisions after restart = %d, want 2", got)
	}
}

// TestControllerTickOnStoppedEngine: a tick against a dead engine records
// a skip or error but never blocks or panics.
func TestControllerTickOnStoppedEngine(t *testing.T) {
	h := newHarness(t, 2, nil)
	c := newTestController(t, h, Options{Confirm: 1})
	h.injectCorrelated(t, 400, 4, 0)
	h.live.Stop()
	d := c.Tick()
	if d.Action == ActionDeployed {
		t.Fatalf("deployed on a stopped engine: %+v", d)
	}
}

func TestControllerValidation(t *testing.T) {
	h := newHarness(t, 2, nil)
	if _, err := New(nil, h.mgr, Options{}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(h.live, nil, Options{}); err == nil {
		t.Error("nil manager accepted")
	}
}

func TestControllerMinGainGate(t *testing.T) {
	h := newHarness(t, 3, nil)
	// An impossible gain floor: nothing ever deploys, every decision is
	// a skip naming the gate.
	c := newTestController(t, h, Options{CostPerKey: 0.001, MinGain: 2, Confirm: 1})
	h.injectCorrelated(t, 1800, 9, 0)
	d := c.Tick()
	if d.Action != ActionSkipped || d.Streak != 0 {
		t.Fatalf("decision = %s (streak %d), want skipped by min-gain", d.Action, d.Streak)
	}
	if st := c.Status(); st.Deploys != 0 {
		t.Fatalf("deploys = %d, want 0", st.Deploys)
	}
}
