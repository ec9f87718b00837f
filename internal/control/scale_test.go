package control

import (
	"errors"
	"net/http/httptest"
	"testing"
)

// fakeScaleEngine records ScaleTo calls without a real engine: the
// controller's wiring — hysteresis, journaling, pausing — is under test
// here, not the migration (scale_test.go in the root package covers
// that end to end).
type fakeScaleEngine struct {
	active, capacity int
	calls            []int
	fail             bool
}

func (f *fakeScaleEngine) ActiveServers() int  { return f.active }
func (f *fakeScaleEngine) ServerCapacity() int { return f.capacity }
func (f *fakeScaleEngine) ScaleTo(n int) (ScaleResult, error) {
	f.calls = append(f.calls, n)
	if f.fail {
		return ScaleResult{}, errors.New("injected scale failure")
	}
	res := ScaleResult{From: f.active, To: n, MovedKeys: 3, MoveBound: 5, Version: 9}
	f.active = n
	return res, nil
}

func scaledEntries(c *Controller) []Decision {
	var out []Decision
	for _, d := range c.Journal().All() {
		if d.Action == ActionScaled {
			out = append(out, d)
		}
	}
	return out
}

// TestScaleFiresOnSustainedLoad: sustained window traffic above the
// per-server target widens the cluster after the confirmation streak,
// journals a scaled decision with its signals, and surfaces the result
// in Status and on /scale.
func TestScaleFiresOnSustainedLoad(t *testing.T) {
	h := newHarness(t, 4, nil)
	c := newTestController(t, h, Options{CostPerKey: 1, Confirm: 1})
	eng := &fakeScaleEngine{active: 2, capacity: 4}
	if err := c.AttachScaleEngine(eng, ScaleOptions{
		Min: 1, Max: 4, TargetLoad: 500, Confirm: 2, Cooldown: 1,
	}); err != nil {
		t.Fatal(err)
	}

	// Window 1: overload observed, confirmation streak starts — no call.
	h.injectCorrelated(t, 1800, 9, 0)
	c.Tick()
	if len(eng.calls) != 0 {
		t.Fatalf("scaled after one window: %v", eng.calls)
	}
	st := c.ScaleStatusSnapshot()
	if st == nil || st.Streak != 1 || st.Scales != 0 {
		t.Fatalf("status after window 1 = %+v, want streak 1", st)
	}

	// Window 2: confirmed — the engine is driven to the clamped width.
	h.injectCorrelated(t, 1800, 9, 0)
	c.Tick()
	if len(eng.calls) != 1 || eng.calls[0] != 4 {
		t.Fatalf("calls = %v, want [4]", eng.calls)
	}
	scaled := scaledEntries(c)
	if len(scaled) != 1 {
		t.Fatalf("scaled journal entries = %d, want 1", len(scaled))
	}
	d := scaled[0]
	if d.KeysToMigrate != 3 || d.Version != 9 || d.Reason == "" || d.Signals.WindowTraffic == 0 {
		t.Fatalf("scaled decision = %+v, want 3 keys at v9 with signals", d)
	}

	st = c.ScaleStatusSnapshot()
	if st.Active != 4 || st.Capacity != 4 || st.Scales != 1 || st.CooldownLeft != 1 {
		t.Fatalf("status after scale = %+v", st)
	}
	if st.LastResult == nil || st.LastResult.To != 4 || st.LastResult.MoveBound != 5 {
		t.Fatalf("last result = %+v", st.LastResult)
	}
	if full := c.Status(); full.Scale == nil || full.Scale.Scales != 1 {
		t.Fatalf("Status().Scale = %+v", full.Scale)
	}

	// /scale serves the same slice.
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/scale", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /scale = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestScaleCooldownSuppressesBackToBackDecisions: a demand reversal
// right after a scale waits out the cooldown — no second ScaleTo inside
// it — then fires.
func TestScaleCooldownSuppressesBackToBackDecisions(t *testing.T) {
	h := newHarness(t, 4, nil)
	c := newTestController(t, h, Options{CostPerKey: 1, Confirm: 1})
	eng := &fakeScaleEngine{active: 4, capacity: 4}
	if err := c.AttachScaleEngine(eng, ScaleOptions{
		Min: 2, Max: 4, TargetLoad: 10000, Confirm: 1, Cooldown: 2,
	}); err != nil {
		t.Fatal(err)
	}

	// Light traffic vs a huge target: desired width clamps to Min.
	h.injectCorrelated(t, 400, 4, 0)
	c.Tick()
	if len(eng.calls) != 1 || eng.calls[0] != 2 {
		t.Fatalf("calls = %v, want [2]", eng.calls)
	}
	// Two cooldown windows: no decision regardless of what demand says.
	for i := 0; i < 2; i++ {
		h.injectCorrelated(t, 400, 4, 0)
		c.Tick()
		if len(eng.calls) != 1 {
			t.Fatalf("cooldown window %d scaled: %v", i, eng.calls)
		}
	}
	if len(scaledEntries(c)) != 1 {
		t.Fatalf("scaled journal entries = %d during cooldown, want 1", len(scaledEntries(c)))
	}
	// Width now matches demand (desired = Min = active): steady state.
	h.injectCorrelated(t, 400, 4, 0)
	c.Tick()
	if len(eng.calls) != 1 {
		t.Fatalf("steady state scaled again: %v", eng.calls)
	}
}

// TestScalePausedDuringRecovery: while a failure recovery is in flight
// the controller skips the whole tick — including the scaler — and
// resumes when the recovery completes.
func TestScalePausedDuringRecovery(t *testing.T) {
	h := newHarness(t, 4, nil)
	c := newTestController(t, h, Options{CostPerKey: 1, Confirm: 1})
	eng := &fakeScaleEngine{active: 2, capacity: 4}
	if err := c.AttachScaleEngine(eng, ScaleOptions{
		Min: 1, Max: 4, TargetLoad: 500, Confirm: 1, Cooldown: 0,
	}); err != nil {
		t.Fatal(err)
	}

	c.NoteFailure(1, "injected failure")
	h.injectCorrelated(t, 1800, 9, 0)
	if d := c.Tick(); d.Action != ActionPaused {
		t.Fatalf("paused tick = %s, want %s", d.Action, ActionPaused)
	}
	if len(eng.calls) != 0 {
		t.Fatalf("scaled while paused: %v", eng.calls)
	}
	if st := c.ScaleStatusSnapshot(); st.Streak != 0 {
		t.Fatalf("scaler observed a paused window: streak %d", st.Streak)
	}

	c.NoteRecovery(1, 5, "recovery done")
	h.injectCorrelated(t, 1800, 9, 0)
	c.Tick()
	if len(eng.calls) != 1 || eng.calls[0] != 4 {
		t.Fatalf("calls after recovery = %v, want [4]", eng.calls)
	}
}

// TestScaleErrorJournaled: a failing ScaleTo becomes an error decision,
// not a crash — and the width stays put.
func TestScaleErrorJournaled(t *testing.T) {
	h := newHarness(t, 4, nil)
	c := newTestController(t, h, Options{CostPerKey: 1, Confirm: 1})
	eng := &fakeScaleEngine{active: 2, capacity: 4, fail: true}
	if err := c.AttachScaleEngine(eng, ScaleOptions{
		Min: 1, Max: 4, TargetLoad: 500, Confirm: 1, Cooldown: 0,
	}); err != nil {
		t.Fatal(err)
	}

	h.injectCorrelated(t, 1800, 9, 0)
	c.Tick()
	if len(eng.calls) != 1 {
		t.Fatalf("calls = %v, want one attempt", eng.calls)
	}
	var errDecision *Decision
	for _, d := range c.Journal().All() {
		if d.Action == ActionError && d.Err != "" {
			errDecision = &d
			break
		}
	}
	if errDecision == nil {
		t.Fatalf("no error decision journaled: %+v", c.Journal().All())
	}
	st := c.ScaleStatusSnapshot()
	if st.Scales != 0 || st.Active != 2 || st.LastResult != nil {
		t.Fatalf("status after failed scale = %+v", st)
	}
}

// TestAttachScaleEngineValidation: unusable options are rejected, and
// before a successful attach the scale surface stays dark.
func TestAttachScaleEngineValidation(t *testing.T) {
	h := newHarness(t, 2, nil)
	c := newTestController(t, h, Options{Confirm: 1})
	if st := c.ScaleStatusSnapshot(); st != nil {
		t.Fatalf("scale status before attach = %+v, want nil", st)
	}
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/scale", nil))
	if rec.Code != 404 {
		t.Fatalf("GET /scale before attach = %d, want 404", rec.Code)
	}
	eng := &fakeScaleEngine{active: 1, capacity: 2}
	if err := c.AttachScaleEngine(eng, ScaleOptions{Min: 1, Max: 2}); err == nil {
		t.Error("zero target load accepted")
	}
	if err := c.AttachScaleEngine(eng, ScaleOptions{Min: 3, Max: 2, TargetLoad: 10}); err == nil {
		t.Error("max below min accepted")
	}
	if st := c.ScaleStatusSnapshot(); st != nil {
		t.Fatal("failed attach left a scale engine behind")
	}
}
