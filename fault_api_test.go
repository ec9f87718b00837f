package locastream_test

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	locastream "github.com/locastream/locastream"
)

// TestFaultToleranceFailover drives a full failover through the public
// API alone: checkpoint, kill a server, detect on a manual clock,
// recover — with the autopilot pausing for the recovery and serving the
// subsystem's status on /checkpoints.
func TestFaultToleranceFailover(t *testing.T) {
	dir := t.TempDir()
	app, err := locastream.NewApp(geoTopology(t, 3), locastream.WithServers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	ap, err := app.NewAutopilot(locastream.AutopilotOptions{CostPerKey: 1})
	if err != nil {
		t.Fatal(err)
	}

	var phases []locastream.FaultPhase
	ft, err := app.NewFaultTolerance(locastream.FaultToleranceOptions{
		SuspectAfter: time.Second,
		ConfirmAfter: 2 * time.Second,
		Dir:          dir,
		Autopilot:    ap,
		OnEvent:      func(e locastream.FaultEvent) { phases = append(phases, e.Phase) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Stop()

	// Converge the application, then checkpoint it.
	injectGeo(t, app, 2400)
	if d := ap.Tick(); d.Action != locastream.Deployed {
		t.Fatalf("tick = %s (%s), want deployed", d.Action, d.Reason)
	}
	injectGeo(t, app, 2400)
	t0 := time.Unix(5000, 0)
	if err := ft.Tick(t0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Fatalf("checkpoint store manifest missing: %v", err)
	}

	// Kill one server and let the manual clock confirm it.
	if err := app.KillServer(2); err != nil {
		t.Fatal(err)
	}
	if app.ServerAlive(2) {
		t.Fatal("killed server still alive")
	}
	for _, d := range []time.Duration{1, 2} {
		if err := ft.Tick(t0.Add(d * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	app.Drain()

	want := []locastream.FaultPhase{
		locastream.CheckpointTaken, locastream.ServerSuspected, locastream.ServerFailed,
		locastream.CheckpointTaken, locastream.RecoveryArmed, locastream.RecoveryRouted,
		locastream.ServerRecovered,
	}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phase %d = %q, want %q", i, phases[i], want[i])
		}
	}

	st := ft.Status()
	if st.Fault.Failures != 1 || st.Fault.Recoveries != 1 {
		t.Fatalf("fault status = %+v", st.Fault)
	}
	if len(st.Liveness) != 3 || st.Liveness[2] != "confirmed" {
		t.Fatalf("liveness = %v", st.Liveness)
	}
	reports := ft.Recoveries()
	if len(reports) != 1 || reports[0].Server != 2 || reports[0].MovedKeys == 0 {
		t.Fatalf("recoveries = %+v", reports)
	}

	// The autopilot observed the failure, paused, and resumed with the
	// repair version.
	apst := ap.Status()
	if apst.Paused || apst.Failures != 1 || apst.FailureRecoveries != 1 {
		t.Fatalf("autopilot status = %+v", apst)
	}
	if apst.Version < reports[0].Version {
		t.Fatalf("autopilot version %d behind repair version %d", apst.Version, reports[0].Version)
	}

	// /checkpoints serves the subsystem's status through the autopilot.
	rec := httptest.NewRecorder()
	ap.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/checkpoints", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /checkpoints = %d: %s", rec.Code, rec.Body.String())
	}
	var served locastream.FaultStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
		t.Fatalf("GET /checkpoints: %v", err)
	}
	if served.Fault.Recoveries != 1 {
		t.Fatalf("GET /checkpoints = %+v", served)
	}

	// The stream still flows on the survivors, and the recovered keys'
	// traffic stays as local as the surviving assignment allows.
	injectGeo(t, app, 2400)
	if lost := app.TuplesLost(); lost > 0 {
		t.Logf("bounded loss across the failure: %d tuples", lost)
	}
	if err := ft.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := ft.Stop(); err != nil {
		t.Fatal("second Stop errored:", err)
	}
}

// TestStartFaultToleranceBackgroundLoop smoke-tests the background
// variant through the public API.
func TestStartFaultToleranceBackgroundLoop(t *testing.T) {
	app, err := locastream.NewApp(geoTopology(t, 2), locastream.WithServers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	injectGeo(t, app, 600)

	ft, err := app.StartFaultTolerance(locastream.FaultToleranceOptions{
		CheckpointEvery: time.Millisecond,
		ProbeEvery:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for ft.Status().Fault.Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background loop never checkpointed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := ft.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestAutopilotTickAfterUnconfirmedKill covers the window between a
// crash and the detector confirming it: the autopilot is not paused yet,
// so a tick may try to deploy. The deploy must fail with an error
// decision instead of waiting forever on the dead server while holding
// the reconfiguration lock that recovery needs.
func TestAutopilotTickAfterUnconfirmedKill(t *testing.T) {
	app, err := locastream.NewApp(geoTopology(t, 4), locastream.WithServers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	ap, err := app.NewAutopilot(locastream.AutopilotOptions{CostPerKey: 1})
	if err != nil {
		t.Fatal(err)
	}
	injectGeo(t, app, 2400)
	if err := app.KillServer(1); err != nil {
		t.Fatal(err)
	}
	res := make(chan locastream.Decision, 1)
	go func() { res <- ap.Tick() }()
	select {
	case d := <-res:
		if d.Action != locastream.Errored {
			t.Fatalf("tick after kill = %s (%s), want %s", d.Action, d.Reason, locastream.Errored)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("autopilot tick after a kill never returned")
	}
}
