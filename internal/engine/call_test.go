package engine

import (
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/locastream/locastream/internal/topology"
)

// TestMessageEnvelopeSize pins the size of the envelope copied at every
// handoff of every tuple: control work rides behind one func pointer and
// migration payloads behind another, never beside the data fields.
func TestMessageEnvelopeSize(t *testing.T) {
	if size := reflect.TypeOf(message{}).Size(); size > 96 {
		t.Fatalf("message is %d B, want <= 96", size)
	}
}

// waitReturn fails the test if ch yields nothing within a generous
// watchdog: the calls under test must return, not hang.
func waitReturn(t *testing.T, ch <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never returned", what)
		return nil
	}
}

// TestReconfigureRefusesDeadServer: no propagation wave can pass a dead
// instance, so a planned reconfiguration after a crash must fail fast,
// naming the server, instead of waiting on an acknowledgement that never
// comes.
func TestReconfigureRefusesDeadServer(t *testing.T) {
	live := newLive(t, 4, FieldsTable, 0)
	if err := live.KillServer(1); err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() { res <- live.Reconfigure(ReconfigPlan{}) }()
	err := waitReturn(t, res, "Reconfigure with a dead server")
	if err == nil || !strings.Contains(err.Error(), "server 1") {
		t.Fatalf("Reconfigure = %v, want an error naming server 1", err)
	}
}

// TestKillReleasesControlCallers parks one executor inside a control
// call, queues each control entry point behind it, kills the executor's
// server and releases it: every caller must return with its documented
// empty or error result, never strand on the discarded call.
func TestKillReleasesControlCallers(t *testing.T) {
	const target = 1 // B[1]; its server is killed
	rows := []struct {
		name    string
		setup   func(t *testing.T, live *Live, key string)
		call    func(live *Live, key string) error
		queued  int // messages the call leaves in the target's mailbox
		wantErr bool
	}{
		{name: "ProcessorState", queued: 1, wantErr: true,
			call: func(live *Live, _ string) error {
				return live.ProcessorState("B", target, func(topology.Processor) {})
			}},
		{name: "CollectPairStats", queued: 1,
			call: func(live *Live, _ string) error { live.CollectPairStats(); return nil }},
		{name: "PeekPairStats", queued: 1,
			call: func(live *Live, _ string) error { live.PeekPairStats(); return nil }},
		{name: "CheckpointDirty", queued: 1,
			setup: func(t *testing.T, live *Live, _ string) {
				if live.execs["B"][target].dirtyN.Load() == 0 {
					t.Fatal("target has no dirty keys; CheckpointDirty would skip it")
				}
			},
			call: func(live *Live, _ string) error { live.CheckpointDirty(); return nil }},
		{name: "StatefulKeys", queued: 1,
			call: func(live *Live, _ string) error { live.StatefulKeys(); return nil }},
		{name: "RecoverArm", queued: 1, wantErr: true,
			call: func(live *Live, _ string) error {
				return live.RecoverArm(map[string]map[int][]string{"B": {target: {"orphan"}}})
			}},
		{name: "RecoverRestore", queued: 2, wantErr: true, // the record, then the barrier
			call: func(live *Live, _ string) error {
				return live.RecoverRestore([]KeyState{{Op: "B", Inst: target, Key: "orphan"}})
			}},
		{name: "PromoteSplit", queued: 1, wantErr: true,
			call: func(live *Live, key string) error { _, err := live.PromoteSplit("B", key, 2); return err }},
		{name: "DemoteSplit", queued: 1,
			setup: func(t *testing.T, live *Live, key string) {
				if _, err := live.PromoteSplit("B", key, 2); err != nil {
					t.Fatal(err)
				}
			},
			call: func(live *Live, key string) error { return live.DemoteSplit("B", key) }},
		{name: "Reconfigure", queued: 1, wantErr: true,
			call: func(live *Live, _ string) error { return live.Reconfigure(ReconfigPlan{}) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			live := newFaultLive(t, 2, func(cfg *LiveConfig) { cfg.KeySplitting = true })
			injectKeys(t, live, 80, 8)
			// A key owned by the other instance, so a two-way split puts
			// its only replica on the target.
			key := ""
			for i := 0; i < 64 && key == ""; i++ {
				if owner, _ := live.OwnerOf("B", "k"+strconv.Itoa(i)); owner != target {
					key = "k" + strconv.Itoa(i)
				}
			}
			if key == "" {
				t.Fatal("no key owned away from the target")
			}
			if row.setup != nil {
				row.setup(t, live, key)
			}
			ex := live.execs["B"][target]

			entered, release := make(chan struct{}), make(chan struct{})
			parked := make(chan error, 1)
			go func() {
				parked <- live.ProcessorState("B", target, func(topology.Processor) {
					close(entered)
					<-release
				})
			}()
			<-entered
			res := make(chan error, 1)
			go func() { res <- row.call(live, key) }()
			for ex.box.len() < row.queued {
				runtime.Gosched()
			}
			if err := live.KillServer(ex.server); err != nil {
				t.Fatal(err)
			}
			close(release)
			if err := waitReturn(t, parked, "parking ProcessorState"); err != nil {
				t.Fatalf("parked call ran but reported %v", err)
			}
			err := waitReturn(t, res, row.name)
			if (err != nil) != row.wantErr {
				t.Fatalf("%s after kill = %v, want error: %v", row.name, err, row.wantErr)
			}
		})
	}
}
