package locastream_test

import (
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	locastream "github.com/locastream/locastream"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/statestore"
)

// teeStore checkpoints into both the in-memory reference store — which
// folds the complete append history with Image.Merge — and the tiered
// statestore, so the drill can prove the two reconstruct byte-identical
// images from the same history.
type teeStore struct {
	reference locastream.CheckpointStore
	tiered    *statestore.Store
}

func (t *teeStore) Append(recs []engine.KeyState) error {
	_, err := t.AppendVersion(recs)
	return err
}

func (t *teeStore) AppendVersion(recs []engine.KeyState) (uint64, error) {
	if err := t.reference.Append(recs); err != nil {
		return 0, err
	}
	return t.tiered.AppendVersion(recs)
}

func (t *teeStore) Load() ([]engine.KeyState, error) { return t.tiered.Load() }
func (t *teeStore) MaybeCompact() bool               { return t.tiered.MaybeCompact() }

// TestQueryableStateDrill is the issue's kill→compact→restart drill:
// the same checkpoint stream lands in the in-memory reference store and
// the tiered store; a server is killed and recovered from the tiered
// store; compaction folds the history; a reopened store must serve an
// image byte-identical to the reference's fold of the full history —
// while replaying only O(live keys) records.
func TestQueryableStateDrill(t *testing.T) {
	dir := t.TempDir()
	reference := locastream.NewMemoryCheckpointStore()
	tiered, err := statestore.Open(filepath.Join(dir, "tiered"), statestore.Options{
		MaxSegmentBytes: 2048, // force rotation so compaction has sealed input
	})
	if err != nil {
		t.Fatal(err)
	}
	tee := &teeStore{reference: reference, tiered: tiered}

	app, err := locastream.NewApp(geoTopology(t, 3), locastream.WithServers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	ap, err := app.NewAutopilot(locastream.AutopilotOptions{CostPerKey: 1})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := app.NewFaultTolerance(locastream.FaultToleranceOptions{
		SuspectAfter: time.Second,
		ConfirmAfter: 2 * time.Second,
		Store:        tee,
		Autopilot:    ap,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Stop()

	// Several checkpointed windows build real history: counts advance
	// between snapshots, so deltas supersede earlier records.
	t0 := time.Unix(5000, 0)
	injectGeo(t, app, 2400)
	if d := ap.Tick(); d.Action != locastream.Deployed {
		t.Fatalf("tick = %s (%s), want deployed", d.Action, d.Reason)
	}
	for w := 0; w < 4; w++ {
		injectGeo(t, app, 1200)
		if _, err := ft.Checkpoint(t0.Add(time.Duration(w) * time.Minute)); err != nil {
			t.Fatal(err)
		}
	}

	// Kill a server; the manual clock confirms it and recovery restores
	// from the tee (i.e. the tiered store's image).
	tk := t0.Add(time.Hour)
	if err := ft.Tick(tk); err != nil {
		t.Fatal(err)
	}
	if err := app.KillServer(2); err != nil {
		t.Fatal(err)
	}
	for _, d := range []time.Duration{1, 2} {
		if err := ft.Tick(tk.Add(d * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	app.Drain()
	if reports := ft.Recoveries(); len(reports) != 1 || reports[0].RestoredKeys == 0 {
		t.Fatalf("recoveries = %+v, want one with restored keys", reports)
	}

	// The supervisor stamped versions through the tee and reports the
	// tiered store's stats on its status.
	st := ft.Status()
	if st.StateVersion == 0 || st.StateVersion != tiered.Version() {
		t.Fatalf("status state version = %d, store says %d", st.StateVersion, tiered.Version())
	}

	// Byte-identical images before compaction: the full-history fold
	// versus the tiered store's index.
	wantImage, err := reference.Load()
	if err != nil {
		t.Fatal(err)
	}
	gotImage, err := tiered.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantImage, gotImage) {
		t.Fatalf("images diverge before compaction:\nreference %+v\ntiered %+v", wantImage, gotImage)
	}

	// Compact (seal first so everything durable folds), close, reopen:
	// the restored image must still match the reference's fold of the
	// complete history, from a replay bounded by live keys.
	if err := tiered.Seal(); err != nil {
		t.Fatal(err)
	}
	cst, err := tiered.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cst.FoldedSegments == 0 || cst.BaseVersion == 0 {
		t.Fatalf("compaction folded nothing: %+v", cst)
	}
	if err := tiered.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := statestore.Open(filepath.Join(dir, "tiered"), statestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	restored, err := reopened.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantImage, restored) {
		t.Fatalf("restored image diverges from the reference:\nreference %+v\ntiered %+v", wantImage, restored)
	}
	liveRecords := uint64(len(wantImage))
	replayed := reopened.Stats().ReplayedRecords
	if replayed > liveRecords+8 {
		t.Fatalf("compacted reload replayed %d records for a %d-record live image — not O(K)",
			replayed, liveRecords)
	}
}

// TestWithStateStoreEndToEnd exercises the WithStateStore wiring: the
// fault-tolerance subsystem checkpoints into the App's store by
// default, QueryState serves point-in-time reads, and the autopilot
// handler exposes /state.
func TestWithStateStoreEndToEnd(t *testing.T) {
	dir := t.TempDir()
	app, err := locastream.NewApp(geoTopology(t, 3),
		locastream.WithServers(3),
		locastream.WithStateStore(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	ap, err := app.NewAutopilot(locastream.AutopilotOptions{CostPerKey: 1})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := app.NewFaultTolerance(locastream.FaultToleranceOptions{Autopilot: ap})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Stop()

	t0 := time.Unix(5000, 0)
	for w := 1; w <= 2; w++ {
		injectGeo(t, app, 1200)
		if _, err := ft.Checkpoint(t0.Add(time.Duration(w) * time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := app.StateVersion(); err != nil || v != 2 {
		t.Fatalf("state version = %d, %v, want 2", v, err)
	}

	// Point-in-time: region0's count at version 1 is less than at 2.
	r1, found, err := app.QueryState("regions", "region0", 1)
	if err != nil || !found {
		t.Fatalf("QueryState v1: found=%v err=%v", found, err)
	}
	r2, found, err := app.QueryState("regions", "region0", 2)
	if err != nil || !found {
		t.Fatalf("QueryState v2: found=%v err=%v", found, err)
	}
	if r1.Version != 1 || r2.Version != 2 || reflect.DeepEqual(r1.Records, r2.Records) {
		t.Fatalf("point-in-time reads identical: v1=%+v v2=%+v", r1, r2)
	}
	scan, err := app.ScanState("regions", 0)
	if err != nil || scan.Keys != 12 {
		t.Fatalf("ScanState = %+v, %v, want 12 keys", scan, err)
	}
	if ops, err := app.StateOps(); err != nil || len(ops) != 2 {
		t.Fatalf("StateOps = %v, %v", ops, err)
	}

	// The /state endpoints through the autopilot handler.
	h := ap.Handler()
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/state"); code != 200 {
		t.Fatalf("GET /state = %d: %s", code, body)
	}
	code, body := get("/state/regions/region0?version=1")
	if code != 200 {
		t.Fatalf("GET /state/regions/region0?version=1 = %d: %s", code, body)
	}
	var servedKey locastream.StateKeyResult
	if err := json.Unmarshal([]byte(body), &servedKey); err != nil {
		t.Fatal(err)
	}
	if servedKey.Version != 1 || !reflect.DeepEqual(servedKey.Records, r1.Records) {
		t.Fatalf("served lookup %+v != API lookup %+v", servedKey, r1)
	}
	if code, _ := get("/state/regions/region0?version=abc"); code != 400 {
		t.Fatalf("bad version = %d, want 400", code)
	}
	if code, _ := get("/state/regions/no-such-key"); code != 404 {
		t.Fatalf("unknown key = %d, want 404", code)
	}
	var servedScan locastream.StateScanResult
	code, body = get("/state/regions")
	if code != 200 {
		t.Fatalf("GET /state/regions = %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &servedScan); err != nil {
		t.Fatal(err)
	}
	if servedScan.Keys != 12 {
		t.Fatalf("served scan %+v, want 12 keys", servedScan)
	}

	// Compact away version 1, then the endpoint answers 410 Gone.
	if err := app.CompactState(); err != nil {
		t.Fatal(err)
	}
	if stats, err := app.StateStoreStats(); err != nil || stats.BaseVersion != 2 {
		t.Fatalf("stats after compaction = %+v, %v, want base version 2", stats, err)
	}
	if code, body := get("/state/regions/region0?version=1"); code != 410 {
		t.Fatalf("compacted version = %d (%s), want 410", code, body)
	}
	if _, _, err := app.QueryState("regions", "region0", 1); err == nil {
		t.Fatal("QueryState below the floor succeeded after compaction")
	}

	// /checkpoints carries the store's stats and the state version.
	code, body = get("/checkpoints")
	if code != 200 {
		t.Fatalf("GET /checkpoints = %d", code)
	}
	var served locastream.FaultStatus
	if err := json.Unmarshal([]byte(body), &served); err != nil {
		t.Fatal(err)
	}
	if served.StateVersion != 2 || served.Store == nil {
		t.Fatalf("/checkpoints status = StateVersion %d Store %v", served.StateVersion, served.Store)
	}
}
