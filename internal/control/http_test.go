package control

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
)

func setupHTTP(t *testing.T) (*harness, *Controller, http.Handler) {
	t.Helper()
	h := newHarness(t, 3, nil)
	c := newTestController(t, h, Options{CostPerKey: 1, Confirm: 1})
	h.injectCorrelated(t, 1800, 9, 0)
	c.Tick()
	h.injectCorrelated(t, 1800, 9, 0)
	c.Tick()
	return h, c, c.Handler()
}

func getJSON(t *testing.T, handler http.Handler, path string, into interface{}) {
	t.Helper()
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s Content-Type = %q", path, ct)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, rec.Body.String())
	}
}

func TestHandlerStatus(t *testing.T) {
	_, c, handler := setupHTTP(t)
	var st Status
	getJSON(t, handler, "/status", &st)
	if st.Ticks != 2 || st.Deploys != 1 {
		t.Fatalf("/status = %+v, want 2 ticks and 1 deploy", st)
	}
	if st.Version != c.Status().Version {
		t.Fatalf("/status version %d != controller %d", st.Version, c.Status().Version)
	}
	if st.LastDecision == nil || st.LastDecision.Action != ActionSkipped {
		t.Fatalf("/status last decision = %+v", st.LastDecision)
	}
}

// TestHandlerStatusKeys pins the JSON field set of /status — top level,
// wire, scale and federation — so a refactor that claims "fields kept"
// is checked, not trusted. The scenario attaches a scale engine and a
// federation layer and deploys one cluster, which fills every omitempty
// field except recovered_version, split_keys and scale.last_result.
func TestHandlerStatusKeys(t *testing.T) {
	c, m := newFederatedController(t, Options{}, FederationOptions{})
	if err := c.AttachScaleEngine(&fakeScaleEngine{active: 2, capacity: 4},
		ScaleOptions{Min: 1, Max: 4, TargetLoad: 500}); err != nil {
		t.Fatal(err)
	}
	if d := fedTick(c, m, fedWindow(0, 0, 0)); d.Action != ActionDeployed {
		t.Fatalf("setup tick = %s (%s), want deployed", d.Action, d.Reason)
	}

	var status map[string]json.RawMessage
	getJSON(t, c.Handler(), "/status", &status)
	want := map[string]string{
		"": "confirm cooldown_left cooldowns demotions deploys errors failure_recoveries failures " +
			"federation last_decision paused paused_ticks promotions recovered running scale skips " +
			"smoothed_locality split streak ticks version wire wire_bytes_per_tuple " +
			"wire_compression_ratio wire_dict_hit_rate",
		"wire": "bytes_received bytes_sent compressed_frames_received compressed_frames_sent " +
			"control_bytes_received control_bytes_sent control_received control_sent " +
			"dict_bytes_sent dict_entries_received dict_entries_sent dict_frames_received " +
			"dict_frames_sent dict_hits dict_misses encode_nanos flush_close flush_control " +
			"flush_idle flush_size flush_size_hist flush_timer frames_received frames_sent " +
			"lz_attempts raw_bytes_sent tier_bytes_sent tier_tuples_sent tuples_received tuples_sent " +
			"writev_calls writev_frames",
		"scale": "active capacity cooldown_left max min scales streak",
		"federation": "clusters confirm cooldown_left cost_multiplier cross_keys_moved " +
			"cross_streak federated last_cross_keys last_cross_saved local",
	}
	for section, keys := range want {
		obj := status
		if section != "" {
			obj = nil
			if err := json.Unmarshal(status[section], &obj); err != nil {
				t.Fatalf("/status %s: %v", section, err)
			}
		}
		got := make([]string, 0, len(obj))
		for k := range obj {
			got = append(got, k)
		}
		sort.Strings(got)
		if strings.Join(got, " ") != keys {
			t.Errorf("/status %q keys:\n got %s\nwant %s", section, strings.Join(got, " "), keys)
		}
	}
}

func TestHandlerSnapshots(t *testing.T) {
	_, _, handler := setupHTTP(t)
	var snaps []Snapshot
	getJSON(t, handler, "/snapshots", &snaps)
	if len(snaps) != 2 || snaps[0].Seq != 1 || snaps[1].Seq != 2 {
		t.Fatalf("/snapshots = %+v", snaps)
	}
	if snaps[0].WindowTraffic == 0 {
		t.Fatal("/snapshots lost the traffic signal in JSON")
	}
	if snaps[1].WindowLocality != 1.0 {
		t.Fatalf("/snapshots post-deploy locality = %f, want 1.0", snaps[1].WindowLocality)
	}
}

func TestHandlerJournal(t *testing.T) {
	_, _, handler := setupHTTP(t)
	var all []Decision
	getJSON(t, handler, "/journal", &all)
	if len(all) != 2 || all[0].Action != ActionDeployed || all[1].Action != ActionSkipped {
		t.Fatalf("/journal = %+v", all)
	}
	var last []Decision
	getJSON(t, handler, "/journal?n=1", &last)
	if len(last) != 1 || last[0].Seq != 2 {
		t.Fatalf("/journal?n=1 = %+v", last)
	}
}

func TestHandlerTables(t *testing.T) {
	_, _, handler := setupHTTP(t)
	var tables map[string]struct {
		Version uint64            `json:"Version"`
		Assign  map[string]uint32 `json:"Assign"`
	}
	getJSON(t, handler, "/tables", &tables)
	if len(tables) != 2 {
		t.Fatalf("/tables = %+v, want entries for A and B", tables)
	}
	for op, table := range tables {
		if len(table.Assign) == 0 {
			t.Fatalf("/tables[%s] has no assignments", op)
		}
	}
}

// fakeStateReader serves a two-op catalog with one key; versions below
// 5 have been compacted away.
type fakeStateReader struct{}

func (fakeStateReader) LookupState(op, key string, version uint64) (any, bool, error) {
	if version != 0 && version < 5 {
		return nil, false, ErrStateCompacted
	}
	if op != "count" || key != "k1" {
		return nil, false, nil
	}
	return map[string]any{"op": op, "key": key, "version": 7}, true, nil
}

func (fakeStateReader) ScanState(op string, version uint64) (any, error) {
	if version != 0 && version < 5 {
		return nil, ErrStateCompacted
	}
	return map[string]any{"op": op, "keys": 1}, nil
}

func (fakeStateReader) StateOps() []string { return []string{"count", "top"} }

func TestHandlerState(t *testing.T) {
	_, c, handler := setupHTTP(t)

	// Without a reader every /state route is 404.
	for _, path := range []string{"/state", "/state/count", "/state/count/k1"} {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s without reader = %d, want 404", path, rec.Code)
		}
	}

	c.SetStateReader(fakeStateReader{})

	var ops map[string][]string
	getJSON(t, handler, "/state", &ops)
	if len(ops["ops"]) != 2 || ops["ops"][0] != "count" {
		t.Fatalf("/state = %+v", ops)
	}

	var scan map[string]any
	getJSON(t, handler, "/state/count", &scan)
	if scan["op"] != "count" {
		t.Fatalf("/state/count = %+v", scan)
	}

	var key map[string]any
	getJSON(t, handler, "/state/count/k1?version=7", &key)
	if key["key"] != "k1" {
		t.Fatalf("/state/count/k1 = %+v", key)
	}

	// Unknown key at a live version: 404.
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/state/count/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /state/count/nope = %d, want 404", rec.Code)
	}

	// Malformed version: 400.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/state/count/k1?version=x", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("GET /state/count/k1?version=x = %d, want 400", rec.Code)
	}

	// Compacted-away version: 410 Gone, on lookups and scans alike.
	for _, path := range []string{"/state/count/k1?version=2", "/state/count?version=2"} {
		rec = httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusGone {
			t.Fatalf("GET %s = %d, want 410", path, rec.Code)
		}
	}

	// Writes stay rejected.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/state/count/k1", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /state/count/k1 = %d, want 405", rec.Code)
	}
}

func TestHandlerRejectsBadRequests(t *testing.T) {
	_, _, handler := setupHTTP(t)

	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/status", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /status = %d, want 405", rec.Code)
	}

	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/journal?n=bogus", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("GET /journal?n=bogus = %d, want 400", rec.Code)
	}

	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/journal?n=-1", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("GET /journal?n=-1 = %d, want 400", rec.Code)
	}
}
