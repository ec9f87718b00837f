package checkpoint

import (
	"reflect"
	"testing"

	"github.com/locastream/locastream/internal/engine"
)

func rec(op, key string, inst int, data string) engine.KeyState {
	var d []byte
	if data != "" {
		d = []byte(data)
	}
	return engine.KeyState{Op: op, Inst: inst, Key: key, Data: d}
}

// TestMemoryStoreMerge exercises the Store contract: incremental
// appends fold into a last-record-wins image, sorted by operator then
// key.
func TestMemoryStoreMerge(t *testing.T) {
	var store Store = &MemoryStore{}
	if recs, err := store.Load(); err != nil || len(recs) != 0 {
		t.Fatalf("empty store: recs=%v err=%v", recs, err)
	}
	if err := store.Append([]engine.KeyState{
		rec("B", "k1", 1, "b1-old"),
		rec("A", "k2", 0, "a2"),
		rec("A", "k1", 0, "a1"),
	}); err != nil {
		t.Fatal(err)
	}
	// Second increment: k1/B changes, a new key appears, one key gets a
	// nil-data record (state observed but empty).
	if err := store.Append([]engine.KeyState{
		rec("B", "k1", 1, "b1-new"),
		rec("B", "k9", 1, ""),
	}); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	want := []engine.KeyState{
		rec("A", "k1", 0, "a1"),
		rec("A", "k2", 0, "a2"),
		rec("B", "k1", 1, "b1-new"),
		rec("B", "k9", 1, ""),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged image = %+v, want %+v", got, want)
	}
}

func splitRec(op, key string, inst int, data string, replicas ...int) engine.KeyState {
	r := rec(op, key, inst, data)
	r.Split = true
	r.Replicas = replicas
	return r
}

// TestMemoryStoreSplitPartials exercises the split-key exception to
// last-record-wins: while a key is split the image retains one partial
// per replica instance, a new replica set prunes partials from the old
// epoch, and a post-demote (non-split) record collapses the key back to
// a single record.
func TestMemoryStoreSplitPartials(t *testing.T) {
	var store Store = &MemoryStore{}
	if err := store.Append([]engine.KeyState{
		splitRec("B", "hot", 1, "p1", 1, 2),
		splitRec("B", "hot", 2, "p2", 1, 2),
		rec("B", "cold", 0, "c"),
	}); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	want := []engine.KeyState{
		rec("B", "cold", 0, "c"),
		splitRec("B", "hot", 1, "p1", 1, 2),
		splitRec("B", "hot", 2, "p2", 1, 2),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("split image = %+v, want %+v", got, want)
	}

	// A new split epoch over replicas {1, 3}: instance 2's partial was
	// merged away at the old epoch's demotion and must not survive.
	if err := store.Append([]engine.KeyState{
		splitRec("B", "hot", 3, "p3", 1, 3),
	}); err != nil {
		t.Fatal(err)
	}
	got, err = store.Load()
	if err != nil {
		t.Fatal(err)
	}
	want = []engine.KeyState{
		rec("B", "cold", 0, "c"),
		splitRec("B", "hot", 1, "p1", 1, 2),
		splitRec("B", "hot", 3, "p3", 1, 3),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("image after epoch change = %+v, want %+v", got, want)
	}

	// Post-demote snapshot: the owner's full state supersedes every
	// partial.
	if err := store.Append([]engine.KeyState{rec("B", "hot", 1, "full")}); err != nil {
		t.Fatal(err)
	}
	got, err = store.Load()
	if err != nil {
		t.Fatal(err)
	}
	want = []engine.KeyState{
		rec("B", "cold", 0, "c"),
		rec("B", "hot", 1, "full"),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("image after demote = %+v, want %+v", got, want)
	}
}
