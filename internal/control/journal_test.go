package control

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestJournalRingEviction(t *testing.T) {
	j := NewJournal(3, nil)
	for i := 1; i <= 5; i++ {
		j.Record(Decision{Seq: i, Action: ActionSkipped})
	}
	all := j.All()
	if len(all) != 3 || all[0].Seq != 3 || all[2].Seq != 5 {
		t.Fatalf("All() = %+v, want seqs 3..5", all)
	}
	if j.Total() != 5 {
		t.Fatalf("Total() = %d, want 5", j.Total())
	}
	if got := j.Recent(2); len(got) != 2 || got[0].Seq != 4 {
		t.Fatalf("Recent(2) = %+v", got)
	}
	if got := j.Recent(0); len(got) != 3 {
		t.Fatalf("Recent(0) = %+v, want everything retained", got)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	sink, err := OpenJSONLFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(8, sink)
	when := time.Unix(1700000000, 0).UTC()
	j.Record(Decision{Seq: 1, Time: when, Action: ActionDeployed, Version: 1,
		CandidateLocality: 1, KeysToMigrate: 7, Signals: Snapshot{Seq: 1, WindowTraffic: 42}})
	j.Record(Decision{Seq: 2, Time: when, Action: ActionSkipped, Reason: "not worthwhile"})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.SinkErr(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []Decision
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, d)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("journal file holds %d lines, want 2", len(lines))
	}
	if lines[0].Action != ActionDeployed || lines[0].KeysToMigrate != 7 ||
		lines[0].Signals.WindowTraffic != 42 || !lines[0].Time.Equal(when) {
		t.Fatalf("line 0 = %+v", lines[0])
	}
	if lines[1].Action != ActionSkipped || lines[1].Reason != "not worthwhile" {
		t.Fatalf("line 1 = %+v", lines[1])
	}
}

// TestJournalDecodesRetiredActions: Action is a string, so a JSONL file
// written before the adaptive flush tuner was removed still decodes,
// "retuned" lines included.
func TestJournalDecodesRetiredActions(t *testing.T) {
	line := `{"seq":7,"time":"2023-11-14T22:13:20Z","action":"retuned","reason":"widened flush policy: 65536B/1ms → 131072B/2ms (in-flight 5000 vs high 4096 / low 256)","version":3,"streak":0,"current_locality":0,"candidate_locality":0,"saved_tuples_per_period":0,"keys_to_migrate":0,"signals":{"seq":7}}`
	var d Decision
	if err := json.Unmarshal([]byte(line), &d); err != nil {
		t.Fatalf("old journal line no longer decodes: %v", err)
	}
	if d.Action != "retuned" || d.Seq != 7 || d.Version != 3 || d.Signals.Seq != 7 ||
		!strings.HasPrefix(d.Reason, "widened flush policy") {
		t.Fatalf("decoded %+v", d)
	}
}

func TestJSONLSinkAppendsAcrossReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	for i := 0; i < 2; i++ {
		sink, err := OpenJSONLFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Append(Decision{Seq: i}); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, b := range data {
		if b == '\n' {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("file holds %d lines after reopen, want 2", count)
	}
}

type failingSink struct{ err error }

func (s failingSink) Append(Decision) error { return s.err }

func TestJournalRetainsSinkError(t *testing.T) {
	boom := errors.New("disk full")
	j := NewJournal(4, failingSink{err: boom})
	j.Record(Decision{Seq: 1, Action: ActionSkipped})
	if !errors.Is(j.SinkErr(), boom) {
		t.Fatalf("SinkErr() = %v, want %v", j.SinkErr(), boom)
	}
	// The in-memory ring still records despite the failing sink.
	if len(j.All()) != 1 {
		t.Fatalf("All() = %+v", j.All())
	}
}

func TestJournalConcurrentRecord(t *testing.T) {
	j := NewJournal(16, NewJSONLSink(discard{}))
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				j.Record(Decision{Seq: g*100 + i, Action: ActionSkipped,
					Reason: fmt.Sprintf("g%d", g)})
				j.All()
				j.Recent(3)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if j.Total() != 200 {
		t.Fatalf("Total() = %d, want 200", j.Total())
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
