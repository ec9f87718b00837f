package control

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Action classifies a controller decision.
type Action string

const (
	// ActionDeployed records a reconfiguration that went live.
	ActionDeployed Action = "deployed"
	// ActionSkipped records a candidate that was evaluated and rejected
	// (cost gate, min-gain threshold, or pending confirmation).
	ActionSkipped Action = "skipped"
	// ActionCooldown records a tick spent inside the post-migration
	// cooldown, where no candidate is even computed.
	ActionCooldown Action = "cooldown"
	// ActionRecovered records the re-deployment of a persisted
	// configuration at controller construction.
	ActionRecovered Action = "recovered"
	// ActionError records a failed measurement or deployment.
	ActionError Action = "error"
	// ActionFailed records a confirmed server failure reported by the
	// fault-tolerance subsystem; optimization pauses until the matching
	// recovery entry.
	ActionFailed Action = "failed"
	// ActionPaused records a tick skipped because a failure recovery is
	// in progress: the statistics window straddles the failure and any
	// candidate computed from it would chase a topology that no longer
	// exists.
	ActionPaused Action = "paused"
	// ActionPromoted records a hot key promoted to split (2-choice
	// replicated) routing by the hot-key splitter.
	ActionPromoted Action = "promoted"
	// ActionDemoted records a cooled-down key demoted back to
	// single-owner routing, its partials merged into the owner.
	ActionDemoted Action = "demoted"
	// ActionScaled records an elastic-scaling operation: servers added
	// to or removed from the cluster, with a minimal-movement
	// repartition migrating the affected keys.
	ActionScaled Action = "scaled"
	// ActionFederated records a cross-cluster key migration approved by
	// the federation layer: the inter-cluster tuple transfers it saves
	// per period cleared the inter-cluster cost gate (100× a same-rack
	// move by default). SavedTuplesPerPeriod and KeysToMigrate carry the
	// gate's two sides; intra-cluster rebalances stay ordinary
	// "deployed" entries.
	ActionFederated Action = "federated"
)

// Decision is one journal entry: what the controller did on one tick and
// the signal values that drove it. The journal is the control plane's
// flight recorder — every deploy AND every skip is recorded with enough
// context to reconstruct why.
type Decision struct {
	// Seq is the tick number the decision belongs to (0 for the
	// recovery entry).
	Seq int `json:"seq"`
	// Time is the decision time.
	Time time.Time `json:"time"`
	// Action is the outcome class.
	Action Action `json:"action"`
	// Reason is a human-readable explanation.
	Reason string `json:"reason"`
	// Version is the configuration version live after this decision.
	Version uint64 `json:"version"`
	// Streak is the consecutive-worthwhile-candidate count after this
	// tick (hysteresis confirmation state).
	Streak int `json:"streak"`

	// CurrentLocality and CandidateLocality are the impact estimator's
	// scores for keeping vs deploying, over the tick's statistics
	// window.
	CurrentLocality   float64 `json:"current_locality"`
	CandidateLocality float64 `json:"candidate_locality"`
	// SavedTuplesPerPeriod is the estimated tuple transfers per window
	// the candidate would move off the network.
	SavedTuplesPerPeriod float64 `json:"saved_tuples_per_period"`
	// KeysToMigrate is the migration workload of the candidate.
	KeysToMigrate int `json:"keys_to_migrate"`

	// Signals is the engine snapshot the decision was made on.
	Signals Snapshot `json:"signals"`

	// Err carries the error text for ActionError entries.
	Err string `json:"error,omitempty"`
}

// Sink receives every journal entry as it is recorded; implementations
// must be safe for concurrent use.
type Sink interface {
	Append(Decision) error
}

// Journal is the controller's append-only decision log: a bounded
// in-memory ring for introspection plus an optional durable sink (e.g. a
// JSONL file). Safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	buf     []Decision
	start   int
	n       int
	total   int
	sink    Sink
	sinkErr error
}

// NewJournal returns a journal retaining the last capacity decisions in
// memory and forwarding every decision to sink (nil for none).
func NewJournal(capacity int, sink Sink) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{buf: make([]Decision, capacity), sink: sink}
}

// Record appends one decision. Sink failures are retained (see SinkErr)
// but never block the control loop.
func (j *Journal) Record(d Decision) {
	j.mu.Lock()
	if j.n < len(j.buf) {
		j.buf[(j.start+j.n)%len(j.buf)] = d
		j.n++
	} else {
		j.buf[j.start] = d
		j.start = (j.start + 1) % len(j.buf)
	}
	j.total++
	sink := j.sink
	j.mu.Unlock()
	if sink != nil {
		if err := sink.Append(d); err != nil {
			j.mu.Lock()
			j.sinkErr = err
			j.mu.Unlock()
		}
	}
}

// All returns the retained decisions, oldest first.
func (j *Journal) All() []Decision {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Decision, 0, j.n)
	for i := 0; i < j.n; i++ {
		out = append(out, j.buf[(j.start+i)%len(j.buf)])
	}
	return out
}

// Recent returns the last n retained decisions, oldest first (all of
// them when n <= 0 or n exceeds the retained count).
func (j *Journal) Recent(n int) []Decision {
	all := j.All()
	if n <= 0 || n >= len(all) {
		return all
	}
	return all[len(all)-n:]
}

// Total returns the number of decisions ever recorded (>= len(All())).
func (j *Journal) Total() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// SinkErr returns the most recent sink failure, if any.
func (j *Journal) SinkErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sinkErr
}

// JSONLSink writes each decision as one JSON line. Safe for concurrent
// use.
type JSONLSink struct {
	mu sync.Mutex
	w  io.Writer
	c  io.Closer
}

// NewJSONLSink writes decisions to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// OpenJSONLFile appends decisions to the file at path, creating it if
// needed.
func OpenJSONLFile(path string) (*JSONLSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("control: open journal: %w", err)
	}
	return &JSONLSink{w: f, c: f}, nil
}

// Append implements Sink.
func (s *JSONLSink) Append(d Decision) error {
	data, err := json.Marshal(d)
	if err != nil {
		return fmt.Errorf("control: encode decision: %w", err)
	}
	data = append(data, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(data); err != nil {
		return fmt.Errorf("control: write journal: %w", err)
	}
	return nil
}

// Close closes the underlying file when the sink owns one.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c == nil {
		return nil
	}
	err := s.c.Close()
	s.c = nil
	return err
}
