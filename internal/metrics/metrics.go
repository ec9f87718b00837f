// Package metrics defines the measurements reported by the paper's
// evaluation: stream locality (fraction of tuples passed in memory), load
// balance (most-loaded instance vs average), and throughput series.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Locality tiers, cheapest first: the class of a transfer between two
// servers (cluster.Placement.Tier), the index of Traffic.Record and of
// the wire meter's per-tier counters.
const (
	// TierServer: both instances on the same server (in-process hand-off).
	TierServer = iota
	// TierRack: different servers sharing a rack (one ToR switch hop).
	TierRack
	// TierCluster: different racks inside one cluster (aggregation layer).
	TierCluster
	// TierRegion: different clusters (the metered cross-region link).
	TierRegion
	// NumTiers is the number of locality tiers.
	NumTiers
)

// Traffic accumulates local/remote tuple counts and byte volumes for one
// stream edge. The zero value is ready to use. Not safe for concurrent
// use: each live-engine executor records into its own per-edge copy
// under an uncontended per-edge lock, and readers fold the copies
// together with Add on demand (Live.Traffic / Live.FieldsTraffic).
type Traffic struct {
	LocalTuples  uint64
	RemoteTuples uint64
	LocalBytes   uint64
	RemoteBytes  uint64
	// RackTuples/RackBytes count the subset of remote transfers that
	// stayed within the sender's rack (hierarchical locality extension);
	// they are included in RemoteTuples/RemoteBytes.
	RackTuples uint64
	RackBytes  uint64
	// ClusterTuples/ClusterBytes count the subset of remote transfers
	// that crossed racks but stayed within the sender's cluster; they
	// are included in RemoteTuples/RemoteBytes and disjoint from
	// RackTuples/RackBytes. Remote minus rack minus cluster is the
	// cross-cluster volume (see InterClusterTuples).
	ClusterTuples uint64
	ClusterBytes  uint64
}

// Record adds one transfer of size bytes classified by locality tier:
// TierServer transfers are local, everything else is remote, and the
// rack and cluster counters single out the remote transfers that stayed
// inside the sender's rack or cluster. Tiers outside the enum count as
// TierRegion, the conservative class.
func (t *Traffic) Record(tier, size int) {
	if tier == TierServer {
		t.LocalTuples++
		t.LocalBytes += uint64(size)
		return
	}
	t.RemoteTuples++
	t.RemoteBytes += uint64(size)
	switch tier {
	case TierRack:
		t.RackTuples++
		t.RackBytes += uint64(size)
	case TierCluster:
		t.ClusterTuples++
		t.ClusterBytes += uint64(size)
	}
}

// Add folds other into t.
func (t *Traffic) Add(other Traffic) {
	t.LocalTuples += other.LocalTuples
	t.RemoteTuples += other.RemoteTuples
	t.LocalBytes += other.LocalBytes
	t.RemoteBytes += other.RemoteBytes
	t.RackTuples += other.RackTuples
	t.RackBytes += other.RackBytes
	t.ClusterTuples += other.ClusterTuples
	t.ClusterBytes += other.ClusterBytes
}

// Total returns the number of transfers recorded.
func (t Traffic) Total() uint64 { return t.LocalTuples + t.RemoteTuples }

// Locality returns the fraction of transfers that stayed in memory
// (0 when nothing was recorded).
func (t Traffic) Locality() float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	return float64(t.LocalTuples) / float64(total)
}

// RackLocality returns the fraction of transfers that stayed on one
// server or inside one rack.
func (t Traffic) RackLocality() float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	return float64(t.LocalTuples+t.RackTuples) / float64(total)
}

// ClusterLocality returns the fraction of transfers that stayed inside
// one cluster (on one server, inside one rack, or across racks of the
// same cluster).
func (t Traffic) ClusterLocality() float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	return float64(t.LocalTuples+t.RackTuples+t.ClusterTuples) / float64(total)
}

// InterClusterTuples returns the number of transfers that crossed the
// inter-cluster link.
func (t Traffic) InterClusterTuples() uint64 {
	return t.RemoteTuples - t.RackTuples - t.ClusterTuples
}

// InterClusterBytes returns the byte volume that crossed the
// inter-cluster link.
func (t Traffic) InterClusterBytes() uint64 {
	return t.RemoteBytes - t.RackBytes - t.ClusterBytes
}

// String formats the traffic for experiment logs.
func (t Traffic) String() string {
	return fmt.Sprintf("local=%d remote=%d locality=%.3f", t.LocalTuples, t.RemoteTuples, t.Locality())
}

// Imbalance returns max(loads)/avg(loads), the paper's load-balance
// measure (Fig. 11b); 1.0 is perfect balance. Zero-total or empty loads
// report 1.0.
func Imbalance(loads []uint64) float64 {
	if len(loads) == 0 {
		return 1
	}
	var total, max uint64
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	avg := float64(total) / float64(len(loads))
	return float64(max) / avg
}

// Series is a labelled sequence of (x, y) measurements, the unit the
// experiment harness prints for every figure.
type Series struct {
	Label  string
	Points []Point
}

// Point is one measurement.
type Point struct {
	X float64
	Y float64
}

// Append adds a point.
func (s *Series) Append(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Sorted returns the points ordered by X.
func (s Series) Sorted() []Point {
	out := append([]Point(nil), s.Points...)
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	return out
}

// EWMA is an exponentially weighted moving average with smoothing factor
// Alpha in (0, 1]: higher alpha weighs recent observations more. The
// first observation initializes the average. The zero value (Alpha 0)
// behaves as Alpha = 1, i.e. no smoothing. Not safe for concurrent use.
//
// The control plane smooths its locality and imbalance signals with an
// EWMA before acting on them, so a single skewed statistics window does
// not trigger (or suppress) a reconfiguration on its own.
type EWMA struct {
	// Alpha is the smoothing factor; values outside (0, 1] are treated
	// as 1.
	Alpha float64

	value float64
	ready bool
}

// Observe folds one sample into the average and returns the new value.
func (e *EWMA) Observe(x float64) float64 {
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = 1
	}
	if !e.ready {
		e.value = x
		e.ready = true
		return e.value
	}
	e.value = a*x + (1-a)*e.value
	return e.value
}

// Value returns the current average (0 before the first observation).
func (e *EWMA) Value() float64 { return e.value }

// Ready reports whether at least one sample has been observed.
func (e *EWMA) Ready() bool { return e.ready }

// FaultStats is one snapshot of the fault-tolerance measurements.
type FaultStats struct {
	// Checkpoints, CheckpointKeys and CheckpointBytes count completed
	// checkpoints and their cumulative volume (incremental: only dirty
	// keys are written).
	Checkpoints     int    `json:"checkpoints"`
	CheckpointKeys  uint64 `json:"checkpoint_keys"`
	CheckpointBytes uint64 `json:"checkpoint_bytes"`
	// LastCheckpointDuration and TotalCheckpointDuration measure the
	// wall-clock cost of checkpointing (the stream keeps flowing
	// meanwhile; this is supervisor-side time, not stream stall).
	LastCheckpointDuration  time.Duration `json:"last_checkpoint_duration_ns"`
	TotalCheckpointDuration time.Duration `json:"total_checkpoint_duration_ns"`

	// Failures counts confirmed server failures;
	// LastDetectionLatency is silence-to-confirmation for the most
	// recent one.
	Failures             int           `json:"failures"`
	LastDetectionLatency time.Duration `json:"last_detection_latency_ns"`

	// Recoveries counts completed recoveries; LastRecoveryDuration is
	// the arm-to-restored wall time of the most recent one;
	// KeysRecovered and KeysRestored are cumulative reassigned keys and
	// the subset restored from a checkpoint; TuplesLost is the engine's
	// cumulative loss counter at the last recovery.
	Recoveries           int           `json:"recoveries"`
	LastRecoveryDuration time.Duration `json:"last_recovery_duration_ns"`
	KeysRecovered        uint64        `json:"keys_recovered"`
	KeysRestored         uint64        `json:"keys_restored"`
	TuplesLost           uint64        `json:"tuples_lost"`
}

// FaultMeter accumulates the fault-tolerance subsystem's measurements:
// checkpoint volume and duration, failure-detection latency, recovery
// time and tuple loss. Safe for concurrent use.
type FaultMeter struct {
	mu sync.Mutex
	st FaultStats
}

// RecordCheckpoint folds one completed checkpoint in.
func (m *FaultMeter) RecordCheckpoint(keys int, bytes uint64, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.st.Checkpoints++
	m.st.CheckpointKeys += uint64(keys)
	m.st.CheckpointBytes += bytes
	m.st.LastCheckpointDuration = d
	m.st.TotalCheckpointDuration += d
}

// RecordFailure folds one confirmed failure in.
func (m *FaultMeter) RecordFailure(detectionLatency time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.st.Failures++
	m.st.LastDetectionLatency = detectionLatency
}

// RecordRecovery folds one completed recovery in.
func (m *FaultMeter) RecordRecovery(d time.Duration, keysMoved, keysRestored int, tuplesLost uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.st.Recoveries++
	m.st.LastRecoveryDuration = d
	m.st.KeysRecovered += uint64(keysMoved)
	m.st.KeysRestored += uint64(keysRestored)
	m.st.TuplesLost = tuplesLost
}

// Snapshot returns the accumulated measurements.
func (m *FaultMeter) Snapshot() FaultStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st
}

// ThroughputMeter counts processed tuples over externally supplied time
// windows; used by the live engine. Safe for concurrent use.
type ThroughputMeter struct {
	mu    sync.Mutex
	count uint64
}

// Inc records n processed tuples.
func (m *ThroughputMeter) Inc(n uint64) {
	m.mu.Lock()
	m.count += n
	m.mu.Unlock()
}

// Snapshot returns the count accumulated since the previous Snapshot and
// resets it.
func (m *ThroughputMeter) Snapshot() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.count
	m.count = 0
	return c
}
