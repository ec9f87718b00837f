// Package checkpoint is the fault-tolerance subsystem layered on the
// locality-aware engine: periodic asynchronous incremental checkpoints
// of keyed operator state, heartbeat-based failure detection
// (suspect → confirmed), and a locality-preserving recovery path that
// moves only the failed server's keys (repartitioning the retained key
// graph with the survivors' keys pinned in place) and restores their
// state from the latest checkpoint.
//
// The paper's reconfiguration protocol (§3.4, Caneill et al.,
// Middleware'16) migrates state only for *planned* routing changes; this
// package extends the same building blocks — migration buffers, shared
// routing policies, the key-graph partitioner — to unplanned membership
// changes. Following Le Merrer et al. ("(Re)partitioning for
// stream-enabled computation"), a failure triggers an *incremental*
// repartitioning rather than a full reshuffle, and following Nasir et
// al. ("The Power of Both Choices"), recovery-time key movement is
// bounded: exactly the dead server's keys move, nothing else.
package checkpoint

import (
	"sort"
	"sync"

	"github.com/locastream/locastream/internal/engine"
)

// Store persists incremental checkpoints. Each Append carries only the
// keys that changed since the previous checkpoint; Load folds all
// appends into the latest record per (operator, key) — the recovery
// image. Keys promoted to split routing are the one exception to
// last-writer-wins: each replica's partial is an independent record, so
// the image holds one record per (operator, key, replica instance)
// while the key stays split and collapses back to a single record the
// moment a post-demote (non-split) snapshot lands. Implementations must
// be safe for concurrent use.
type Store interface {
	// Append persists one incremental checkpoint.
	Append(recs []engine.KeyState) error
	// Load returns the latest image, sorted by operator, key, then
	// instance — at most one record per (operator, key) except for keys
	// checkpointed while split, which carry one record per replica.
	Load() ([]engine.KeyState, error)
}

// VersionedStore is the optional tiered-store surface. A store
// implementing it stamps every appended checkpoint with a monotonically
// increasing version (the snapshot identity point-in-time reads are
// served against) and compacts incremental history in the background.
// The supervisor detects it dynamically: versions appear on checkpoint
// events and Status, and each checkpoint may trigger a compaction.
type VersionedStore interface {
	Store
	// AppendVersion persists one incremental checkpoint stamped with a
	// fresh version and returns that version.
	AppendVersion(recs []engine.KeyState) (uint64, error)
	// MaybeCompact starts a background compaction when the store's
	// policy says one is due, reporting whether it did. It must not
	// block on the compaction itself.
	MaybeCompact() bool
}

// StoreStatsReporter is implemented by stores that expose storage
// statistics (segment counts, compaction volume, lookup latency); the
// supervisor surfaces them on Status — and with it on the control
// plane's /checkpoints endpoint.
type StoreStatsReporter interface {
	StoreStats() any
}

// ImageKey identifies one keyed record in a checkpoint image.
type ImageKey struct {
	Op  string
	Key string
}

// Image is the merged checkpoint: per (op, key), the latest record per
// instance. Non-split keys always hold exactly one entry. The merge
// rules — last writer wins, split partials kept per replica, stale
// epochs pruned through Replicas, a non-split record superseding every
// partial — are the single source of truth for folding incremental
// checkpoint histories; the tiered statestore reuses them verbatim for
// compaction so a compacted image can never diverge from a replayed one.
type Image map[ImageKey]map[int]engine.KeyState

// Merge folds one batch of incremental records into the image.
func (img Image) Merge(recs []engine.KeyState) {
	for _, r := range recs {
		k := ImageKey{Op: r.Op, Key: r.Key}
		insts := img[k]
		if !r.Split {
			// A non-split record is the key's full state: it supersedes
			// every partial from any earlier split epoch.
			img[k] = map[int]engine.KeyState{r.Inst: r}
			continue
		}
		if insts == nil {
			insts = make(map[int]engine.KeyState, len(r.Replicas))
			img[k] = insts
		}
		// Drop partials (and stale full records) from instances outside
		// the record's replica set — they belong to an older epoch of
		// the split and were merged away at its demotion.
		current := make(map[int]bool, len(r.Replicas))
		for _, inst := range r.Replicas {
			current[inst] = true
		}
		for inst := range insts {
			if !current[inst] {
				delete(insts, inst)
			}
		}
		insts[r.Inst] = r
	}
}

// Sorted returns the image's records sorted by operator, key, then
// instance — the order Store.Load promises.
func (img Image) Sorted() []engine.KeyState {
	out := make([]engine.KeyState, 0, len(img))
	for _, insts := range img {
		for _, r := range insts {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Op != out[j].Op {
			return out[i].Op < out[j].Op
		}
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Inst < out[j].Inst
	})
	return out
}

// MemoryStore keeps the merged checkpoint image in process memory, the
// default store. Safe for concurrent use.
type MemoryStore struct {
	mu   sync.Mutex
	recs Image
}

// Append implements Store.
func (m *MemoryStore) Append(recs []engine.KeyState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.recs == nil {
		m.recs = make(Image)
	}
	m.recs.Merge(recs)
	return nil
}

// Load implements Store.
func (m *MemoryStore) Load() ([]engine.KeyState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recs.Sorted(), nil
}

var _ Store = (*MemoryStore)(nil)
