package checkpoint

import (
	"fmt"
	"sync"
	"time"

	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/metrics"
	"github.com/locastream/locastream/internal/routing"
)

// Phase labels the supervisor's lifecycle events.
type Phase string

const (
	// PhaseCheckpoint: an incremental checkpoint completed.
	PhaseCheckpoint Phase = "checkpoint"
	// PhaseSuspect: a server stopped answering probes.
	PhaseSuspect Phase = "suspect"
	// PhaseFailure: a failure was confirmed; recovery starts.
	PhaseFailure Phase = "failure"
	// PhaseArmed: adopting instances buffer tuples for the dead
	// server's keys; routing is about to switch.
	PhaseArmed Phase = "armed"
	// PhaseRerouted: repair tables are live; orphaned keys route to
	// their adopters.
	PhaseRerouted Phase = "rerouted"
	// PhaseRecovered: checkpointed state is restored and every buffered
	// tuple has been processed on top of it.
	PhaseRecovered Phase = "recovered"
)

// Event is one supervisor lifecycle notification, delivered
// synchronously from inside the supervisor (hooks must not call back
// into it).
type Event struct {
	// Phase classifies the event.
	Phase Phase
	// Time is the supervisor tick time the event belongs to.
	Time time.Time
	// Server is the failed server (-1 for checkpoint events).
	Server int
	// Keys is the record count of a checkpoint, or the reassigned key
	// count of a recovery phase.
	Keys int
	// Bytes is the checkpoint volume (checkpoint events only).
	Bytes uint64
	// Version is the repair configuration version (rerouted/recovered
	// events) or the checkpoint version the store stamped (checkpoint
	// events against a VersionedStore; 0 otherwise).
	Version uint64
}

// Manager is the configuration-bookkeeping surface recovery drives;
// *core.Manager implements it.
type Manager interface {
	// Tables returns the currently deployed routing tables.
	Tables() map[string]*routing.Table
	// ApplyRepair adopts and persists recovery tables, returning their
	// version.
	ApplyRepair(tables map[string]*routing.Table) (uint64, error)
}

// Options tune the supervisor.
type Options struct {
	// CheckpointEvery is the incremental checkpoint interval
	// (default 10s). A checkpoint is also taken at the first tick and
	// right before each recovery (the survivors' freshest state).
	CheckpointEvery time.Duration
	// ProbeEvery is the heartbeat cadence of the background loop
	// started by Start (default 1s). Tick-driven callers set their own
	// cadence by when they call Tick.
	ProbeEvery time.Duration
	// Detector sets the suspect/confirm thresholds.
	Detector DetectorOptions
	// Store persists checkpoints (default: in-memory).
	Store Store
	// Lock, when set, is held around the whole recovery sequence so it
	// serializes with planned reconfigurations (the App passes its
	// reconfiguration mutex).
	Lock sync.Locker
	// OnEvent, when set, receives every lifecycle event synchronously.
	OnEvent func(Event)
	// Meter, when set, receives the fault measurements (a private meter
	// is used otherwise; see Status).
	Meter *metrics.FaultMeter
	// Seed fixes the repair partitioning's tie-breaking.
	Seed int64
	// Now injects the clock used by the background loop (default
	// time.Now). Tick ignores it — the caller's now is authoritative.
	Now func() time.Time
}

func (o *Options) defaults() {
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 10 * time.Second
	}
	if o.ProbeEvery <= 0 {
		o.ProbeEvery = time.Second
	}
	if o.Store == nil {
		o.Store = &MemoryStore{}
	}
	if o.Meter == nil {
		o.Meter = &metrics.FaultMeter{}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	o.Detector.defaults()
}

// RecoveryReport summarizes one completed recovery.
type RecoveryReport struct {
	// Server is the recovered-from dead server.
	Server int `json:"server"`
	// Version is the repair configuration version.
	Version uint64 `json:"version"`
	// MovedKeys counts reassigned keys (exactly the dead server's);
	// RestoredKeys the subset restored from a checkpoint — the
	// difference started fresh (changed after the last checkpoint and
	// lost, the bounded-loss guarantee).
	MovedKeys    int `json:"moved_keys"`
	RestoredKeys int `json:"restored_keys"`
	// MergedPartials counts split-key partials folded into a surviving
	// replica during the recovery.
	MergedPartials int `json:"merged_partials,omitempty"`
	// DetectionLatency is silence-to-confirmation; Duration the
	// arm-to-restored recovery wall time.
	DetectionLatency time.Duration `json:"detection_latency_ns"`
	Duration         time.Duration `json:"duration_ns"`
	// TuplesLost is the engine's cumulative loss counter after the
	// recovery.
	TuplesLost uint64 `json:"tuples_lost"`
}

// Status is the supervisor's public state, served by the control
// plane's /checkpoints endpoint.
type Status struct {
	// Liveness is the detector's per-server verdict.
	Liveness []string `json:"liveness"`
	// LastCheckpoint is the tick time of the latest checkpoint.
	LastCheckpoint time.Time `json:"last_checkpoint"`
	// Fault is the accumulated measurements.
	Fault metrics.FaultStats `json:"fault"`
	// Recoveries lists completed recoveries, oldest first.
	Recoveries []RecoveryReport `json:"recoveries,omitempty"`
	// LastError is the most recent background-tick failure, if any.
	LastError string `json:"last_error,omitempty"`
	// StateVersion is the checkpoint version the store stamped on the
	// latest snapshot (0 when the store is not versioned).
	StateVersion uint64 `json:"state_version,omitempty"`
	// Store is the checkpoint store's own measurements when it reports
	// them (see StoreStatsReporter).
	Store any `json:"store,omitempty"`
}

// Supervisor drives the fault-tolerance loop: on every tick it takes
// the incremental checkpoint when due, probes every server, and — on a
// confirmed failure — runs the recovery sequence (final survivor
// checkpoint, repair plan, arm buffers, switch routing, restore state).
// Time is injected through Tick, so the whole loop runs deterministically
// on a manual clock in tests; Start attaches a background ticker for
// production use. Safe for concurrent use.
type Supervisor struct {
	eng  *engine.Live
	mgr  Manager
	opts Options
	det  *Detector

	mu       sync.Mutex
	lastCkpt time.Time
	haveCkpt bool
	stats    []engine.PairStat
	reports  []RecoveryReport
	lastErr  error
	stateVer uint64 // latest version a VersionedStore stamped (0 otherwise)

	loopMu  sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	running bool
}

// NewSupervisor builds a supervisor over the live engine and the
// configuration manager.
func NewSupervisor(eng *engine.Live, mgr Manager, opts Options) (*Supervisor, error) {
	if eng == nil || mgr == nil {
		return nil, fmt.Errorf("checkpoint: supervisor needs an engine and a manager")
	}
	opts.defaults()
	return &Supervisor{
		eng:  eng,
		mgr:  mgr,
		opts: opts,
		det:  NewDetector(eng, eng.Placement().Servers(), opts.Detector),
	}, nil
}

func (s *Supervisor) emit(e Event) {
	if s.opts.OnEvent != nil {
		s.opts.OnEvent(e)
	}
}

// Tick runs one supervision round at the given time: probe all
// servers, checkpoint if due, recover confirmed failures. Deterministic
// given a deterministic engine — no internal clock reads drive
// decisions.
func (s *Supervisor) Tick(now time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	v := s.det.Probe(now)
	for _, server := range v.Suspected {
		s.emit(Event{Phase: PhaseSuspect, Time: now, Server: server})
	}
	if !s.haveCkpt || now.Sub(s.lastCkpt) >= s.opts.CheckpointEvery {
		// While any probe is failing the membership is in doubt: a
		// statistics peek taken now would silently miss the sketches of
		// whatever just died, so the last trusted window is kept for
		// repair planning and only the state records are refreshed.
		if err := s.checkpointLocked(now, len(v.Failing) == 0); err != nil {
			firstErr = err
		}
	}
	for _, f := range v.Confirmed {
		if err := s.recoverLocked(f, now); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		s.lastErr = firstErr
	}
	return firstErr
}

// Checkpoint takes an incremental checkpoint immediately, regardless of
// the interval, and returns the number of records written.
func (s *Supervisor) Checkpoint(now time.Time) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.opts.Meter.Snapshot().CheckpointKeys
	if err := s.checkpointLocked(now, s.allProbedAlive()); err != nil {
		return 0, err
	}
	return int(s.opts.Meter.Snapshot().CheckpointKeys - before), nil
}

func (s *Supervisor) allProbedAlive() bool {
	for _, st := range s.det.States() {
		if st != Alive {
			return false
		}
	}
	return true
}

// checkpointLocked collects the dirty keys, persists them, and — when
// retainStats is set — retains the current key-pair statistics window,
// the key graph recovery partitions. The retained copy is taken with
// PeekPairStats (no sketch reset), so the optimizer's measurement
// window is untouched; it is the only reason the planner still knows a
// dead server's key correlations after the server (and its sketches)
// are gone — which is also why retention must be skipped the moment a
// server stops answering.
func (s *Supervisor) checkpointLocked(now time.Time, retainStats bool) error {
	start := time.Now()
	recs := s.eng.CheckpointDirty()
	if retainStats {
		s.stats = s.eng.PeekPairStats()
	}
	var bytes uint64
	if len(recs) > 0 {
		// A versioned store stamps the snapshot and gets its compaction
		// trigger; the plain Store interface stays the fallback.
		if vs, ok := s.opts.Store.(VersionedStore); ok {
			v, err := vs.AppendVersion(recs)
			if err != nil {
				return err
			}
			s.stateVer = v
			vs.MaybeCompact()
		} else if err := s.opts.Store.Append(recs); err != nil {
			return err
		}
		for _, r := range recs {
			bytes += uint64(len(r.Op) + len(r.Key) + len(r.Data))
		}
	}
	s.lastCkpt = now
	s.haveCkpt = true
	s.opts.Meter.RecordCheckpoint(len(recs), bytes, time.Since(start))
	s.emit(Event{Phase: PhaseCheckpoint, Time: now, Server: -1, Keys: len(recs), Bytes: bytes, Version: s.stateVer})
	return nil
}

// recoverLocked runs the recovery sequence for one confirmed failure,
// serialized against planned reconfiguration through opts.Lock:
//
//  1. a final incremental checkpoint captures the survivors' freshest
//     state (the dead server's dirty keys are unreachable — their
//     changes since the previous checkpoint are the bounded loss);
//  2. PlanRepair reassigns exactly the dead server's keys, pinning
//     every survivor key in place and re-partitioning the retained key
//     graph so orphans land next to their traffic partners;
//  3. RecoverArm makes every adopting instance buffer tuples for its
//     inherited keys (reusing the §3.4 migration buffers);
//  4. the repair tables are adopted by the manager (persisted, fresh
//     version) and installed into the engine's shared routing policies,
//     with an alive mask so even never-seen keys detour around the dead
//     instances deterministically;
//  5. RecoverRestore replays the checkpointed state into the adopters
//     and returns once every buffered tuple has been processed on top.
func (s *Supervisor) recoverLocked(f Failure, now time.Time) error {
	s.opts.Meter.RecordFailure(f.DetectionLatency())
	s.emit(Event{Phase: PhaseFailure, Time: now, Server: f.Server})
	if s.opts.Lock != nil {
		s.opts.Lock.Lock()
		defer s.opts.Lock.Unlock()
	}
	start := time.Now()
	if err := s.checkpointLocked(now, false); err != nil {
		return fmt.Errorf("checkpoint: pre-recovery checkpoint: %w", err)
	}
	image, err := s.opts.Store.Load()
	if err != nil {
		return fmt.Errorf("checkpoint: load recovery image: %w", err)
	}
	plan, err := PlanRepair(RepairInput{
		Place:       s.eng.Placement(),
		Alive:       s.eng.UsableServers(),
		Tables:      s.mgr.Tables(),
		Stats:       s.stats,
		Checkpoint:  image,
		Splits:      s.eng.SplitSnapshot(),
		OwnerOf:     s.eng.OwnerOf,
		StatefulOps: s.eng.StatefulOps(),
		Seed:        s.opts.Seed,
	})
	if err != nil {
		return err
	}
	if err := s.eng.RecoverArm(plan.Expects); err != nil {
		return fmt.Errorf("checkpoint: arm recovery buffers: %w", err)
	}
	s.emit(Event{Phase: PhaseArmed, Time: now, Server: f.Server, Keys: plan.MovedKeys})
	version, err := s.mgr.ApplyRepair(plan.Tables)
	if err != nil {
		return err
	}
	s.eng.UpdateTables(plan.Tables)
	// Shrink every split's replica set to the survivors (dissolving
	// splits left with fewer than two) before the alive mask recomputes
	// detours, so no tuple 2-choices onto a dead replica.
	s.eng.PruneSplitReplicas()
	s.eng.ApplyAliveRouting()
	s.emit(Event{Phase: PhaseRerouted, Time: now, Server: f.Server, Keys: plan.MovedKeys, Version: version})
	if err := s.eng.RecoverRestore(plan.Records); err != nil {
		return fmt.Errorf("checkpoint: restore state: %w", err)
	}
	report := RecoveryReport{
		Server:           f.Server,
		Version:          version,
		MovedKeys:        plan.MovedKeys,
		RestoredKeys:     plan.RestoredKeys,
		MergedPartials:   plan.MergedPartials,
		DetectionLatency: f.DetectionLatency(),
		Duration:         time.Since(start),
		TuplesLost:       s.eng.TuplesLost(),
	}
	s.reports = append(s.reports, report)
	s.opts.Meter.RecordRecovery(report.Duration, report.MovedKeys, report.RestoredKeys, report.TuplesLost)
	s.emit(Event{Phase: PhaseRecovered, Time: now, Server: f.Server, Keys: plan.MovedKeys, Version: version})
	return nil
}

// Liveness returns the detector's verdict for server s.
func (s *Supervisor) Liveness(server int) Liveness {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.det.Liveness(server)
}

// Recoveries returns the completed recoveries, oldest first.
func (s *Supervisor) Recoveries() []RecoveryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RecoveryReport(nil), s.reports...)
}

// Status returns the supervisor's public state.
func (s *Supervisor) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	states := s.det.States()
	liveness := make([]string, len(states))
	for i, st := range states {
		liveness[i] = st.String()
	}
	st := Status{
		Liveness:       liveness,
		LastCheckpoint: s.lastCkpt,
		Fault:          s.opts.Meter.Snapshot(),
		Recoveries:     append([]RecoveryReport(nil), s.reports...),
		StateVersion:   s.stateVer,
	}
	if r, ok := s.opts.Store.(StoreStatsReporter); ok {
		st.Store = r.StoreStats()
	}
	if s.lastErr != nil {
		st.LastError = s.lastErr.Error()
	}
	return st
}

// Start launches the background supervision loop at the ProbeEvery
// cadence. No-op when already running.
func (s *Supervisor) Start() {
	s.loopMu.Lock()
	defer s.loopMu.Unlock()
	if s.running {
		return
	}
	s.running = true
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func(stop <-chan struct{}, done chan<- struct{}) {
		defer close(done)
		ticker := time.NewTicker(s.opts.ProbeEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				// Background errors are retained for Status; the next
				// tick retries.
				_ = s.Tick(s.opts.Now())
			case <-stop:
				return
			}
		}
	}(s.stop, s.done)
}

// Stop halts the background loop and waits for an in-flight tick.
// Idempotent; Tick remains callable afterwards.
func (s *Supervisor) Stop() {
	s.loopMu.Lock()
	defer s.loopMu.Unlock()
	if !s.running {
		return
	}
	close(s.stop)
	<-s.done
	s.running = false
}
