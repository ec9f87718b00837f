package locastream

import (
	"fmt"
	"time"

	"github.com/locastream/locastream/internal/checkpoint"
	"github.com/locastream/locastream/internal/statestore"
)

// FaultEvent is one fault-tolerance lifecycle notification.
type FaultEvent = checkpoint.Event

// FaultPhase classifies a FaultEvent.
type FaultPhase = checkpoint.Phase

// Fault-tolerance lifecycle phases.
const (
	CheckpointTaken FaultPhase = checkpoint.PhaseCheckpoint
	ServerSuspected FaultPhase = checkpoint.PhaseSuspect
	ServerFailed    FaultPhase = checkpoint.PhaseFailure
	RecoveryArmed   FaultPhase = checkpoint.PhaseArmed
	RecoveryRouted  FaultPhase = checkpoint.PhaseRerouted
	ServerRecovered FaultPhase = checkpoint.PhaseRecovered
)

// CheckpointStore persists incremental checkpoints of keyed state.
type CheckpointStore = checkpoint.Store

// NewMemoryCheckpointStore returns an in-process checkpoint store.
func NewMemoryCheckpointStore() CheckpointStore { return &checkpoint.MemoryStore{} }

// FaultStatus is the fault-tolerance subsystem's public state.
type FaultStatus = checkpoint.Status

// RecoveryReport summarizes one completed failure recovery.
type RecoveryReport = checkpoint.RecoveryReport

// FaultToleranceOptions tune the fault-tolerance subsystem. The zero
// value is usable: checkpoint every 10s, probe every 1s, suspect after
// 2s of silence, confirm (and recover) after 6s, in-memory checkpoints.
type FaultToleranceOptions struct {
	// CheckpointEvery is the incremental checkpoint interval
	// (default 10s).
	CheckpointEvery time.Duration
	// ProbeEvery is the heartbeat cadence of the background loop
	// (default 1s).
	ProbeEvery time.Duration
	// SuspectAfter and ConfirmAfter are the failure-detection
	// thresholds (defaults 2s and 6s).
	SuspectAfter time.Duration
	ConfirmAfter time.Duration
	// Dir, when set, persists checkpoints to a tiered state store the
	// subsystem opens in this directory (created if needed) and closes
	// on Stop.
	Dir string
	// Store overrides Dir with a custom checkpoint store. When neither
	// is set and the App was built with WithStateStore, checkpoints go
	// to that tiered queryable store (versioned, compacted, readable
	// through QueryState and the /state endpoints); otherwise they stay
	// in process memory.
	Store CheckpointStore
	// OnEvent, when set, receives every lifecycle event synchronously
	// (checkpoint taken, server suspected/failed/recovered). Hooks must
	// not call back into the FaultTolerance.
	OnEvent func(FaultEvent)
	// Autopilot, when set, is notified of failures and recoveries: the
	// controller journals them, pauses optimization while a recovery is
	// in progress, and serves this subsystem's status on /checkpoints.
	Autopilot *Autopilot
}

// FaultTolerance is the application's fault-tolerance subsystem:
// periodic asynchronous incremental checkpoints of keyed state,
// heartbeat failure detection, and locality-preserving recovery that
// moves only a dead server's keys and restores them from the latest
// checkpoint. Create with App.NewFaultTolerance (tick-driven) or
// App.StartFaultTolerance (background loop). All methods are safe for
// concurrent use.
type FaultTolerance struct {
	sup   *checkpoint.Supervisor
	owned *statestore.Store // closed on Stop when we created it
}

// NewFaultTolerance builds the subsystem without starting its loop;
// drive it with Tick (deterministic, manual clock) or call Start later.
func (a *App) NewFaultTolerance(opts FaultToleranceOptions) (*FaultTolerance, error) {
	ft := &FaultTolerance{}
	store := opts.Store
	if store == nil && opts.Dir != "" {
		owned, err := statestore.Open(opts.Dir, statestore.Options{})
		if err != nil {
			return nil, fmt.Errorf("locastream: open checkpoint store: %w", err)
		}
		store = owned
		ft.owned = owned
	}
	if store == nil && a.stateStore != nil {
		// WithStateStore: checkpoints land in the tiered queryable store,
		// versioned and compacted; the App owns its lifetime.
		store = a.stateStore
	}
	onEvent := opts.OnEvent
	if ap := opts.Autopilot; ap != nil {
		user := onEvent
		onEvent = func(e FaultEvent) {
			switch e.Phase {
			case ServerFailed:
				ap.ctl.NoteFailure(e.Server, "heartbeat failure confirmed")
			case ServerRecovered:
				ap.ctl.NoteRecovery(e.Server, e.Version,
					fmt.Sprintf("%d keys reassigned, repair configuration v%d", e.Keys, e.Version))
			}
			if user != nil {
				user(e)
			}
		}
	}
	sup, err := checkpoint.NewSupervisor(a.live, a.mgr, checkpoint.Options{
		CheckpointEvery: opts.CheckpointEvery,
		ProbeEvery:      opts.ProbeEvery,
		Detector: checkpoint.DetectorOptions{
			SuspectAfter: opts.SuspectAfter,
			ConfirmAfter: opts.ConfirmAfter,
		},
		Store:   store,
		Lock:    &a.reconfigMu,
		OnEvent: onEvent,
	})
	if err != nil {
		if ft.owned != nil {
			_ = ft.owned.Close()
		}
		return nil, err
	}
	ft.sup = sup
	if opts.Autopilot != nil {
		opts.Autopilot.ctl.SetFaultInfo(func() interface{} { return sup.Status() })
	}
	// ScaleTo drains keyed state through this subsystem before a
	// scale-down (last one attached wins).
	a.ftMu.Lock()
	a.faultTol = ft
	a.ftMu.Unlock()
	return ft, nil
}

// StartFaultTolerance builds the subsystem and starts its background
// loop. Stop it before stopping the App.
func (a *App) StartFaultTolerance(opts FaultToleranceOptions) (*FaultTolerance, error) {
	ft, err := a.NewFaultTolerance(opts)
	if err != nil {
		return nil, err
	}
	ft.sup.Start()
	return ft, nil
}

// Tick runs one supervision round at the given time: checkpoint when
// due, probe every server, recover confirmed failures. Deterministic
// drivers (tests, simulations) advance now manually.
func (ft *FaultTolerance) Tick(now time.Time) error { return ft.sup.Tick(now) }

// Checkpoint takes an incremental checkpoint immediately and returns
// the number of records written.
func (ft *FaultTolerance) Checkpoint(now time.Time) (int, error) { return ft.sup.Checkpoint(now) }

// Status returns the subsystem's public state (also served on the
// autopilot's /checkpoints endpoint when attached).
func (ft *FaultTolerance) Status() FaultStatus { return ft.sup.Status() }

// Recoveries returns the completed failure recoveries, oldest first.
func (ft *FaultTolerance) Recoveries() []RecoveryReport { return ft.sup.Recoveries() }

// Start launches the background loop (no-op when already running).
func (ft *FaultTolerance) Start() { ft.sup.Start() }

// Stop halts the background loop and closes the checkpoint store when
// the subsystem opened one (checkpoints taken after that fail to
// persist — create the subsystem with an explicit Store to manage the
// store's lifetime yourself). Idempotent.
func (ft *FaultTolerance) Stop() error {
	ft.sup.Stop()
	if ft.owned != nil {
		err := ft.owned.Close()
		ft.owned = nil
		return err
	}
	return nil
}

// KillServer simulates the crash of one server: every operator instance
// placed there stops immediately, in-flight tuples queued on it are
// counted lost, and heartbeat probes start failing so an attached
// FaultTolerance detects and recovers the failure. Idempotent; the
// stream keeps flowing on the survivors.
func (a *App) KillServer(server int) error { return a.live.KillServer(server) }

// ServerAlive reports whether the server has not been killed.
func (a *App) ServerAlive(server int) bool { return a.live.ServerAlive(server) }

// TuplesLost returns the cumulative count of tuples lost to server
// failures (queued on a killed server, routed to one before recovery,
// or dropped by a bounded recovery buffer).
func (a *App) TuplesLost() uint64 { return a.live.TuplesLost() }
