package locastream

import (
	"fmt"
	"net/http"
	"time"

	"github.com/locastream/locastream/internal/control"
	"github.com/locastream/locastream/internal/core"
	"github.com/locastream/locastream/internal/routing"
)

// Decision is one autopilot journal entry: what the controller did on
// one tick and the signal values that drove it.
type Decision = control.Decision

// DecisionAction classifies a Decision.
type DecisionAction = control.Action

// Decision action values.
const (
	Deployed  = control.ActionDeployed
	Skipped   = control.ActionSkipped
	Cooldown  = control.ActionCooldown
	Recovered = control.ActionRecovered
	Errored   = control.ActionError
	// Promoted and Demoted record hot-key split transitions (see
	// WithKeySplitting).
	Promoted = control.ActionPromoted
	Demoted  = control.ActionDemoted
	// Scaled records an elastic-scaling operation (see WithAutoscale).
	Scaled = control.ActionScaled
	// Federated records a cross-cluster key migration approved by the
	// federation layer (see WithClusters).
	Federated = control.ActionFederated
)

// AutopilotStatus is the autopilot's public state.
type AutopilotStatus = control.Status

// Signals is one autopilot tick's view of the engine.
type Signals = control.Snapshot

// AutopilotOptions tune the closed-loop reconfiguration controller.
// The zero value is usable: tick every 10s, deploy whenever the impact
// estimator finds a candidate worthwhile at cost 1 transfer per migrated
// key, no extra hysteresis.
type AutopilotOptions struct {
	// Period is the measurement/decision interval (default 10s).
	Period time.Duration
	// CostPerKey is the impact estimator's amortization threshold
	// (default 1).
	CostPerKey float64
	// MinGain is the minimum estimated locality gain required to deploy
	// (default 0, disabled).
	MinGain float64
	// Confirm requires this many consecutive worthwhile windows before
	// deploying (default 1).
	Confirm int
	// Cooldown skips this many ticks after each deployment (default 0).
	Cooldown int
	// SmoothingAlpha is the EWMA factor for the smoothed signal series
	// (default 0.3).
	SmoothingAlpha float64
	// History bounds the retained signal snapshots (default 128).
	History int
	// JournalCapacity bounds the in-memory decision journal
	// (default 256).
	JournalCapacity int
	// JournalPath, when set, additionally appends every decision to a
	// JSONL file.
	JournalPath string
	// SkipRecovery disables re-deploying the last persisted
	// configuration at startup.
	SkipRecovery bool

	// ScaleTargetLoad activates the elastic scaler on an App built with
	// WithAutoscale: the desired width is the window's fields-grouped
	// transfer count divided by this per-server target, clamped into
	// the autoscale range (0 keeps the scaler off; App.ScaleTo still
	// works manually).
	ScaleTargetLoad uint64
	// ScaleConfirm requires this many consecutive windows agreeing on a
	// direction before scaling (default 2); ScaleCooldown skips this
	// many ticks after each scale operation (default 1).
	ScaleConfirm  int
	ScaleCooldown int
	// ScaleMaxMoves caps the voluntary key moves of one scale-up's
	// rebalance (0 = unbounded; forced moves off leaving servers are
	// never capped).
	ScaleMaxMoves int

	// FederationConfirm requires this many consecutive windows in which
	// the cross-cluster move set clears the inter-cluster cost gate
	// before it deploys (default 1); FederationCooldown skips the gate
	// for this many ticks after a cross-cluster deployment (default 0).
	// Both apply only on an App built with WithClusters; intra-cluster
	// moves use the ordinary Confirm/Cooldown, tracked per cluster.
	FederationConfirm  int
	FederationCooldown int
}

// Autopilot is the application's autonomous control plane: a periodic
// measure→decide→migrate loop around Reconfigure, with hysteresis, a
// decision journal and a live introspection handler. Create one with
// App.StartAutopilot (background loop) or App.NewAutopilot (manual
// Tick). All methods are safe for concurrent use.
type Autopilot struct {
	ctl  *control.Controller
	sink *control.JSONLSink
}

// NewAutopilot builds the control plane without starting its loop; drive
// it with Tick, or call Start later. Unless SkipRecovery is set, the
// last configuration persisted in the App's ConfigStore is re-deployed
// here, before the first tick. Incompatible with WithAutoReconfigure —
// the autopilot replaces that open-loop ticker.
func (a *App) NewAutopilot(opts AutopilotOptions) (*Autopilot, error) {
	if a.stopTicker != nil {
		return nil, fmt.Errorf("locastream: autopilot cannot run alongside WithAutoReconfigure")
	}
	copts := control.Options{
		Period:          opts.Period,
		CostPerKey:      opts.CostPerKey,
		MinGain:         opts.MinGain,
		Confirm:         opts.Confirm,
		Cooldown:        opts.Cooldown,
		SmoothingAlpha:  opts.SmoothingAlpha,
		History:         opts.History,
		JournalCapacity: opts.JournalCapacity,
		SkipRecovery:    opts.SkipRecovery,
	}
	if a.keySplitting {
		copts.Split = control.SplitOptions{Threshold: a.splitThreshold}
	}
	var sink *control.JSONLSink
	if opts.JournalPath != "" {
		var err error
		if sink, err = control.OpenJSONLFile(opts.JournalPath); err != nil {
			return nil, err
		}
		copts.Sink = sink
	}
	ctl, err := control.New(a.live, lockedManager{app: a}, copts)
	if err != nil {
		if sink != nil {
			_ = sink.Close()
		}
		return nil, err
	}
	if a.keySplitting {
		ctl.AttachSplitEngine(a.live)
	}
	if a.place.Clusters() > 1 && (lockedManager{app: a}).Levels() != nil {
		ctl.AttachFederation(lockedManager{app: a}, control.FederationOptions{
			Clusters: a.place.Clusters(),
			Confirm:  opts.FederationConfirm,
			Cooldown: opts.FederationCooldown,
		})
	}
	if a.stateStore != nil {
		ctl.SetStateReader(stateReader{s: a.stateStore})
	}
	if a.autoMax > 0 && opts.ScaleTargetLoad > 0 {
		err := ctl.AttachScaleEngine(scaleAdapter{app: a, maxMoves: opts.ScaleMaxMoves}, control.ScaleOptions{
			Min:        a.autoMin,
			Max:        a.autoMax,
			TargetLoad: opts.ScaleTargetLoad,
			Confirm:    opts.ScaleConfirm,
			Cooldown:   opts.ScaleCooldown,
		})
		if err != nil {
			if sink != nil {
				_ = sink.Close()
			}
			return nil, fmt.Errorf("locastream: attach elastic scaler: %w", err)
		}
	}
	return &Autopilot{ctl: ctl, sink: sink}, nil
}

// StartAutopilot builds the control plane and starts its periodic loop.
// Stop the autopilot before stopping the App.
func (a *App) StartAutopilot(opts AutopilotOptions) (*Autopilot, error) {
	ap, err := a.NewAutopilot(opts)
	if err != nil {
		return nil, err
	}
	ap.ctl.Start()
	return ap, nil
}

// lockedManager adapts *core.Manager to the controller under the App's
// reconfiguration lock, so autopilot ticks serialize with manual
// Reconfigure calls.
type lockedManager struct{ app *App }

func (m lockedManager) Levels() [][]int {
	m.app.reconfigMu.Lock()
	defer m.app.reconfigMu.Unlock()
	return m.app.mgr.Levels()
}

func (m lockedManager) Candidate() (*core.Candidate, error) {
	m.app.reconfigMu.Lock()
	defer m.app.reconfigMu.Unlock()
	return m.app.mgr.Candidate()
}

func (m lockedManager) DeployCandidate(c *core.Candidate) error {
	m.app.reconfigMu.Lock()
	defer m.app.reconfigMu.Unlock()
	return m.app.mgr.DeployCandidate(c)
}

func (m lockedManager) FederatedCandidate(costPerKey float64) (*core.FederatedCandidate, error) {
	m.app.reconfigMu.Lock()
	defer m.app.reconfigMu.Unlock()
	return m.app.mgr.FederatedCandidate(costPerKey)
}

func (m lockedManager) MergeFederated(fc *core.FederatedCandidate, approved map[int]bool, approveCross bool) *core.Candidate {
	m.app.reconfigMu.Lock()
	defer m.app.reconfigMu.Unlock()
	return m.app.mgr.MergeFederated(fc, approved, approveCross)
}

func (m lockedManager) Recover() (uint64, bool, error) {
	m.app.reconfigMu.Lock()
	defer m.app.reconfigMu.Unlock()
	return m.app.mgr.Recover()
}

func (m lockedManager) Tables() map[string]*routing.Table {
	m.app.reconfigMu.Lock()
	defer m.app.reconfigMu.Unlock()
	return m.app.mgr.Tables()
}

// Tick runs one measure→decide→migrate round synchronously and returns
// the recorded decision. Batch drivers and tests use this instead of the
// background loop.
func (ap *Autopilot) Tick() Decision { return ap.ctl.Tick() }

// Start launches the periodic loop (no-op when already running).
func (ap *Autopilot) Start() { ap.ctl.Start() }

// Stop halts the periodic loop and closes the JSONL journal, if any.
// Idempotent; Tick remains callable afterwards (journal entries are then
// kept in memory only).
func (ap *Autopilot) Stop() error {
	ap.ctl.Stop()
	if ap.sink != nil {
		err := ap.sink.Close()
		ap.sink = nil
		return err
	}
	return nil
}

// Status returns the controller's current state.
func (ap *Autopilot) Status() AutopilotStatus { return ap.ctl.Status() }

// Decisions returns the last n journal entries, oldest first (all
// retained entries when n <= 0).
func (ap *Autopilot) Decisions(n int) []Decision { return ap.ctl.Journal().Recent(n) }

// Signals returns the retained signal snapshots, oldest first.
func (ap *Autopilot) Signals() []Signals { return ap.ctl.Snapshots() }

// Handler returns the live introspection API (GET /status, /snapshots,
// /journal, /tables as JSON), ready to mount on any http.Server.
func (ap *Autopilot) Handler() http.Handler { return ap.ctl.Handler() }
