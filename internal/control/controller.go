// Package control is the autonomous control plane for a locality-aware
// streaming application: a closed measure→decide→migrate loop around the
// manager of §3.3–3.4.
//
// The paper's protocol is inherently periodic — the manager repeatedly
// collects pair statistics, repartitions the key graph and redeploys
// routing tables online — but the decision of *when* to redeploy is left
// to the operator. The Controller closes that loop: on every tick it
// snapshots the engine's cheap operational signals (locality, load
// imbalance, in-flight depth, wire drops), smooths them with an EWMA, and
// evaluates a candidate configuration against three hysteresis rules
// layered on the impact estimator's cost gate:
//
//   - min-gain threshold: the estimated locality gain must exceed a
//     configurable floor, so noise-level improvements never migrate
//     state;
//   - confirmation: the candidate must look worthwhile on K consecutive
//     statistics windows before it deploys, so one skewed window — an
//     "ephemeral correlation" in the paper's terms — cannot trigger a
//     migration;
//   - cooldown: after a deployment the controller holds off for a
//     configurable number of ticks, letting the stream re-stabilize
//     before it is measured again.
//
// Every decision — deployed, skipped, cooldown or error — is recorded in
// an append-only Journal together with the signal values that drove it,
// and the whole loop is observable live through the Introspect HTTP
// handler.
package control

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/locastream/locastream/internal/core"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/metrics"
	"github.com/locastream/locastream/internal/routing"
)

// Engine is the live-engine surface the controller measures.
type Engine interface {
	StatsSnapshot() engine.Stats
}

// Manager is the reconfiguration surface the controller drives;
// *core.Manager implements it.
type Manager interface {
	// Candidate computes a candidate configuration from the current
	// statistics window (resetting the window).
	Candidate() (*core.Candidate, error)
	// DeployCandidate persists and rolls out a candidate.
	DeployCandidate(*core.Candidate) error
	// Recover re-deploys the last persisted configuration.
	Recover() (version uint64, ok bool, err error)
	// Tables returns the currently deployed routing tables.
	Tables() map[string]*routing.Table
}

// Options tune the controller.
type Options struct {
	// Period is the tick interval for Start (default 10s). Tick can
	// always be called manually regardless.
	Period time.Duration
	// CostPerKey is the impact estimator's amortization threshold:
	// deploying must save at least this many tuple transfers per
	// migrated key per statistics period (default 1).
	CostPerKey float64
	// MinGain is the minimum estimated locality gain
	// (candidate − current, in [0,1]) required to deploy (default 0,
	// disabled).
	MinGain float64
	// Confirm is the number of consecutive worthwhile candidates
	// required before deploying (default 1 — deploy on first).
	Confirm int
	// Cooldown is the number of ticks to skip after a deployment
	// (default 0, no cooldown).
	Cooldown int
	// SmoothingAlpha is the EWMA factor for the locality and imbalance
	// series (default 0.3).
	SmoothingAlpha float64
	// History bounds the snapshot ring (default 128).
	History int
	// JournalCapacity bounds the in-memory decision ring (default 256).
	JournalCapacity int
	// Sink, when set, additionally receives every decision (e.g. a
	// JSONL file).
	Sink Sink
	// Clock injects time; nil selects the system clock.
	Clock Clock
	// SkipRecovery disables the constructor's re-deployment of the last
	// persisted configuration.
	SkipRecovery bool
	// Split tunes the hot-key splitter; it runs once a split engine is
	// attached (AttachSplitEngine).
	Split SplitOptions
}

func (o *Options) defaults() {
	if o.Period <= 0 {
		o.Period = 10 * time.Second
	}
	if o.CostPerKey <= 0 {
		o.CostPerKey = 1
	}
	if o.Confirm < 1 {
		o.Confirm = 1
	}
	if o.Cooldown < 0 {
		o.Cooldown = 0
	}
	if o.SmoothingAlpha <= 0 || o.SmoothingAlpha > 1 {
		o.SmoothingAlpha = 0.3
	}
	if o.History <= 0 {
		o.History = 128
	}
	if o.JournalCapacity <= 0 {
		o.JournalCapacity = 256
	}
	if o.Clock == nil {
		o.Clock = SystemClock()
	}
}

// Status is the controller's public state, served on /status.
type Status struct {
	Running          bool      `json:"running"`
	Ticks            int       `json:"ticks"`
	Deploys          int       `json:"deploys"`
	Skips            int       `json:"skips"`
	Cooldowns        int       `json:"cooldowns"`
	Errors           int       `json:"errors"`
	Version          uint64    `json:"version"`
	Streak           int       `json:"streak"`
	Confirm          int       `json:"confirm"`
	CooldownLeft     int       `json:"cooldown_left"`
	Recovered        bool      `json:"recovered"`
	RecoveredVersion uint64    `json:"recovered_version,omitempty"`
	SmoothedLocality float64   `json:"smoothed_locality"`
	LastDecision     *Decision `json:"last_decision,omitempty"`

	// Wire is the transport's cumulative frame/byte/compression counters
	// at status time (all-zero without a TCP fabric); the three derived
	// figures are the ones operators actually watch — how much the
	// dictionary+LZ layer shrinks cross-server traffic.
	Wire                 metrics.WireStats `json:"wire"`
	WireCompressionRatio float64           `json:"wire_compression_ratio"`
	WireDictHitRate      float64           `json:"wire_dict_hit_rate"`
	WireBytesPerTuple    float64           `json:"wire_bytes_per_tuple"`

	// Split mirrors the engine's hot-key splitting counters (all zero
	// when splitting is disabled); SplitKeys lists the currently
	// promoted keys with their replica sets; Promotions and Demotions
	// count the splitter's journaled transitions.
	Split      engine.SplitStats     `json:"split"`
	SplitKeys  []engine.SplitKeyInfo `json:"split_keys,omitempty"`
	Promotions int                   `json:"promotions"`
	Demotions  int                   `json:"demotions"`

	// Scale reports the elastic-scaling state (nil when no scale engine
	// is attached); also served alone on /scale.
	Scale *ScaleStatus `json:"scale,omitempty"`

	// Federation reports the hierarchical control-plane state (nil when
	// no federation layer is attached): the per-cluster loops and the
	// cross-cluster gate.
	Federation *FederationStatus `json:"federation,omitempty"`

	// Paused reports that a server failure was observed and optimization
	// is held until the fault-tolerance subsystem reports recovery.
	Paused bool `json:"paused"`
	// Failures and FailureRecoveries count the NoteFailure/NoteRecovery
	// notifications received from the fault-tolerance subsystem;
	// PausedTicks counts ticks skipped while paused.
	Failures          int `json:"failures"`
	FailureRecoveries int `json:"failure_recoveries"`
	PausedTicks       int `json:"paused_ticks"`
}

// Controller owns the closed reconfiguration loop. Create with New; all
// exported methods are safe for concurrent use.
type Controller struct {
	eng     Engine
	mgr     Manager
	opts    Options
	journal *Journal

	mu           sync.Mutex
	sig          *signals
	ring         *snapRing
	version      uint64
	gate         gate
	deploys      int
	skips        int
	cooldowns    int
	errors       int
	recovered    bool
	recoveredVer uint64
	paused       bool
	failures     int
	frecoveries  int
	pausedTicks  int
	faultInfo    func() interface{}
	stateRd      StateReader
	splitter     *splitter
	promotions   int
	demotions    int
	scaler       *Scaler
	scaleEng     ScaleEngine
	scales       int
	lastScale    *ScaleResult
	fedr         *federator

	loopMu  sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	running bool
}

// New validates the options, recovers the last persisted configuration
// (unless SkipRecovery) and returns a controller ready to Tick or Start.
func New(eng Engine, mgr Manager, opts Options) (*Controller, error) {
	if eng == nil || mgr == nil {
		return nil, errors.New("control: controller needs an engine and a manager")
	}
	opts.defaults()
	c := &Controller{
		eng:     eng,
		mgr:     mgr,
		opts:    opts,
		journal: NewJournal(opts.JournalCapacity, opts.Sink),
		gate:    gate{confirm: opts.Confirm, cooldown: opts.Cooldown},
		sig:     newSignals(opts.SmoothingAlpha),
		ring:    newSnapRing(opts.History),
	}
	if !opts.SkipRecovery {
		version, ok, err := mgr.Recover()
		if err != nil {
			return nil, fmt.Errorf("control: recover persisted configuration: %w", err)
		}
		if ok {
			c.version = version
			c.recovered = true
			c.recoveredVer = version
			c.journal.Record(Decision{
				Time:    opts.Clock.Now(),
				Action:  ActionRecovered,
				Reason:  fmt.Sprintf("re-deployed persisted configuration v%d", version),
				Version: version,
			})
		}
	}
	return c, nil
}

// Tick runs one measure→decide→migrate round and returns the recorded
// decision. The controller's Start loop calls Tick on every clock tick;
// tests and batch drivers call it directly.
func (c *Controller) Tick() Decision {
	d, snap, scaleOK := c.tickLocked()
	// Elastic scaling runs after c.mu is released: a ScaleTo drains
	// state through the checkpoint supervisor, whose event hooks call
	// back into this controller (NoteFailure takes c.mu) — holding c.mu
	// across the drain would be an AB-BA deadlock. Paused, cooldown and
	// error ticks never reach the scaler, so scaling holds during a
	// failure recovery exactly like optimization does.
	if scaleOK {
		c.runScaler(snap)
	}
	return d
}

// tickLocked is the measure→decide→migrate round proper, entirely under
// c.mu. It reports whether the tick is eligible for a scaling decision.
func (c *Controller) tickLocked() (Decision, Snapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()

	snap := c.sig.collect(c.eng.StatsSnapshot(), c.opts.Clock.Now())
	c.ring.push(snap)

	d := Decision{
		Seq:     snap.Seq,
		Time:    snap.Time,
		Version: c.version,
		Signals: snap,
	}

	if c.paused {
		c.pausedTicks++
		d.Action = ActionPaused
		d.Reason = "optimization paused: failure recovery in progress"
		d.Streak = c.gate.streak
		c.journal.Record(d)
		return d, snap, false
	}

	if c.gate.cool() {
		c.cooldowns++
		d.Action = ActionCooldown
		d.Reason = fmt.Sprintf("post-migration cooldown, %d tick(s) left", c.gate.cooldownLeft)
		d.Streak = c.gate.streak
		c.journal.Record(d)
		return d, snap, false
	}

	var cand *core.Candidate
	if c.fedr != nil {
		// Hierarchical path: per-cluster loops decide the local moves,
		// the federation gate the cross-cluster ones (federation.go).
		// The global tiered candidate comes back for the splitter.
		var extra []Decision
		cand, extra = c.federatedDecideLocked(&d)
		c.journal.Record(d)
		for _, ed := range extra {
			c.journal.Record(ed)
		}
		if d.Action == ActionError {
			return d, snap, false
		}
	} else {
		var err error
		cand, err = c.mgr.Candidate()
		if err != nil {
			c.gate.reset()
			c.errors++
			d.Action = ActionError
			d.Reason = "candidate computation failed"
			d.Err = err.Error()
			c.journal.Record(d)
			return d, snap, false
		}
		d.CurrentLocality = cand.Impact.CurrentLocality
		d.CandidateLocality = cand.Impact.CandidateLocality
		d.SavedTuplesPerPeriod = cand.Impact.SavedTuplesPerPeriod
		d.KeysToMigrate = cand.Impact.KeysToMigrate
		gain := cand.Impact.CandidateLocality - cand.Impact.CurrentLocality

		switch {
		case !cand.Impact.Worthwhile(c.opts.CostPerKey):
			c.gate.observe(0)
			c.skips++
			d.Action = ActionSkipped
			d.Reason = fmt.Sprintf(
				"not worthwhile: saving %.1f tuples/period does not amortize migrating %d keys at cost %.1f/key",
				cand.Impact.SavedTuplesPerPeriod, cand.Impact.KeysToMigrate, c.opts.CostPerKey)
		case gain < c.opts.MinGain:
			c.gate.observe(0)
			c.skips++
			d.Action = ActionSkipped
			d.Reason = fmt.Sprintf("locality gain %.4f below minimum %.4f", gain, c.opts.MinGain)
		case !c.gate.observe(+1):
			c.skips++
			d.Action = ActionSkipped
			d.Reason = fmt.Sprintf("awaiting confirmation (%d/%d consecutive worthwhile windows)",
				c.gate.streak, c.opts.Confirm)
		default:
			if err := c.mgr.DeployCandidate(cand); err != nil {
				c.gate.reset()
				c.errors++
				d.Action = ActionError
				d.Reason = "deployment failed"
				d.Err = err.Error()
			} else {
				c.gate.fire()
				c.deploys++
				c.version = cand.Plan.Version
				d.Action = ActionDeployed
				d.Version = cand.Plan.Version
				d.Reason = fmt.Sprintf(
					"deployed v%d: locality %.3f → %.3f (est.), %d keys migrated",
					cand.Plan.Version, cand.Impact.CurrentLocality, cand.Impact.CandidateLocality,
					cand.Impact.KeysToMigrate)
			}
		}
		d.Streak = c.gate.streak
		c.journal.Record(d)
	}

	// The hot-key splitter runs after the deployment decision, so a
	// promotion always reads the key's owner from the tables that are
	// actually live, and a deployed candidate never migrates a key the
	// same tick promoted (the candidate pinned the split set it was
	// computed against).
	if c.splitter != nil && d.Action != ActionError {
		for _, sd := range c.splitter.run(cand, snap.Time, snap.Seq, c.version) {
			switch sd.Action {
			case ActionPromoted:
				c.promotions++
			case ActionDemoted:
				c.demotions++
			case ActionError:
				c.errors++
			}
			c.journal.Record(sd)
		}
	}
	// Elastic scaling runs last (see Tick): it sees the tick's window
	// after the optimizer and the splitter had their say, so a scale
	// operation's migration never interleaves with a same-tick
	// deployment.
	return d, snap, d.Action != ActionError
}

// AttachSplitEngine connects the hot-key splitter to the live engine's
// split API; attachment is the switch — without it the controller never
// promotes or demotes keys.
func (c *Controller) AttachSplitEngine(eng SplitEngine) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.splitter = newSplitter(eng, c.opts.Split)
}

// Start launches the periodic loop. It is a no-op when already running.
// Stop the controller before stopping the underlying engine.
func (c *Controller) Start() {
	c.loopMu.Lock()
	defer c.loopMu.Unlock()
	if c.running {
		return
	}
	c.running = true
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	// The ticker is created here, not in the goroutine, so that an
	// injected clock has it registered by the time Start returns.
	go c.loop(c.opts.Clock.NewTicker(c.opts.Period), c.stop, c.done)
}

func (c *Controller) loop(ticker Ticker, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C():
			c.Tick()
		case <-stop:
			return
		}
	}
}

// Stop halts the periodic loop and waits for the in-flight tick, if any,
// to finish. Idempotent; Tick remains callable afterwards.
func (c *Controller) Stop() {
	c.loopMu.Lock()
	defer c.loopMu.Unlock()
	if !c.running {
		return
	}
	close(c.stop)
	<-c.done
	c.running = false
}

// NoteFailure records a confirmed server failure in the journal and
// pauses optimization: the statistics window now straddles a membership
// change, so candidates computed from it are meaningless until the
// fault-tolerance subsystem finishes recovery (NoteRecovery). The
// failure itself is handled by that subsystem; the controller only
// journals and steps aside.
func (c *Controller) NoteFailure(server int, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.paused = true
	c.failures++
	c.journal.Record(Decision{
		Time:    c.opts.Clock.Now(),
		Action:  ActionFailed,
		Reason:  fmt.Sprintf("server %d failed: %s", server, reason),
		Version: c.version,
		Seq:     c.sig.seq,
	})
}

// NoteRecovery resumes optimization after a failure recovery: the
// repair configuration version supersedes the controller's view, the
// confirmation streak restarts (pre-failure windows no longer describe
// the deployment), and the recovery is journaled.
func (c *Controller) NoteRecovery(server int, version uint64, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.paused = false
	c.frecoveries++
	c.gate.reset()
	if version > c.version {
		c.version = version
	}
	c.journal.Record(Decision{
		Time:    c.opts.Clock.Now(),
		Action:  ActionRecovered,
		Reason:  fmt.Sprintf("server %d recovered: %s", server, reason),
		Version: c.version,
		Seq:     c.sig.seq,
	})
}

// SetFaultInfo installs the fault-tolerance status provider served on
// the introspection handler's /checkpoints endpoint (404 until set).
func (c *Controller) SetFaultInfo(provider func() interface{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.faultInfo = provider
}

func (c *Controller) faultInfoProvider() func() interface{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faultInfo
}

// StateReader serves point-in-time reads of the checkpoint store for
// the introspection handler's /state endpoints. Results are plain
// JSON-encodable values, so the control plane stays decoupled from the
// store's concrete types the same way SetFaultInfo keeps it decoupled
// from the supervisor's.
type StateReader interface {
	// LookupState returns one key's checkpointed state as of version
	// (0 = latest); found is false when the key had none.
	LookupState(op, key string, version uint64) (result any, found bool, err error)
	// ScanState returns one operator's full keyed state as of version.
	ScanState(op string, version uint64) (any, error)
	// StateOps lists the operators with checkpointed state, sorted.
	StateOps() []string
}

// ErrStateCompacted is the error a StateReader returns (wrapped or
// verbatim) when the requested version predates the store's compaction
// floor; the /state endpoints map it to 410 Gone.
var ErrStateCompacted = errors.New("control: requested state version was compacted away")

// SetStateReader installs the queryable-state provider served on the
// introspection handler's /state endpoints (404 until set).
func (c *Controller) SetStateReader(r StateReader) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stateRd = r
}

func (c *Controller) stateReader() StateReader {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stateRd
}

// Journal returns the decision journal.
func (c *Controller) Journal() *Journal { return c.journal }

// Snapshots returns the retained signal snapshots, oldest first.
func (c *Controller) Snapshots() []Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.all()
}

// Tables returns the currently deployed routing tables.
func (c *Controller) Tables() map[string]*routing.Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mgr.Tables()
}

// Status returns the controller's current state.
func (c *Controller) Status() Status {
	c.loopMu.Lock()
	running := c.running
	c.loopMu.Unlock()

	engStats := c.eng.StatsSnapshot()
	wire := engStats.Wire

	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Running:              running,
		Wire:                 wire,
		Split:                engStats.Split,
		WireCompressionRatio: wire.CompressionRatio(),
		WireDictHitRate:      wire.DictHitRate(),
		WireBytesPerTuple:    wire.WireBytesPerTuple(),
		Ticks:                c.sig.seq,
		Deploys:              c.deploys,
		Skips:                c.skips,
		Cooldowns:            c.cooldowns,
		Errors:               c.errors,
		Version:              c.version,
		Streak:               c.gate.streak,
		Confirm:              c.opts.Confirm,
		CooldownLeft:         c.gate.cooldownLeft,
		Recovered:            c.recovered,
		RecoveredVersion:     c.recoveredVer,

		Paused:            c.paused,
		Failures:          c.failures,
		FailureRecoveries: c.frecoveries,
		PausedTicks:       c.pausedTicks,

		Promotions: c.promotions,
		Demotions:  c.demotions,

		Scale: c.scaleStatusLocked(),
	}
	if c.fedr != nil {
		st.Federation = c.fedr.statusLocked()
	}
	if c.splitter != nil {
		st.SplitKeys = c.splitter.eng.SplitSnapshot()
	}
	if snap, ok := c.ring.last(); ok {
		st.SmoothedLocality = snap.SmoothedLocality
	}
	if recent := c.journal.Recent(1); len(recent) == 1 {
		st.LastDecision = &recent[0]
	}
	return st
}
