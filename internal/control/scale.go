package control

import "fmt"

// This file is the control-plane half of elastic scaling: on every tick
// the scaler reads the window's fields-grouped traffic from the signal
// snapshot, and on sustained threshold crossings — with the same
// confirmation + cooldown hysteresis the deployment decision and the
// hot-key splitter use — drives the attached engine to a new width. The
// decision policy itself is the Scaler (scaler.go: pure, engine-free);
// this file owns the wiring, the journaling and the introspection.

// ScaleEngine is the surface a scale decision drives; the App's scale
// adapter implements it. ScaleTo runs the full sequence — demote
// affected splits, drain state through a checkpoint, plan the
// minimal-movement repartition, migrate via the §3.4 protocol, flip the
// membership — and reports what moved.
type ScaleEngine interface {
	// ActiveServers returns the current elastic membership width.
	ActiveServers() int
	// ServerCapacity returns the ceiling the placement was built for.
	ServerCapacity() int
	// ScaleTo resizes the cluster to n active servers.
	ScaleTo(n int) (ScaleResult, error)
}

// ScaleResult describes one completed scale operation.
type ScaleResult struct {
	// From and To are the membership widths before and after.
	From int `json:"from"`
	To   int `json:"to"`
	// MovedKeys is how many keys the rescale plan reassigned;
	// MoveBound is the plan's a-priori ceiling (forced moves plus the
	// voluntary cap) — MovedKeys never exceeds it.
	MovedKeys int `json:"moved_keys"`
	MoveBound int `json:"move_bound"`
	// Version is the configuration version the rescale deployed as.
	Version uint64 `json:"version"`
}

// ScaleStatus is the elastic-scaling slice of the controller's status,
// also served on /scale.
type ScaleStatus struct {
	Active       int          `json:"active"`
	Capacity     int          `json:"capacity"`
	Min          int          `json:"min"`
	Max          int          `json:"max"`
	Scales       int          `json:"scales"`
	CooldownLeft int          `json:"cooldown_left"`
	Streak       int          `json:"streak"`
	LastResult   *ScaleResult `json:"last_result,omitempty"`
}

// AttachScaleEngine connects the elastic scaler to an engine. Without
// it the controller never resizes the cluster. Returns an error when
// opts are unusable (zero TargetLoad, max below min).
func (c *Controller) AttachScaleEngine(eng ScaleEngine, opts ScaleOptions) error {
	sc, err := NewScaler(opts)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scaleEng = eng
	c.scaler = sc
	return nil
}

// runScaler evaluates the scaling policy for one tick. Called from Tick
// AFTER c.mu is released: the policy decision (Observe) and the result
// bookkeeping each take c.mu briefly, but the ScaleTo itself runs
// unlocked — it drains state through the checkpoint supervisor, whose
// event hooks call back into this controller. A concurrent tick cannot
// double-fire: Observe arms the cooldown the moment it fires.
func (c *Controller) runScaler(snap Snapshot) {
	c.mu.Lock()
	if c.scaler == nil || c.scaleEng == nil {
		c.mu.Unlock()
		return
	}
	eng := c.scaleEng
	active := eng.ActiveServers()
	target, fire := c.scaler.Observe(snap.WindowTraffic, active)
	targetLoad := c.scaler.Options().TargetLoad
	c.mu.Unlock()
	if !fire || target == active {
		return
	}
	res, err := eng.ScaleTo(target)
	c.mu.Lock()
	defer c.mu.Unlock()
	d := Decision{Seq: snap.Seq, Time: snap.Time, Signals: snap}
	if err != nil {
		c.errors++
		d.Action = ActionError
		d.Err = err.Error()
		d.Reason = fmt.Sprintf("scale %d -> %d servers failed", active, target)
		d.Version = c.version
		c.journal.Record(d)
		return
	}
	c.scales++
	c.lastScale = &res
	if res.Version > c.version {
		c.version = res.Version
	}
	// The statistics window straddles the move: restart the deployment
	// confirmation streak like a failure recovery does.
	c.gate.reset()
	d.Action = ActionScaled
	d.Version = c.version
	d.KeysToMigrate = res.MovedKeys
	d.Reason = fmt.Sprintf(
		"scaled %d -> %d servers: %d fields transfers/window vs target %d/server; moved %d keys (bound %d)",
		res.From, res.To, snap.WindowTraffic, targetLoad,
		res.MovedKeys, res.MoveBound)
	c.journal.Record(d)
}

// scaleStatusLocked builds the status slice (c.mu held); nil when no
// scale engine is attached.
func (c *Controller) scaleStatusLocked() *ScaleStatus {
	if c.scaler == nil || c.scaleEng == nil {
		return nil
	}
	opts := c.scaler.Options()
	return &ScaleStatus{
		Active:       c.scaleEng.ActiveServers(),
		Capacity:     c.scaleEng.ServerCapacity(),
		Min:          opts.Min,
		Max:          opts.Max,
		Scales:       c.scales,
		CooldownLeft: c.scaler.CooldownLeft(),
		Streak:       c.scaler.Streak(),
		LastResult:   c.lastScale,
	}
}

// ScaleStatusSnapshot returns the current scaling state (nil when no
// scale engine is attached).
func (c *Controller) ScaleStatusSnapshot() *ScaleStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scaleStatusLocked()
}
