package control

import "fmt"

// ScaleOptions tune the Scaler's decision policy.
type ScaleOptions struct {
	// Min and Max bound the active server count.
	Min, Max int
	// TargetLoad is the fields-grouped transfers per statistics window
	// one active server is sized for. The desired width is
	// ceil(window traffic / TargetLoad), clamped to [Min, Max].
	TargetLoad uint64
	// Confirm is the number of consecutive windows the desired width
	// must differ from the active width (in the same direction) before
	// a decision fires (default 2) — one bursty window neither grows
	// nor shrinks the cluster.
	Confirm int
	// Cooldown is the number of windows skipped after each decision
	// (default 1, negative disables), giving migrations time to settle
	// before the next measurement is trusted.
	Cooldown int
}

func (o *ScaleOptions) defaults() error {
	if o.Min < 1 {
		o.Min = 1
	}
	if o.Max < o.Min {
		return fmt.Errorf("scale: max %d below min %d", o.Max, o.Min)
	}
	if o.TargetLoad == 0 {
		return fmt.Errorf("scale: zero target load")
	}
	if o.Confirm < 1 {
		o.Confirm = 2
	}
	if o.Cooldown == 0 {
		o.Cooldown = 1
	} else if o.Cooldown < 0 {
		o.Cooldown = 0
	}
	return nil
}

// Scaler is the pure decision half of elastic scaling: fed one load
// observation per statistics window, it applies threshold + confirmation
// + cooldown hysteresis (a gate counting growth windows up and shrink
// windows down) and emits the width the cluster should move to. It holds
// no engine references — scale.go wires its decisions to an engine. Not
// safe for concurrent use; the controller serializes ticks.
type Scaler struct {
	opts ScaleOptions
	gate gate
}

// NewScaler validates opts and returns a Scaler.
func NewScaler(opts ScaleOptions) (*Scaler, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	return &Scaler{opts: opts, gate: gate{confirm: opts.Confirm, cooldown: opts.Cooldown}}, nil
}

// Options returns the effective (defaulted) options.
func (s *Scaler) Options() ScaleOptions { return s.opts }

// Desired returns the width the observed window traffic calls for,
// before hysteresis.
func (s *Scaler) Desired(windowTraffic uint64) int {
	want := int((windowTraffic + s.opts.TargetLoad - 1) / s.opts.TargetLoad)
	if want < s.opts.Min {
		want = s.opts.Min
	}
	if want > s.opts.Max {
		want = s.opts.Max
	}
	return want
}

// Observe feeds one statistics window. It returns (target, true) when a
// scale decision fires this window, (0, false) otherwise. After a
// decision the cooldown suppresses further decisions for Cooldown
// windows and the confirmation streak restarts.
func (s *Scaler) Observe(windowTraffic uint64, active int) (int, bool) {
	if s.gate.cool() {
		return 0, false
	}
	want := s.Desired(windowTraffic)
	dir := 0
	switch {
	case want > active:
		dir = 1
	case want < active:
		dir = -1
	}
	if !s.gate.observe(dir) {
		return 0, false
	}
	s.gate.fire()
	return want, true
}

// NoteScaled informs the scaler of an externally-driven scale operation
// (App.ScaleTo) so its cooldown and streak restart.
func (s *Scaler) NoteScaled() { s.gate.fire() }

// CooldownLeft returns the remaining cooldown windows.
func (s *Scaler) CooldownLeft() int { return s.gate.cooldownLeft }

// Streak returns the current confirmation streak: positive counts
// consecutive windows wanting growth, negative wanting shrink.
func (s *Scaler) Streak() int { return s.gate.streak }
