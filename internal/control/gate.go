package control

// gate is the control plane's one piece of hysteresis arithmetic: a
// decision fires only after confirm consecutive windows agree on a
// direction, and is then held off for cooldown ticks. The deployment
// loop, the per-cluster loops, the cross-cluster gate, the hot-key
// splitter (one gate per key) and the Scaler each own one and feed it
// what they measured; what a direction means, and what firing does, stays
// with the caller. Callers resolve their option defaults first: confirm
// is at least 1, cooldown at least 0. Paused ticks never reach a gate.
type gate struct {
	confirm, cooldown int
	// streak counts the consecutive windows observed in one direction,
	// signed by that direction.
	streak       int
	cooldownLeft int
}

// cool consumes one cooldown tick and reports whether there was one
// left; the caller skips the window without observing it.
func (g *gate) cool() bool {
	if g.cooldownLeft == 0 {
		return false
	}
	g.cooldownLeft--
	return true
}

// observe feeds one window's direction (+1, −1, or 0 for "no case") and
// reports whether the streak has reached confirm. A 0 or a change of
// sign restarts the streak. observe never fires: a caller that cannot
// act yet (the splitter's TopK cap) keeps a ready streak running.
func (g *gate) observe(dir int) bool {
	if dir*g.streak <= 0 {
		g.streak = 0
	}
	g.streak += dir
	return g.streak >= g.confirm || -g.streak >= g.confirm
}

// fire records that the caller acted: the streak restarts and the
// cooldown is armed.
func (g *gate) fire() {
	g.streak = 0
	g.cooldownLeft = g.cooldown
}

// reset restarts the streak without arming the cooldown: the windows
// counted so far no longer describe the deployment (a failed deploy, a
// failure recovery, a completed scale).
func (g *gate) reset() { g.streak = 0 }
