package control

import (
	"fmt"
	"time"
)

// This file is the control-plane half of adaptive wire flushing: on
// every tick the tuner reads the in-flight tuple depth from the tick's
// snapshot and retunes the transport's batching policy through the
// engine's flush API. Sustained pressure widens batches — a larger
// flush-bytes threshold and a longer interval amortize more frames per
// writev syscall, trading latency for throughput exactly when latency
// is already queue-dominated. A sustained idle stream walks the policy
// back toward the latency floor. Both transitions sit behind the same
// confirmation/cooldown hysteresis the deployment decision uses, so one
// bursty window cannot thrash the policy, and every applied retune is
// journaled with the signal that drove it.
//
// Since the engine's executors flush their peers when they run dry
// (engine.executor.nextBatch), FlushInterval is only a backstop and the
// tighten branch no longer lowers an idle stream's latency: it merely
// walks a widened policy back. Journal format and /status fields are
// unchanged.

// FlushOptions tune the adaptive flush tuner. The zero value disables
// it.
type FlushOptions struct {
	// Enabled turns the tuner on (requires an attached flush engine,
	// i.e. a TCP fabric).
	Enabled bool
	// HighWater is the in-flight tuple depth at or above which a window
	// counts as pressured (default 4096).
	HighWater int64
	// LowWater is the in-flight depth at or below which a window counts
	// as idle (default 256). Windows between the two watermarks reset
	// both streaks — the dead band of the hysteresis.
	LowWater int64
	// Step is the multiplicative factor applied per retune (default 2):
	// pressured windows multiply flush bytes and interval by Step, idle
	// windows divide by it.
	Step float64
	// Confirm is the number of consecutive pressured (idle) windows
	// required before the policy widens (tightens) — default 2.
	Confirm int
	// Cooldown is the number of ticks the tuner holds off after a
	// retune, letting the new policy show up in the signals before it
	// is judged (default 2).
	Cooldown int
	// MinBytes/MaxBytes bound the byte threshold the tuner will set
	// (defaults 4KiB and 1MiB). The transport clamps again on its own
	// wider envelope, so the tuner's band is the effective one.
	MinBytes int
	MaxBytes int
	// MinInterval/MaxInterval bound the flush interval the tuner will
	// set (defaults 200µs and 20ms).
	MinInterval time.Duration
	MaxInterval time.Duration
}

func (o *FlushOptions) defaults() {
	if o.HighWater <= 0 {
		o.HighWater = 4096
	}
	if o.LowWater <= 0 || o.LowWater >= o.HighWater {
		o.LowWater = o.HighWater / 16
	}
	if o.Step <= 1 {
		o.Step = 2
	}
	if o.Confirm < 1 {
		o.Confirm = 2
	}
	if o.Cooldown < 0 {
		o.Cooldown = 2
	}
	if o.MinBytes <= 0 {
		o.MinBytes = 4 << 10
	}
	if o.MaxBytes < o.MinBytes {
		o.MaxBytes = 1 << 20
	}
	if o.MinInterval <= 0 {
		o.MinInterval = 200 * time.Microsecond
	}
	if o.MaxInterval < o.MinInterval {
		o.MaxInterval = 20 * time.Millisecond
	}
}

// FlushEngine is the engine surface the tuner drives; *engine.Live
// implements it.
type FlushEngine interface {
	// WireFlushPolicy returns the transport's current batching
	// thresholds (zeros without a TCP fabric).
	WireFlushPolicy() (bytes int, interval time.Duration)
	// SetWireFlushPolicy retunes the thresholds on every node.
	SetWireFlushPolicy(bytes int, interval time.Duration)
}

// flushTuner holds the hysteresis state of the adaptive flush loop.
type flushTuner struct {
	opts FlushOptions
	eng  FlushEngine

	highStreak   int
	lowStreak    int
	cooldownLeft int
}

func newFlushTuner(eng FlushEngine, opts FlushOptions) *flushTuner {
	opts.defaults()
	return &flushTuner{opts: opts, eng: eng}
}

// run evaluates one tick's snapshot and applies at most one retune. It
// returns the journal entry for an applied retune (ok=false most
// ticks).
func (t *flushTuner) run(snap Snapshot, now time.Time, seq int, version uint64) (Decision, bool) {
	if t.cooldownLeft > 0 {
		t.cooldownLeft--
		return Decision{}, false
	}
	curBytes, curInterval := t.eng.WireFlushPolicy()
	if curBytes <= 0 || curInterval <= 0 {
		// No TCP fabric behind the engine; nothing to tune.
		return Decision{}, false
	}

	var dir string
	switch {
	case snap.InFlight >= t.opts.HighWater:
		t.highStreak++
		t.lowStreak = 0
		if t.highStreak < t.opts.Confirm {
			return Decision{}, false
		}
		dir = "widened"
	case snap.InFlight <= t.opts.LowWater:
		t.lowStreak++
		t.highStreak = 0
		if t.lowStreak < t.opts.Confirm {
			return Decision{}, false
		}
		dir = "tightened"
	default:
		t.highStreak, t.lowStreak = 0, 0
		return Decision{}, false
	}

	wantBytes, wantInterval := curBytes, curInterval
	if dir == "widened" {
		wantBytes = clampInt(int(float64(curBytes)*t.opts.Step), t.opts.MinBytes, t.opts.MaxBytes)
		wantInterval = clampDur(time.Duration(float64(curInterval)*t.opts.Step), t.opts.MinInterval, t.opts.MaxInterval)
	} else {
		wantBytes = clampInt(int(float64(curBytes)/t.opts.Step), t.opts.MinBytes, t.opts.MaxBytes)
		wantInterval = clampDur(time.Duration(float64(curInterval)/t.opts.Step), t.opts.MinInterval, t.opts.MaxInterval)
	}
	t.highStreak, t.lowStreak = 0, 0
	if wantBytes == curBytes && wantInterval == curInterval {
		// Already pinned at the bound; journaling a no-op every window
		// would drown the journal while pressure persists.
		return Decision{}, false
	}

	t.eng.SetWireFlushPolicy(wantBytes, wantInterval)
	t.cooldownLeft = t.opts.Cooldown
	// Read back what actually took effect: the transport clamps on its
	// own envelope and the journal should record the live policy, not
	// the request.
	gotBytes, gotInterval := t.eng.WireFlushPolicy()
	return Decision{
		Seq: seq, Time: now, Action: ActionRetuned, Version: version,
		Signals: snap,
		Reason: fmt.Sprintf("%s flush policy: %dB/%s → %dB/%s (in-flight %d vs high %d / low %d)",
			dir, curBytes, curInterval, gotBytes, gotInterval,
			snap.InFlight, t.opts.HighWater, t.opts.LowWater),
	}, true
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampDur(v, lo, hi time.Duration) time.Duration {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
