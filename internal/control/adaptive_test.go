package control

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/locastream/locastream/internal/topology"
)

// fakeFlushEngine records flush-policy retunes and applies the
// transport's clamping semantics in miniature (the tuner must journal
// what took effect, not what it asked for).
type fakeFlushEngine struct {
	bytes    int
	interval time.Duration
	sets     int
}

func (f *fakeFlushEngine) WireFlushPolicy() (int, time.Duration) { return f.bytes, f.interval }
func (f *fakeFlushEngine) SetWireFlushPolicy(bytes int, interval time.Duration) {
	f.bytes, f.interval = bytes, interval
	f.sets++
}

func tunerOpts() FlushOptions {
	return FlushOptions{
		Enabled:     true,
		HighWater:   1000,
		LowWater:    100,
		Step:        2,
		Confirm:     2,
		Cooldown:    1,
		MinBytes:    4 << 10,
		MaxBytes:    1 << 20,
		MinInterval: 200 * time.Microsecond,
		MaxInterval: 20 * time.Millisecond,
	}
}

func snapWithInFlight(seq int, inFlight int64) Snapshot {
	return Snapshot{Seq: seq, Time: time.Unix(1700000000+int64(seq), 0), InFlight: inFlight}
}

func TestFlushTunerWidensUnderPressure(t *testing.T) {
	eng := &fakeFlushEngine{bytes: 64 << 10, interval: time.Millisecond}
	tuner := newFlushTuner(eng, tunerOpts())

	// First pressured window only builds the streak.
	if _, ok := tuner.run(snapWithInFlight(1, 5000), time.Now(), 1, 7); ok {
		t.Fatal("retuned on a single pressured window despite Confirm=2")
	}
	if eng.sets != 0 {
		t.Fatal("policy touched before confirmation")
	}
	// Second confirms and widens.
	d, ok := tuner.run(snapWithInFlight(2, 5000), time.Now(), 2, 7)
	if !ok {
		t.Fatal("confirmed pressure did not retune")
	}
	if d.Action != ActionRetuned {
		t.Fatalf("action = %s, want %s", d.Action, ActionRetuned)
	}
	if !strings.Contains(d.Reason, "widened") {
		t.Fatalf("reason %q does not say widened", d.Reason)
	}
	if eng.bytes != 128<<10 || eng.interval != 2*time.Millisecond {
		t.Fatalf("policy after widen = %d/%v, want %d/%v", eng.bytes, eng.interval, 128<<10, 2*time.Millisecond)
	}
	if d.Version != 7 || d.Seq != 2 {
		t.Fatalf("journal entry carries version %d seq %d, want 7/2", d.Version, d.Seq)
	}
	// Cooldown: the next pressured window is skipped outright.
	if _, ok := tuner.run(snapWithInFlight(3, 5000), time.Now(), 3, 7); ok {
		t.Fatal("retuned during cooldown")
	}
	// After cooldown, two more pressured windows widen again.
	tuner.run(snapWithInFlight(4, 5000), time.Now(), 4, 7)
	if _, ok := tuner.run(snapWithInFlight(5, 5000), time.Now(), 5, 7); !ok {
		t.Fatal("post-cooldown confirmed pressure did not retune")
	}
	if eng.bytes != 256<<10 {
		t.Fatalf("second widen: bytes = %d, want %d", eng.bytes, 256<<10)
	}
}

func TestFlushTunerTightensWhenIdle(t *testing.T) {
	eng := &fakeFlushEngine{bytes: 64 << 10, interval: 4 * time.Millisecond}
	tuner := newFlushTuner(eng, tunerOpts())

	tuner.run(snapWithInFlight(1, 0), time.Now(), 1, 1)
	d, ok := tuner.run(snapWithInFlight(2, 0), time.Now(), 2, 1)
	if !ok {
		t.Fatal("confirmed idleness did not retune")
	}
	if !strings.Contains(d.Reason, "tightened") {
		t.Fatalf("reason %q does not say tightened", d.Reason)
	}
	if eng.bytes != 32<<10 || eng.interval != 2*time.Millisecond {
		t.Fatalf("policy after tighten = %d/%v, want %d/%v", eng.bytes, eng.interval, 32<<10, 2*time.Millisecond)
	}
}

func TestFlushTunerDeadBandResetsStreaks(t *testing.T) {
	eng := &fakeFlushEngine{bytes: 64 << 10, interval: time.Millisecond}
	tuner := newFlushTuner(eng, tunerOpts())

	// Alternating pressured and in-band windows never confirm.
	for i := 1; i <= 10; i++ {
		inFlight := int64(5000)
		if i%2 == 0 {
			inFlight = 500 // inside the dead band
		}
		if _, ok := tuner.run(snapWithInFlight(i, inFlight), time.Now(), i, 1); ok {
			t.Fatalf("window %d retuned without consecutive confirmation", i)
		}
	}
	if eng.sets != 0 {
		t.Fatal("dead-banded signal still moved the policy")
	}
	// An idle window right after a pressured one must also reset the
	// high streak (direction flips restart confirmation).
	tuner.run(snapWithInFlight(11, 5000), time.Now(), 11, 1)
	if _, ok := tuner.run(snapWithInFlight(12, 0), time.Now(), 12, 1); ok {
		t.Fatal("direction flip confirmed a retune")
	}
}

func TestFlushTunerPinnedAtBoundStaysQuiet(t *testing.T) {
	opts := tunerOpts()
	eng := &fakeFlushEngine{bytes: opts.MaxBytes, interval: opts.MaxInterval}
	tuner := newFlushTuner(eng, opts)

	// Sustained pressure against the ceiling must not journal a no-op
	// retune every Confirm windows.
	for i := 1; i <= 8; i++ {
		if d, ok := tuner.run(snapWithInFlight(i, 5000), time.Now(), i, 1); ok {
			t.Fatalf("window %d journaled a no-op retune: %q", i, d.Reason)
		}
	}
	if eng.sets != 0 {
		t.Fatal("pinned policy was re-set")
	}
}

func TestFlushTunerIgnoresMissingFabric(t *testing.T) {
	eng := &fakeFlushEngine{} // zeros: engine runs without a TCP fabric
	tuner := newFlushTuner(eng, tunerOpts())
	for i := 1; i <= 4; i++ {
		if _, ok := tuner.run(snapWithInFlight(i, 5000), time.Now(), i, 1); ok {
			t.Fatal("retuned with no fabric behind the engine")
		}
	}
	if eng.sets != 0 {
		t.Fatal("policy set with no fabric")
	}
}

// TestControllerAdaptiveFlushLoop drives the tuner through the real
// controller tick path: an attached flush engine, pressured windows
// from the live harness... the in-flight depth is zero on a drained
// engine, so the controller-level test exercises the tighten direction
// — the journal gains a retuned entry, Status reports the retune count
// and the live policy.
func TestControllerAdaptiveFlushLoop(t *testing.T) {
	h := newHarness(t, 2, nil)
	opts := tunerOpts()
	c := newTestController(t, h, Options{Flush: opts})
	eng := &fakeFlushEngine{bytes: 64 << 10, interval: 4 * time.Millisecond}
	c.AttachFlushEngine(eng)

	h.injectCorrelated(t, 200, 8, 0)
	for i := 0; i < 2; i++ {
		c.Tick()
	}
	st := c.Status()
	if st.Retunes != 1 {
		t.Fatalf("Status.Retunes = %d, want 1 (drained engine tightens once, then cools down)", st.Retunes)
	}
	if st.FlushBytes != eng.bytes || st.FlushInterval != eng.interval {
		t.Fatalf("Status policy = %d/%v, engine has %d/%v", st.FlushBytes, st.FlushInterval, eng.bytes, eng.interval)
	}
	if eng.bytes != 32<<10 {
		t.Fatalf("engine bytes = %d, want %d after one tighten", eng.bytes, 32<<10)
	}
	var retuned int
	for _, d := range c.Journal().All() {
		if d.Action == ActionRetuned {
			retuned++
			if d.Signals.Seq == 0 {
				t.Fatal("retune journal entry carries no signals")
			}
		}
	}
	if retuned != 1 {
		t.Fatalf("journal holds %d retuned entries, want 1", retuned)
	}
}

// TestControllerRetuneRacesIdleHints runs the tuner's retunes against
// the executors' idle flush hints on a real TCP fabric: bursts separated
// by drains swing the in-flight depth across both watermarks, so ticks
// widen and tighten the policy while hints stage batches underneath.
// A batch lost to the race would show as a missing count (or a Drain
// that never returns); one staged twice as a surplus.
func TestControllerRetuneRacesIdleHints(t *testing.T) {
	const (
		keys   = 16
		bursts = 150
		burst  = 4 * keys
	)
	h := newHarnessOn(t, 4, nil, true)
	c := newTestController(t, h, Options{
		MinGain: 2, // never deploy: the stream stays on hash routing, mostly remote
		Flush:   FlushOptions{Enabled: true, HighWater: 1, Confirm: 1, Cooldown: 0},
	})
	c.AttachFlushEngine(h.live)

	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		for i := 0; i < bursts*burst; i++ {
			k := strconv.Itoa(i % keys)
			if err := h.live.Inject(topology.Tuple{Values: []string{k, "t" + k}}); err != nil {
				t.Error(err)
				return
			}
			if (i+1)%burst == 0 {
				h.live.Drain()
			}
		}
	}()
	for streaming := true; streaming; {
		select {
		case <-streamed:
			streaming = false
		default:
			c.Tick()
		}
	}

	var total uint64
	for inst := 0; inst < 4; inst++ {
		if err := h.live.ProcessorState("B", inst, func(p topology.Processor) {
			cnt := p.(*topology.Counter)
			for _, k := range cnt.StateKeys() {
				if got := cnt.Count(k); got != bursts*burst/keys {
					t.Errorf("B[%d] counted %q %d times, want %d", inst, k, got, bursts*burst/keys)
				}
			}
			total += cnt.TotalCount()
		}); err != nil {
			t.Fatal(err)
		}
	}
	if total != bursts*burst {
		t.Fatalf("B counted %d tuples, want %d", total, bursts*burst)
	}
	if lost := h.live.TuplesLost(); lost != 0 {
		t.Fatalf("TuplesLost = %d, want 0", lost)
	}
	ws := h.live.WireStats()
	if ws.TuplesSent == 0 || ws.TuplesSent != ws.TuplesReceived {
		t.Fatalf("wire sent %d tuples, received %d", ws.TuplesSent, ws.TuplesReceived)
	}
	if ws.FlushIdle == 0 || ws.FlushRetunes == 0 {
		t.Fatalf("idle flushes %d, retunes %d: the race was not exercised", ws.FlushIdle, ws.FlushRetunes)
	}
}
