package main

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"github.com/locastream/locastream"
)

// phase names the measurement window a sampled tuple belongs to. The
// generator stamps it into the tuple's tag, so a tuple that completes
// after its window has closed is still counted where it was due.
//
// Each open-loop rate is measured over consecutive windows with a
// histogram each, and Reconfigure rounds rotate over duringWindows
// histograms. A percentile is reported as the median of the windows'
// percentiles: a garbage-collection cycle on two cores stalls the
// pipeline for 50-100 ms every few seconds, which moves a high
// percentile of the pooled samples by whether one, two or none fell into
// the phase, but moves at most the windows it falls into.
type phase uint8

const (
	duringWindows = 8
	loWindows     = 12
	hiWindows     = 8
)

const (
	phOther   phase                      = iota // warm-up, between rounds, closed loop
	phDuring                                    // first window of tuples due while Reconfigure ran
	phLo      = phDuring + duringWindows        // first window of the open loop at the low rate
	phHi      = phLo + loWindows                // first window of the open loop at the high rate
	numPhases = phHi + hiWindows
)

// isOpen tells whether ph is a window of the two fixed-rate open loops.
func isOpen(ph phase) bool { return ph >= phLo }

// sampleEvery is the latency sampling stride: one tuple in 16 carries a
// tag and is timed.
const sampleEvery = 16

// burstInterval is the open-loop schedule's granularity: rate/1000 tuples
// become due together every millisecond.
const burstInterval = time.Millisecond

// clock is the generator's time source, replaced by a fake in tests.
// Times are offsets from the start of the run.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ base time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.base) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// tagLen is the size of a sample tag: sequence id (4 bytes), due time in
// nanoseconds since the start of the run (8 bytes), phase (1 byte).
const tagLen = 13

func encodeTag(seq uint32, due time.Duration, ph phase) string {
	var b [tagLen]byte
	binary.LittleEndian.PutUint32(b[0:], seq)
	binary.LittleEndian.PutUint64(b[4:], uint64(due))
	b[12] = byte(ph)
	return string(b[:])
}

// decodeTag reads a tag back without allocating. ok is false for
// anything that is not a tag this generator wrote.
func decodeTag(tag string) (seq uint32, due time.Duration, ph phase, ok bool) {
	if len(tag) != tagLen || phase(tag[12]) >= numPhases {
		return 0, 0, 0, false
	}
	for i := 3; i >= 0; i-- {
		seq = seq<<8 | uint32(tag[i])
	}
	var d uint64
	for i := 11; i >= 4; i-- {
		d = d<<8 | uint64(tag[i])
	}
	return seq, time.Duration(d), phase(tag[12]), true
}

// generator is the load generator: one goroutine that replays the
// pre-built pool in order through sink. It is a component apart from
// the system under test, which sees only tuples.
type generator struct {
	sink func(locastream.Tuple) error
	pool []locastream.Tuple
	clk  clock

	// cur is the phase stamped into sampled tuples. The orchestrator sets
	// it at phase boundaries and the reconfiguration goroutine flips it
	// to phDuring around each Reconfigure call.
	cur atomic.Uint32

	pos      int    // next pool index
	injected uint64 // tuples handed to sink, rejected ones included
	rejected uint64
	seq      uint32 // sampled tuples so far

	// Open-loop self-checks: how late each burst started, and the time
	// spent inside the inject loops (blocked on back-pressure or not).
	late hist
	wake time.Duration // last return from a sleep begun on schedule
	busy time.Duration
	open time.Duration // total open-loop wall time

	// While marks is set, the open loop offers it a token each time
	// another every tuples have been injected, and never waits for the
	// token to be taken.
	every    uint64
	nextMark uint64
	marks    chan<- struct{}

	// tr is nil in untraced runs.
	tr *tracer
}

// markEvery starts (or, with a nil channel, stops) the marks: the first
// falls every tuples from now.
func (g *generator) markEvery(every int, marks chan<- struct{}) {
	g.every, g.nextMark, g.marks = uint64(every), g.injected+uint64(every), marks
}

func (g *generator) setPhase(ph phase) { g.cur.Store(uint32(ph)) }

// inject sends the next pool tuple, tagging one in sampleEvery.
func (g *generator) inject(due time.Duration, ph phase) {
	t := g.pool[g.pos]
	if g.pos++; g.pos == len(g.pool) {
		g.pos = 0
	}
	sampled := g.injected%sampleEvery == 0
	g.injected++
	traced := false
	if sampled {
		vals := make([]string, len(t.Values))
		copy(vals, t.Values)
		vals[fieldTag] = encodeTag(g.seq, due, ph)
		t.Values = vals
		g.seq++
		traced = g.tr != nil && g.tr.stamps(ph)
	}
	if !traced {
		if g.sink(t) != nil {
			g.rejected++
		}
		return
	}
	start := g.clk.now()
	err := g.sink(t)
	g.tr.injected(g.seq-1, due, start, g.clk.now(), ph)
	if err != nil {
		g.rejected++
	}
}

// openLoop injects rate/1000 tuples every millisecond for dur. A burst's
// tuples are all due at the burst instant. A generator that has fallen
// behind, because Inject blocked or a burst outlasted its slot, sends the
// overdue bursts back to back, each stamped with the instant it was due,
// so the delay a stall imposes on later tuples is counted in their
// latency. The one exception is the generator's own timer: a tuple is
// never stamped earlier than the generator's last wake-up from a sleep it
// began on schedule, because while asleep it could not have sent
// anything. On a virtual machine with coarse timers a 1 ms sleep
// overshoots by half a millisecond at the median and by more than a
// whole slot once in a hundred; that says nothing about the system and
// is reported apart, as gen.late.
func (g *generator) openLoop(rate int, dur time.Duration) {
	start := g.clk.now()
	perBurst := rate / int(time.Second/burstInterval)
	for due := start; due-start < dur; due += burstInterval {
		if g.clk.now() <= due {
			g.clk.sleepUntil(due)
			g.wake = g.clk.now()
		}
		t0 := g.clk.now()
		g.late.record(t0 - due)
		stamp := max(due, g.wake)
		if g.marks != nil && g.injected >= g.nextMark {
			g.nextMark += g.every
			select {
			case g.marks <- struct{}{}:
			default:
			}
		}
		ph := phase(g.cur.Load())
		for i := 0; i < perBurst; i++ {
			g.inject(stamp, ph)
		}
		g.busy += g.clk.now() - t0
	}
	g.open += g.clk.now() - start
}

// closedLoop injects as fast as back-pressure allows for the given
// number of segments and returns the tuples/s completed in each, read
// from the completed counter at segment boundaries. between, if not nil,
// runs before each segment (the traced pass toggles tracing there).
func (g *generator) closedLoop(segments int, segment time.Duration, completed func() uint64, between func()) []float64 {
	const checkEvery = 64
	tps := make([]float64, 0, segments)
	for s := 0; s < segments; s++ {
		if between != nil {
			between()
		}
		ph := phase(g.cur.Load())
		t0, c0 := g.clk.now(), completed()
		now := t0
		for now-t0 < segment {
			for i := 0; i < checkEvery; i++ {
				g.inject(now, ph)
			}
			now = g.clk.now()
		}
		tps = append(tps, float64(completed()-c0)/(now-t0).Seconds())
	}
	return tps
}

// warm injects n tuples closed-loop without timing anything.
func (g *generator) warm(n int) {
	now := g.clk.now()
	for i := 0; i < n; i++ {
		g.inject(now, phOther)
	}
}
