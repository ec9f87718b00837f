package main

import (
	"time"

	"github.com/locastream/locastream"
)

// counter is what the benchmark needs from locastream.NewCounter: the
// engine-facing state migration methods plus read access for the output
// check.
type counter interface {
	locastream.Mergeable
	Count(key string) uint64
}

// sinkB is operator B's processor: the shipped Counter, plus the
// benchmark's latency recorder. A sampled tuple is timed from the
// instant it was due at the generator to the end of B's Process. Each
// instance is owned by one executor goroutine, so its histograms and
// ring need no lock; they are read through ProcessorState after Drain.
type sinkB struct {
	counter
	base time.Time
	lat  [numPhases]hist

	// tr and ring are set in traced runs only.
	tr   *tracer
	ring ring
}

func (s *sinkB) Process(t locastream.Tuple, emit locastream.Emit) {
	tag := t.Field(fieldTag)
	if tag == "" {
		s.counter.Process(t, emit)
		return
	}
	seq, due, ph, ok := decodeTag(tag)
	if !ok {
		s.counter.Process(t, emit)
		return
	}
	traced := s.tr != nil && s.tr.stamps(ph)
	if traced {
		s.ring.add(seq, stageBStart, time.Since(s.base), isOpen(ph))
	}
	s.counter.Process(t, emit)
	end := time.Since(s.base)
	s.lat[ph].record(end - due)
	if traced {
		s.ring.add(seq, stageBEnd, end, isOpen(ph))
	}
}

// tapA wraps operator A's Counter in traced runs. It stamps a sampled
// tuple on entry, when the counter hands it to emit (user logic done,
// the engine's route/sketch/send begins) and when emit returns.
type tapA struct {
	counter
	tr   *tracer
	ring ring

	// emit, seq and keep hold the current tuple's context for tap, which
	// is bound once so the sampled path allocates no closure.
	emit locastream.Emit
	seq  uint32
	keep bool
	tap  locastream.Emit
}

func newTapA(c counter, tr *tracer, ringCap int) *tapA {
	a := &tapA{counter: c, tr: tr, ring: newRing(ringCap)}
	a.tap = func(t locastream.Tuple) {
		a.ring.add(a.seq, stageAEmit, time.Since(a.tr.base), a.keep)
		a.emit(t)
	}
	return a
}

func (a *tapA) Process(t locastream.Tuple, emit locastream.Emit) {
	tag := t.Field(fieldTag)
	if tag == "" {
		a.counter.Process(t, emit)
		return
	}
	seq, _, ph, ok := decodeTag(tag)
	if !ok || !a.tr.stamps(ph) {
		a.counter.Process(t, emit)
		return
	}
	a.seq, a.emit, a.keep = seq, emit, isOpen(ph)
	a.ring.add(seq, stageAStart, time.Since(a.tr.base), a.keep)
	a.counter.Process(t, a.tap)
	a.ring.add(seq, stageAEnd, time.Since(a.tr.base), a.keep)
}

// Stages of a sampled tuple's path, in order.
const (
	stageAStart uint8 = iota // A.Process entered
	stageAEmit               // A's counter called emit
	stageAEnd                // emit returned: routed, sketched, enqueued or encoded
	stageBStart              // B.Process entered
	stageBEnd                // B.Process returned
	numStages
)

// stamp is one trace record: sampled tuple seq reached stage at t.
type stamp struct {
	seq   uint32
	stage uint8
	t     time.Duration
}

// ring is a preallocated single-writer record buffer. Only the stamps of
// open-loop tuples are kept, for the latency budget; the stamps of
// closed-loop tuples exist to cost what tracing costs, and are written
// to the spare last slot. Once full the ring drops, and the drop shows up
// as trace.budget_residual_share.
type ring struct {
	recs []stamp
	n    int
}

func newRing(capacity int) ring { return ring{recs: make([]stamp, capacity+1)} }

func (r *ring) add(seq uint32, stage uint8, t time.Duration, keep bool) {
	i := len(r.recs) - 1
	if keep {
		if r.n == i {
			return
		}
		i = r.n
		r.n++
	}
	r.recs[i] = stamp{seq: seq, stage: stage, t: t}
}
