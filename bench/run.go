package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/locastream/locastream"
)

// Fixed shape of every workload: A -> B, both Counters, Fields grouping
// on field 1, parallelism 4 on 4 servers over real loopback TCP. This is
// the shape of BenchmarkLivePipelineTCP, so history stays relatable.
const (
	opA         = "A"
	opB         = "B"
	servers     = 4
	parallelism = 4
	maxInFlight = 4096
)

// sizes are the knobs the smoke test shrinks; a benchmark run always
// uses fullSize.
type sizes struct {
	pool    int // tuples in the replayed pool
	warm    int // warm-up tuples per set-up
	setups  int // set-ups per run; the last one is measured, setup_s is their median
	ringCap int // trace records per operator instance
}

var fullSize = sizes{pool: 1 << 17, warm: 1 << 17, setups: 7, ringCap: 3 << 17}

// nominalSeconds is the run length the phase lengths below are quoted
// for; -seconds scales them all.
const nominalSeconds = 28

// schedule is the phase plan shared by all workloads. A run is cycles
// repetitions of four slices: Reconfigure rounds beside an open loop at
// the low rate, open loop at the low rate, open loop at the high rate,
// closed loop. The slices of one kind are interleaved with the others
// rather than laid end to end because the machine has slow spells of
// several seconds: laid end to end, one spell covers all of one metric's
// windows, interleaved it covers a minority of each metric's, which the
// medians over windows then ignore.
//
// At 28 s a cycle is 2.9 s in which rounds may start (the last one runs
// to its end), 3 windows of 0.5 s at the low rate, 2 at the high rate and
// 4 closed-loop segments of 0.5 s.
type schedule struct {
	rounds, window, segment time.Duration
}

const (
	cycles           = 4
	loPerCycle       = loWindows / cycles
	hiPerCycle       = hiWindows / cycles
	segmentsPerCycle = 4
)

func scheduleFor(seconds float64) schedule {
	unit := time.Duration(seconds / nominalSeconds * float64(time.Second))
	return schedule{rounds: 29 * unit / 10, window: unit / 2, segment: unit / 2}
}

// dataPlane is the part of the engine a run drives. *locastream.App
// satisfies it for end-to-end runs and *engine.Live for the traced pass.
type dataPlane interface {
	Inject(locastream.Tuple) error
	Drain()
	FieldsTraffic() locastream.Traffic
	Loads(op string) []uint64
	ProcessorState(op string, inst int, fn func(locastream.Processor)) error
	TuplesLost() uint64
	Stop()
}

// system is one deployed application under test.
type system struct {
	dataPlane
	// reconfigure runs one round of Algorithm 1.
	reconfigure func() error
	// afterRound, set in traced runs, replays the round's control-plane
	// steps one by one outside the timed window.
	afterRound func()
}

func buildTopology(par int, newA, newB func() locastream.Processor) (*locastream.Topology, error) {
	return locastream.NewTopology("bench").
		AddOperator(locastream.Operator{Name: opA, Parallelism: par, Stateful: true, New: newA}).
		AddOperator(locastream.Operator{Name: opB, Parallelism: par, Stateful: true, New: newB}).
		Connect(opA, opB, locastream.Fields, fieldB).
		Build()
}

// newAppSystem deploys the workload through the public API only.
func newAppSystem(sp spec, base time.Time) (*system, error) {
	topo, err := buildTopology(parallelism,
		func() locastream.Processor { return locastream.NewCounter(fieldA) },
		func() locastream.Processor { return &sinkB{counter: locastream.NewCounter(fieldB), base: base} })
	if err != nil {
		return nil, err
	}
	opts := []locastream.Option{
		locastream.WithServers(servers),
		locastream.WithTCPTransport(),
		locastream.WithMaxInFlight(maxInFlight),
		locastream.WithSourceGrouping(locastream.Fields, fieldA),
	}
	if opt := sp.routingOption(); opt != nil {
		opts = append(opts, opt)
	}
	app, err := locastream.NewApp(topo, opts...)
	if err != nil {
		return nil, err
	}
	return &system{dataPlane: app, reconfigure: func() error {
		_, err := app.Reconfigure()
		return err
	}}, nil
}

// rig is one set-up: a deployed system, its generator and the pool the
// generator replays.
type rig struct {
	sys  *system
	gen  *generator
	pool []locastream.Tuple
	tr   *tracer // nil unless traced
}

// setUp does everything a run needs before its first measured tuple:
// generate the inputs, deploy and connect the application, warm it up
// and, on workloads that start on learned tables, learn them.
func setUp(sp spec, seed int64, sz sizes, traced bool) (*rig, error) {
	pool := sp.pool(seed, sz.pool)
	base := time.Now()
	var (
		sys *system
		tr  *tracer
		err error
	)
	if traced {
		sys, tr, err = newTracedSystem(sp, base, sz)
	} else {
		sys, err = newAppSystem(sp, base)
	}
	if err != nil {
		return nil, err
	}
	gen := &generator{sink: sys.Inject, pool: pool, clk: wallClock{base}, tr: tr}
	gen.warm(sz.warm)
	sys.Drain()
	if sp.learnInSetup {
		if err := sys.reconfigure(); err != nil {
			sys.Stop()
			return nil, fmt.Errorf("set-up reconfigure: %w", err)
		}
		// Touch every key once more so the measured phases start with the
		// migrated state in place and the new routes warm.
		gen.warm(sz.warm / 4)
		sys.Drain()
	}
	return &rig{sys: sys, gen: gen, pool: pool, tr: tr}, nil
}

// outcome is what one run measured.
type outcome struct {
	setups   []time.Duration
	rounds   []time.Duration
	segments []float64 // closed-loop tuples/s per segment
	lat      [numPhases]hist

	// locality and imbalance cover the open-loop lo and hi phases, which
	// follow the reconfiguration rounds.
	locality  float64
	imbalance float64

	attempted  uint64
	lost       uint64
	mismatched uint64 // keys whose count differs from the reference
	rejected   uint64
	invalid    []string // reasons the run does not count, beyond failures

	gen *generator
	tr  *tracer // nil unless traced
}

func (o *outcome) failed() uint64 { return o.lost + o.mismatched + o.rejected }

func (o *outcome) correct() bool { return o.failed() == 0 && len(o.invalid) == 0 }

// runWorkload sets the workload up sz.setups times, measures the last
// set-up over the phase schedule and checks the outputs.
func runWorkload(sp spec, seed int64, seconds float64, sz sizes, traced bool) (*outcome, error) {
	out := &outcome{}
	var r *rig
	for i := 0; i < sz.setups; i++ {
		if r != nil {
			r.sys.Stop()
			// A set-up in a fresh process does not pay for collecting its
			// predecessor's heap.
			r = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if r, err = setUp(sp, seed, sz, traced); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	defer r.sys.Stop()
	sys, g, tr, sch := r.sys, r.gen, r.tr, scheduleFor(seconds)
	out.gen, out.tr = g, tr
	if tr != nil {
		tr.begin(g)
	}

	completed := func() uint64 {
		var n uint64
		for _, c := range sys.Loads(opB) {
			n += c
		}
		return n
	}
	var open locastream.Traffic // fields-edge traffic of the low and high slices
	openLoads := make([]uint64, parallelism)
	for c := phase(0); c < cycles; c++ {
		tr.enter(kindRounds)
		if err := roundsSlice(sys, g, sp, len(r.pool)/sp.roundsPerPass, sch, &out.rounds); err != nil {
			return nil, fmt.Errorf("reconfigure under load: %w", err)
		}

		traffic0, loads0 := sys.FieldsTraffic(), sys.Loads(opB)
		tr.enter(kindLo)
		for w := phase(0); w < loPerCycle; w++ {
			g.setPhase(phLo + c*loPerCycle + w)
			g.openLoop(sp.loRate, sch.window)
		}
		tr.enter(kindHi)
		for w := phase(0); w < hiPerCycle; w++ {
			g.setPhase(phHi + c*hiPerCycle + w)
			g.openLoop(sp.hiRate, sch.window)
		}
		traffic1, loads1 := sys.FieldsTraffic(), sys.Loads(opB)
		open.LocalTuples += traffic1.LocalTuples - traffic0.LocalTuples
		open.RemoteTuples += traffic1.RemoteTuples - traffic0.RemoteTuples
		for i := range openLoads {
			openLoads[i] += loads1[i] - loads0[i]
		}

		tr.enter(kindClosed)
		g.setPhase(phOther)
		out.segments = append(out.segments, g.closedLoop(segmentsPerCycle, sch.segment, completed, tr.betweenSegments())...)
	}
	tr.enter(kindDone)
	sys.Drain()
	out.locality = open.Locality()
	out.imbalance = locastream.Imbalance(openLoads)

	// Output check: per-key counts against the generator's reference.
	var err error
	out.mismatched, err = countMismatches(sys, r.pool, g.injected, func(op string, inst int, p locastream.Processor) {
		if op == opA {
			tr.collectA(inst, p)
			return
		}
		s := p.(*sinkB)
		for ph := range out.lat {
			out.lat[ph].merge(&s.lat[ph])
		}
		tr.collectB(inst, s)
	})
	if err != nil {
		return nil, err
	}
	out.attempted = g.injected
	out.rejected = g.rejected
	out.lost = sys.TuplesLost()
	if out.locality < sp.minLocality || out.locality > sp.maxLocality {
		out.invalid = append(out.invalid, fmt.Sprintf("locality %.3f outside [%.2f, %.2f]",
			out.locality, sp.minLocality, sp.maxLocality))
	}
	if tr != nil {
		out.invalid = append(out.invalid, tr.finish(sp, out)...)
	}
	return out, nil
}

// roundsSlice keeps the low-rate open loop going for the length of the
// slice and calls Reconfigure at its start and then each time the
// generator has injected another every tuples. It appends each call's
// duration to rounds. A mark that passes while a call is still running
// starts nothing, so the statistics window of a round holds a whole
// number of every tuples however fast the machine is. Tuples due while
// a call runs are stamped into one of the phDuring windows.
//
// On workloads with quietRounds the open loop pauses instead while a
// call runs: every tuples, wait for them to leave the pipeline, one
// call, and again.
func roundsSlice(sys *system, g *generator, sp spec, every int, sch schedule, rounds *[]time.Duration) error {
	rate := sp.loRate
	if sp.quietRounds {
		g.setPhase(phOther)
		window := time.Duration(every) * time.Second / time.Duration(rate)
		for start := time.Now(); time.Since(start) < sch.rounds; {
			g.openLoop(rate, window)
			sys.Drain()
			t0 := time.Now()
			if err := sys.reconfigure(); err != nil {
				return err
			}
			*rounds = append(*rounds, time.Since(t0))
			if sys.afterRound != nil {
				sys.afterRound()
			}
		}
		return nil
	}
	g.setPhase(phOther)
	marks := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			g.setPhase(phDuring + phase(len(*rounds)%duringWindows))
			t0 := time.Now()
			err := sys.reconfigure()
			d := time.Since(t0)
			g.setPhase(phOther)
			if err != nil {
				done <- err
				return
			}
			*rounds = append(*rounds, d)
			if sys.afterRound != nil {
				sys.afterRound()
			}
			if _, open := <-marks; !open {
				done <- nil
				return
			}
		}
	}()
	g.markEvery(every, marks)
	g.openLoop(rate, sch.rounds)
	g.markEvery(0, nil)
	close(marks)
	for {
		select {
		case err := <-done:
			return err
		default:
			// The last round is still running: keep its load on.
			g.openLoop(rate, 20*burstInterval)
		}
	}
}

// countMismatches reads the per-key counts of every instance of A and B
// (visit sees each processor on the way, inside its executor goroutine)
// and returns how many keys differ from the reference for the first
// injected tuples of the replayed pool. A key's counts are summed over
// instances: where it lives is the engine's business, how often it was
// counted is the output.
func countMismatches(sys dataPlane, pool []locastream.Tuple, injected uint64, visit func(op string, inst int, p locastream.Processor)) (uint64, error) {
	got := map[string]map[string]uint64{opA: {}, opB: {}}
	for _, op := range []string{opA, opB} {
		for inst := 0; inst < len(sys.Loads(op)); inst++ {
			err := sys.ProcessorState(op, inst, func(p locastream.Processor) {
				addCounts(got[op], p.(counter))
				if visit != nil {
					visit(op, inst, p)
				}
			})
			if err != nil {
				return 0, fmt.Errorf("read state of %s[%d]: %w", op, inst, err)
			}
		}
	}
	refA, refB := reference(pool, injected)
	return diffCounts(refA, got[opA]) + diffCounts(refB, got[opB]), nil
}

func addCounts(into map[string]uint64, c counter) {
	for _, k := range c.StateKeys() {
		into[k] += c.Count(k)
	}
}

// diffCounts returns how many keys differ between the reference and the
// counts read from the processors, in either direction.
func diffCounts(want, got map[string]uint64) uint64 {
	var n uint64
	for k, w := range want {
		if got[k] != w {
			n++
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			n++
		}
	}
	return n
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// interquartileMean is the mean of the values between the quartiles. It
// is used for Reconfigure rounds, whose durations come in two modes on
// some workloads (a median jumps between the modes from run to run) and
// with stragglers on all (a mean follows them).
func interquartileMean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var total float64
	for _, x := range s {
		total += x
	}
	if len(s) == 0 {
		return 0
	}
	return total / float64(len(s))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func micros(ns float64) float64 { return ns / 1e3 }

// windowQuantile is the median, over the count windows starting at
// first that hold samples, of each window's q-quantile, in microseconds.
func (o *outcome) windowQuantile(first phase, count int, q float64) float64 {
	var v []float64
	for _, h := range o.lat[first : int(first)+count] {
		if h.n > 0 {
			v = append(v, micros(h.quantile(q)))
		}
	}
	return median(v)
}

// pooled merges the count windows starting at first into one histogram.
func (o *outcome) pooled(first phase, count int) *hist {
	h := new(hist)
	for i := range o.lat[first : int(first)+count] {
		h.merge(&o.lat[int(first)+i])
	}
	return h
}

// endToEndMetrics turns an outcome into the end-to-end metric values.
func endToEndMetrics(o *outcome) map[string]float64 {
	return map[string]float64{
		"setup_s":           median(seconds(o.setups)),
		"throughput_tps":    median(o.segments),
		"latency_lo_p50_us": o.windowQuantile(phLo, loWindows, 0.50),
		"latency_lo_p90_us": o.windowQuantile(phLo, loWindows, 0.90),
		"latency_hi_p50_us": o.windowQuantile(phHi, hiWindows, 0.50),
		"reconfig_s":        interquartileMean(seconds(o.rounds)),
	}
}
