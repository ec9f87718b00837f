package main

import (
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/locastream/locastream"
	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/core"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/keygraph"
	"github.com/locastream/locastream/internal/metrics"
	"github.com/locastream/locastream/internal/partition"
	"github.com/locastream/locastream/internal/topology"
)

// sketchCapacity is the public API's default per-instance pair sketch
// size, which the traced pass has to repeat because it assembles the
// engine without NewApp.
const sketchCapacity = 1 << 14

// Kinds of schedule slices, for which the traced pass keeps separate
// counter totals.
const (
	kindRounds = iota
	kindLo
	kindHi
	kindClosed
	kindDone
)

// sliceTotals accumulates, over the slices of one kind, the wire counters
// and the wall time.
type sliceTotals struct {
	wire metrics.WireStats
	wall time.Duration
}

// runtimeSnapshot holds the process-wide counters read at the start and
// at the end of the measured part of a run.
type runtimeSnapshot struct {
	mem      runtime.MemStats
	gcCPU    float64 // seconds
	totalCPU float64 // seconds
	injected uint64
}

// genStamp is the generator's record of one sampled tuple.
type genStamp struct {
	seq             uint32
	ph              phase
	due, start, end time.Duration
}

// round is the benchmark's timing of one control-plane round. candidate
// and deploy wrap the real calls that reconfigured the system; the other
// four wrap a replay of each step on the same statistics window, run
// right after the round with the load still on.
type round struct {
	candidate, deploy                  time.Duration
	collect, graph, partition, compute time.Duration

	cand             *core.Candidate
	pairs            int
	vertices, edges  int
	cutShare         float64
	imbalance        float64
	expectedLocality float64
	keysMigrated     int
}

// tracer owns everything the traced pass records; all of it is read
// after the run.
type tracer struct {
	// on makes the generator and the taps stamp closed-loop tuples too,
	// which is how the cost of tracing is measured.
	on   atomic.Bool
	base time.Time

	live  *engine.Live
	mgr   *core.Manager
	topo  *locastream.Topology
	place *cluster.Placement

	gen  []genStamp
	genN int

	// g is set by begin, which also starts recording control-plane rounds.
	g      *generator
	rounds []round

	// Counter totals per kind of slice: kind is the slice running now,
	// since and sinceWire when it began.
	kind      int
	since     time.Time
	sinceWire metrics.WireStats
	totals    [kindDone]sliceTotals
	first     runtimeSnapshot
	last      runtimeSnapshot

	// tracedSegment[i] tells whether closed-loop segment i ran with
	// tracing on; they alternate to measure the tracing overhead.
	tracedSegment []bool
	goroutines    int

	ringsA, ringsB [parallelism]*ring

	metrics map[string]float64
	spans   []span
}

// span is one interval of a sampled tuple's path, as written to -out.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent uint32 `json:"parent"` // the tuple's sample sequence id
}

// newTracedSystem assembles engine.Live and core.Manager the way NewApp
// does, so the traced pass can reach WireStats, Candidate and
// DeployCandidate, with the benchmark's taps around both processors.
func newTracedSystem(sp spec, base time.Time, sz sizes) (*system, *tracer, error) {
	tr := &tracer{base: base, gen: make([]genStamp, sz.ringCap+1)}
	topo, err := buildTopology(parallelism,
		func() locastream.Processor { return newTapA(locastream.NewCounter(fieldA), tr, sz.ringCap) },
		func() locastream.Processor {
			return &sinkB{counter: locastream.NewCounter(fieldB), base: base, tr: tr, ring: newRing(sz.ringCap)}
		})
	if err != nil {
		return nil, nil, err
	}
	place, err := cluster.NewRoundRobin(topo, servers)
	if err != nil {
		return nil, nil, err
	}
	policies, err := engine.NewPolicies(topo, place, sp.mode)
	if err != nil {
		return nil, nil, err
	}
	src, err := engine.NewSourcePolicy(topo, place, topology.Fields, sp.mode)
	if err != nil {
		return nil, nil, err
	}
	live, err := engine.NewLive(engine.LiveConfig{
		Topology: topo, Placement: place, Policies: policies,
		SourcePolicy: src, SourceGrouping: topology.Fields, SourceKeyField: fieldA,
		SketchCapacity: sketchCapacity, MaxInFlight: maxInFlight, TCPTransport: true,
	})
	if err != nil {
		return nil, nil, err
	}
	mgr, err := core.NewManager(live, topo, place, core.ManagerOptions{})
	if err != nil {
		live.Stop()
		return nil, nil, err
	}
	tr.live, tr.mgr, tr.topo, tr.place = live, mgr, topo, place
	return &system{dataPlane: live, reconfigure: tr.reconfigure, afterRound: tr.replayRound}, tr, nil
}

// reconfigure is Manager.Reconfigure with a timer around each half.
func (tr *tracer) reconfigure() error {
	t0 := time.Now()
	c, err := tr.mgr.Candidate()
	if err != nil {
		return err
	}
	t1 := time.Now()
	if err := tr.mgr.DeployCandidate(c); err != nil {
		return err
	}
	if tr.g != nil {
		tr.rounds = append(tr.rounds, round{
			candidate: t1.Sub(t0), deploy: time.Since(t1), cand: c,
			expectedLocality: c.Plan.ExpectedLocality, keysMigrated: c.Impact.KeysToMigrate,
		})
	}
	return nil
}

// replayRound times the children of the last round one by one, through
// each module's public functions, on the statistics the round used.
func (tr *tracer) replayRound() {
	r := &tr.rounds[len(tr.rounds)-1]
	stats := r.cand.Stats
	r.cand = nil

	// The same request/reply/merge path as CollectPairStats, without
	// consuming the next round's window.
	t0 := time.Now()
	tr.live.PeekPairStats()
	r.collect = time.Since(t0)

	t0 = time.Now()
	g := keygraph.New()
	for _, st := range stats {
		g.AddPairs(st.FromOp, st.ToOp, st.Pairs, 0)
		r.pairs += len(st.Pairs)
	}
	_, weights, adjRaw := g.CSR()
	adj := make([][]partition.Adj, len(adjRaw))
	for i, list := range adjRaw {
		adj[i] = make([]partition.Adj, len(list))
		for j, a := range list {
			adj[i][j] = partition.Adj{To: a.To, Weight: a.Weight}
		}
	}
	r.graph = time.Since(t0)
	r.vertices, r.edges = g.NumVertices(), g.NumEdges()

	t0 = time.Now()
	res, err := partition.Partition(&partition.Graph{Weights: weights, Adj: adj},
		partition.Options{K: servers, Alpha: partition.DefaultAlpha})
	r.partition = time.Since(t0)
	if err == nil {
		r.imbalance = res.Imbalance
		if total := g.TotalEdgeWeight(); total > 0 {
			r.cutShare = float64(res.CutWeight) / float64(total)
		}
	}

	t0 = time.Now()
	if opt, err := core.NewOptimizer(tr.topo, tr.place, core.OptimizerOptions{}); err == nil {
		_, _, _ = opt.ComputeTables(stats)
	}
	r.compute = time.Since(t0)
}

// begin starts the measured part of a traced run.
func (tr *tracer) begin(g *generator) {
	tr.g = g
	tr.kind = kindDone
	tr.first = tr.runtimeSnapshot()
}

func (tr *tracer) runtimeSnapshot() runtimeSnapshot {
	s := runtimeSnapshot{injected: tr.g.injected}
	runtime.ReadMemStats(&s.mem)
	samples := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(samples)
	if samples[0].Value.Kind() == rtmetrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == rtmetrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	return s
}

// stamps tells whether a sampled tuple of window ph is to be stamped at
// every stage: always in the two fixed-rate open loops, whose budget the
// trace reports, and elsewhere only while on is set.
func (tr *tracer) stamps(ph phase) bool { return isOpen(ph) || tr.on.Load() }

// injected records the generator's view of one sampled tuple. Like the
// rings, it keeps open-loop tuples only.
func (tr *tracer) injected(seq uint32, due, start, end time.Duration, ph phase) {
	i := len(tr.gen) - 1
	if isOpen(ph) {
		if tr.genN == i {
			return
		}
		i = tr.genN
		tr.genN++
	}
	tr.gen[i] = genStamp{seq: seq, ph: ph, due: due, start: start, end: end}
}

// tupleTrace gathers every record of one sampled tuple.
type tupleTrace struct {
	gen  genStamp
	t    [numStages]time.Duration
	have uint8 // bit per stage; bit 7: the generator's record
	a, b uint8 // instance of A and of B that handled it
}

const traceComplete = 1<<7 | 1<<numStages - 1

// assemble joins the per-instance rings and the generator's records by
// sample sequence id. Tracing starts long after sampling, so tuples[i]
// is the tuple with sequence id first+i.
func (tr *tracer) assemble() (first uint32, tuples []tupleTrace) {
	if tr.genN == 0 {
		return 0, nil
	}
	first = tr.gen[0].seq
	tuples = make([]tupleTrace, tr.gen[tr.genN-1].seq-first+1)
	for _, gs := range tr.gen[:tr.genN] {
		tuples[gs.seq-first].gen = gs
		tuples[gs.seq-first].have |= 1 << 7
	}
	fill := func(rings [parallelism]*ring, isA bool) {
		for inst, r := range rings {
			for _, st := range r.recs[:r.n] {
				// A tuple whose generator record was dropped has no slot.
				if st.seq < first || st.seq-first >= uint32(len(tuples)) {
					continue
				}
				tt := &tuples[st.seq-first]
				tt.t[st.stage] = st.t
				tt.have |= 1 << st.stage
				if isA {
					tt.a = uint8(inst)
				} else {
					tt.b = uint8(inst)
				}
			}
		}
	}
	fill(tr.ringsA, true)
	fill(tr.ringsB, false)
	return first, tuples
}

// maxSpanTuples bounds how many sampled tuples of each open-loop phase
// have their spans written to -out.
const maxSpanTuples = 256

// finish turns the records into the per-layer metrics. It returns the
// reasons, if any, for which the traced run does not count.
func (tr *tracer) finish(sp spec, o *outcome) []string {
	g := o.gen
	m := make(map[string]float64)
	tr.metrics = m
	var invalid []string

	// The budget of a sampled tuple: how late the generator sent it, the
	// source hop (Inject, mailbox wait), A's logic, the edge hop (route,
	// sketch, mailbox or wire, wait at B) and B's logic. The five parts
	// partition the interval from due time to the end of B.Process, so a
	// residual can only come from records that were dropped.
	var (
		covered, busyA, busyB         time.Duration
		inject, source, local, remote hist
		written                       [2]int // spans written per open-loop rate
	)
	firstSeq, tuples := tr.assemble()
	for i, tt := range tuples {
		seq, ph := firstSeq+uint32(i), tt.gen.ph
		if tt.have != traceComplete {
			continue
		}
		parts := [...]struct {
			name       string
			start, end time.Duration
		}{
			{"gen.late", tt.gen.due, tt.gen.start},
			{"engine.source_hop", tt.gen.start, tt.t[stageAStart]},
			{"topology.process_a", tt.t[stageAStart], tt.t[stageAEmit]},
			{"engine.hop", tt.t[stageAEmit], tt.t[stageBStart]},
			{"topology.process_b", tt.t[stageBStart], tt.t[stageBEnd]},
		}
		for _, p := range parts {
			covered += p.end - p.start
		}
		rate := 0
		if ph >= phHi {
			rate = 1
		}
		if written[rate] < maxSpanTuples {
			written[rate]++
			tr.spans = append(tr.spans, span{Name: "tuple", Start: int64(tt.gen.due), End: int64(tt.t[stageBEnd]), Parent: seq})
			for _, p := range parts {
				tr.spans = append(tr.spans, span{Name: p.name, Start: int64(p.start), End: int64(p.end), Parent: seq})
			}
			tr.spans = append(tr.spans, span{Name: "engine.inject", Start: int64(tt.gen.start), End: int64(tt.gen.end), Parent: seq})
		}
		inject.record(tt.gen.end - tt.gen.start)
		source.record(tt.t[stageAStart] - tt.gen.start)
		// Instance i of both operators lives on server i, so equal
		// instances mean a hop that stayed in memory.
		if hop := tt.t[stageBStart] - tt.t[stageAEmit]; tt.a == tt.b {
			local.record(hop)
		} else {
			remote.record(hop)
		}
		busyA += tt.t[stageAEnd] - tt.t[stageAStart]
		busyB += tt.t[stageBEnd] - tt.t[stageBStart]
	}
	m["engine.inject_ns"] = inject.quantile(0.5)
	m["engine.source_hop_us"] = micros(source.quantile(0.5))
	m["engine.hop_local_us"] = micros(local.quantile(0.5))
	m["engine.hop_remote_us"] = micros(remote.quantile(0.5))
	m["engine.hop_remote_p99_us"] = micros(remote.quantile(0.99))

	openLat := o.pooled(phLo, loWindows+hiWindows)
	total := openLat.sum
	residual := 1.0
	if total > 0 {
		residual = 1 - float64(covered)/float64(total)
	}
	m["trace.budget_residual_share"] = residual
	if residual >= 0.05 {
		invalid = append(invalid, fmt.Sprintf("trace budget residual %.3f >= 0.05", residual))
	}
	var onTPS, offTPS []float64
	for i, tps := range o.segments {
		if tr.tracedSegment[i] {
			onTPS = append(onTPS, tps)
		} else {
			offTPS = append(offTPS, tps)
		}
	}
	if off := median(offTPS); off > 0 {
		m["trace.overhead_share"] = 1 - median(onTPS)/off
	}

	// Share of the open-loop window each operator's executors spent in
	// Process (A's includes the engine's route, sketch and send), scaled
	// up from the sampled tuples.
	window := tr.totals[kindLo].wall + tr.totals[kindHi].wall
	m["engine.exec_busy_share_a"] = float64(busyA) * sampleEvery / float64(window*parallelism)
	m["engine.exec_busy_share_b"] = float64(busyB) * sampleEvery / float64(window*parallelism)
	m["engine.locality"] = o.locality
	m["engine.load_imbalance"] = o.imbalance

	m["gen.late_p99_us"] = micros(g.late.quantile(0.99))
	if g.open > 0 {
		m["gen.inject_block_share"] = float64(g.busy) / float64(g.open)
	}
	during := o.pooled(phDuring, duringWindows)
	openLat.merge(during)
	m["gen.over_limit_share"] = openLat.above(100 * time.Millisecond)
	m["core.latency_during_p50_us"] = o.windowQuantile(phDuring, duringWindows, 0.50)
	m["core.latency_during_p99_us"] = micros(during.quantile(0.99))

	// Control plane: medians over the rounds.
	col := func(f func(round) float64) float64 {
		v := make([]float64, len(tr.rounds))
		for i, r := range tr.rounds {
			v[i] = f(r)
		}
		return median(v)
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	m["core.candidate_ms"] = col(func(r round) float64 { return ms(r.candidate) })
	m["engine.deploy_ms"] = col(func(r round) float64 { return ms(r.deploy) })
	m["engine.collect_stats_ms"] = col(func(r round) float64 { return ms(r.collect) })
	m["keygraph.build_ms"] = col(func(r round) float64 { return ms(r.graph) })
	m["partition.partition_ms"] = col(func(r round) float64 { return ms(r.partition) })
	m["core.compute_tables_ms"] = col(func(r round) float64 { return ms(r.compute) })
	m["keygraph.vertices"] = col(func(r round) float64 { return float64(r.vertices) })
	m["keygraph.edges"] = col(func(r round) float64 { return float64(r.edges) })
	m["spacesaving.pairs_reported"] = col(func(r round) float64 { return float64(r.pairs) })
	m["partition.cut_share"] = col(func(r round) float64 { return r.cutShare })
	m["partition.imbalance"] = col(func(r round) float64 { return r.imbalance })
	var migrated int
	for _, r := range tr.rounds {
		migrated += r.keysMigrated
	}
	m["engine.keys_migrated"] = float64(migrated)
	m["core.locality_after"] = o.locality
	if n := len(tr.rounds); n > 0 && sp.mode == engine.FieldsTable {
		m["core.locality_gap"] = tr.rounds[n-1].expectedLocality - o.locality
	}

	// Share of the stream's B keys the deployed table resolves.
	if table := tr.mgr.Tables()[opB]; table != nil && sp.mode == engine.FieldsTable {
		var hit int
		for _, t := range g.pool {
			if _, ok := table.Assign[t.Values[fieldB]]; ok {
				hit++
			}
		}
		m["routing.table_hit_share"] = float64(hit) / float64(len(g.pool))
	}

	// Transport, from WireStats deltas: the closed loop for the size-flush
	// regime, the low-rate open loop for the timer-flush regime.
	sat := tr.totals[kindClosed].wire
	m["transport.wire_bytes_per_tuple"] = sat.WireBytesPerTuple()
	m["transport.encode_ns_per_tuple"] = sat.EncodeNsPerTuple()
	m["transport.tuples_per_frame"] = sat.TuplesPerFrame()
	m["transport.frames_per_writev"] = sat.FramesPerWritev()
	m["transport.compression_ratio"] = sat.CompressionRatio()
	m["transport.dict_hit_share"] = sat.DictHitRate()
	if sat.TuplesSent > 0 {
		m["transport.syscalls_per_ktuple"] = 1000 * float64(sat.WritevCalls) / float64(sat.TuplesSent)
	}
	m["transport.flush_timer_share_sat"] = timerShare(sat)
	m["transport.flush_timer_share_lo"] = timerShare(tr.totals[kindLo].wire)
	if sp.name == "remote-sat" && sat.WireBytesPerTuple() < payloadBytes-12 {
		invalid = append(invalid, fmt.Sprintf("wire bytes per tuple %.0f: the payload did not reach the wire", sat.WireBytesPerTuple()))
	}

	// Runtime, over the whole measured window.
	first, last := &tr.first, &tr.last
	if tuples := float64(last.injected - first.injected); tuples > 0 {
		m["runtime.allocs_per_tuple"] = float64(last.mem.Mallocs-first.mem.Mallocs) / tuples
		m["runtime.bytes_per_tuple"] = float64(last.mem.TotalAlloc-first.mem.TotalAlloc) / tuples
	}
	if cpu := last.totalCPU - first.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_share"] = (last.gcCPU - first.gcCPU) / cpu
	}
	var pauseMax uint64
	for n := last.mem.NumGC; n > first.mem.NumGC && last.mem.NumGC-n < uint32(len(last.mem.PauseNs)); n-- {
		if p := last.mem.PauseNs[(n+255)%256]; p > pauseMax {
			pauseMax = p
		}
	}
	m["runtime.gc_pause_max_us"] = micros(float64(pauseMax))
	m["runtime.peak_rss_mb"] = peakRSSMB(&last.mem)
	m["runtime.goroutines"] = float64(tr.goroutines)
	return invalid
}

func timerShare(w metrics.WireStats) float64 {
	if w.FramesSent == 0 {
		return 0
	}
	return float64(w.FlushTimer) / float64(w.FramesSent)
}

// addWireDelta adds to total the counters this benchmark reads, as
// accumulated between snapshots a and b.
func addWireDelta(total *metrics.WireStats, a, b metrics.WireStats) {
	total.FramesSent += b.FramesSent - a.FramesSent
	total.TuplesSent += b.TuplesSent - a.TuplesSent
	total.BytesSent += b.BytesSent - a.BytesSent
	total.RawBytesSent += b.RawBytesSent - a.RawBytesSent
	total.DictBytesSent += b.DictBytesSent - a.DictBytesSent
	total.DictHits += b.DictHits - a.DictHits
	total.DictMisses += b.DictMisses - a.DictMisses
	total.FlushTimer += b.FlushTimer - a.FlushTimer
	total.WritevCalls += b.WritevCalls - a.WritevCalls
	total.WritevFrames += b.WritevFrames - a.WritevFrames
	total.EncodeNanos += b.EncodeNanos - a.EncodeNanos
}

// peakRSSMB reads the process's resident-set high-water mark, falling
// back to the memory the Go runtime obtained from the OS where /proc is
// not available.
func peakRSSMB(mem *runtime.MemStats) float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			// "VmHWM:    123456 kB"
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return float64(mem.Sys) / (1 << 20)
}

// The methods below are called by runWorkload on every run; on an
// end-to-end run tr is nil and they do nothing.

// enter closes the slice that was running, adding its wire counters and
// wall time to the totals of its kind, and starts one of the given kind.
func (tr *tracer) enter(kind int) {
	if tr == nil {
		return
	}
	now, wire := time.Now(), tr.live.WireStats()
	if tr.kind != kindDone {
		t := &tr.totals[tr.kind]
		addWireDelta(&t.wire, tr.sinceWire, wire)
		t.wall += now.Sub(tr.since)
	}
	tr.kind, tr.since, tr.sinceWire = kind, now, wire
	if kind != kindClosed {
		tr.on.Store(false)
	}
	if kind == kindDone {
		tr.last = tr.runtimeSnapshot()
	}
}

// betweenSegments returns the closed loop's per-segment hook: tracing is
// on in every other segment of the run, so one run yields both sides of
// trace.overhead_share.
func (tr *tracer) betweenSegments() func() {
	if tr == nil {
		return nil
	}
	return func() {
		traced := len(tr.tracedSegment)%2 == 0
		tr.on.Store(traced)
		tr.tracedSegment = append(tr.tracedSegment, traced)
		tr.goroutines = runtime.NumGoroutine()
	}
}

func (tr *tracer) collectA(inst int, p locastream.Processor) {
	if tr != nil {
		tr.ringsA[inst] = &p.(*tapA).ring
	}
}

func (tr *tracer) collectB(inst int, s *sinkB) {
	if tr != nil {
		tr.ringsB[inst] = &s.ring
	}
}
