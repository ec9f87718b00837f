package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/metrics"
	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/spacesaving"
	"github.com/locastream/locastream/internal/state"
	"github.com/locastream/locastream/internal/topology"
	"github.com/locastream/locastream/internal/transport"
)

// KeyMove records one key changing owner instance during a
// reconfiguration.
type KeyMove struct {
	Key  string
	From int
	To   int
}

// ReconfigPlan is the deployable output of the optimizer: the new routing
// tables per recipient operator plus, for every stateful operator, the
// keys whose owner changes (the migration workload).
type ReconfigPlan struct {
	Tables map[string]*routing.Table
	Moves  map[string][]KeyMove
}

// LiveConfig configures a concurrent engine.
type LiveConfig struct {
	// Topology is the validated application DAG.
	Topology *topology.Topology
	// Placement assigns instances to servers.
	Placement *cluster.Placement
	// Policies maps EdgeKey(from, to) to the edge's routing policy.
	Policies map[string]routing.Policy
	// SourcePolicy routes injected tuples to the source operator.
	SourcePolicy routing.Policy
	// SourceGrouping is the grouping of the implicit source hop; the
	// zero value means Fields.
	SourceGrouping topology.Grouping
	// SourceKeyField is the field used as key on the source hop (Fields
	// grouping only).
	SourceKeyField int
	// SketchCapacity bounds per-instance pair sketches (0 disables
	// instrumentation).
	SketchCapacity int
	// MaxInFlight blocks Inject while this many externally injected
	// tuples are unprocessed (0 means unlimited). Internal forwards are
	// never blocked, which keeps the reconfiguration protocol
	// deadlock-free.
	MaxInFlight int
	// MaxBuffered bounds each executor's migration buffer (0 means
	// unbounded). During planned reconfigurations state arrives promptly
	// and the bound is irrelevant; during failure recovery the restore
	// may be delayed, so a bound turns unbounded memory growth into
	// counted tuple loss (see Stats.TuplesLost).
	MaxBuffered int
	// TCPTransport routes every cross-server message (tuples, state
	// migrations, propagation markers) through real localhost TCP
	// connections, one per server pair, exercising serialization and the
	// kernel network path. Same-server messages stay in memory — exactly
	// the asymmetry the paper exploits.
	TCPTransport bool
	// WireCompression selects the transport's data-frame encoding when
	// TCPTransport is on. The zero value (transport.CompressionAuto)
	// enables the per-connection dictionary plus the per-frame LZ pass;
	// transport.CompressionOff keeps the raw PR 4 encoding.
	WireCompression transport.Compression
	// FlushBytes/FlushInterval set the transport's batching thresholds
	// when TCPTransport is on (zero values take the transport defaults);
	// they are fixed for the engine's lifetime.
	FlushBytes    int
	FlushInterval time.Duration
	// KeySplitting enables hot-key splitting (Partial Key Grouping):
	// promoted keys route 2-of-d-choices over a replica set and replicas'
	// partials are folded back with the operator's associative combine.
	// Enabling it turns on per-mailbox queue-depth tracking (the 2-choice
	// load signal); disabled, the data path is bit-identical to before.
	KeySplitting bool
	// ActiveServers is the initial per-server membership vector for
	// elastic scaling (nil means every server is active). The placement
	// is built at full capacity; inactive servers keep their executors
	// parked — mailboxes open, processing nothing routed to them — until
	// AddServer brings them into the usable set.
	ActiveServers []bool
}

// Live executes a topology with one goroutine per operator instance and
// real message passing, including the online reconfiguration protocol of
// §3.4. Create with NewLive, stop with Stop.
type Live struct {
	cfg   LiveConfig
	topo  *topology.Topology
	place *cluster.Placement

	execs map[string][]*executor
	all   []*executor

	inflight *inflightCounter
	wg       sync.WaitGroup
	stopped  atomic.Bool

	// wireDrops counts transport messages discarded because they could
	// not be delivered to any executor (corrupt address or unknown
	// kind). A non-zero value indicates wire corruption or a
	// sender/receiver version mismatch; the TCP pipeline tests assert it
	// stays zero.
	wireDrops atomic.Uint64

	// tuplesLost counts data tuples that could not be processed because
	// their target died: messages discarded from a killed mailbox,
	// forwards rejected by a dead instance, and migration-buffer
	// overflow. This is the "bounded loss" the checkpoint subsystem
	// trades the at-most-once guarantee for.
	tuplesLost atomic.Uint64

	// dead marks killed servers (see KillServer); hbRecv counts
	// heartbeat probes delivered over the wire.
	dead   []atomic.Bool
	hbRecv atomic.Uint64

	// active marks servers inside the elastic membership (see AddServer
	// / DecommissionServer). A server is usable — routable, eligible as
	// a split replica, counted by the repair planner — iff it is alive
	// AND active. Unlike dead, active is administrative and reversible.
	active []atomic.Bool

	// Hot-key splitting state (KeySplitting only): splits maps op -> key
	// -> replica set (replicas[0] = owner) and mirrors the split entries
	// installed in the shared routing policies; the counters feed
	// SplitStats.
	splitMu         sync.Mutex
	splits          map[string]map[string][]int
	splitPromotions atomic.Uint64
	splitDemotions  atomic.Uint64
	mergesSent      atomic.Uint64
	mergesApplied   atomic.Uint64

	// windowLoad[s] is the number of tuples server s processed in the
	// last completed statistics window and loadMark[s] its cumulative
	// count when that window closed (both under splitMu; windowLoad is
	// nil until the first CollectPairStats). PromoteSplit ranks replica
	// candidates by it.
	windowLoad, loadMark []uint64

	fabric *transport.Fabric
	// wire accumulates the transport's frame/batch counters when a TCP
	// fabric is attached (nil otherwise).
	wire *metrics.WireMeter
	// wireOut[s] counts tuples flushed onto the wire towards server s
	// and not yet drained by s's reader — the frames sitting in kernel
	// buffers or mid-decode. When s is killed, whatever remains after
	// its node closes can never be delivered and is settled as loss
	// (KillServer); at every other time the counter is only monitoring.
	wireOut []atomic.Int64
	// wireRuns recycles deliverWireBatch's per-frame scratch (*[]message)
	// across the transport's reader goroutines.
	wireRuns sync.Pool

	srcSeq atomic.Uint64
	// srcMu makes Inject's route-then-enqueue atomic against Reconfigure
	// switching the source table and sending the first PROPAGATE: a tuple
	// routed with the old table must reach its instance before that
	// instance's PROPAGATE, or it would run after the key's state had
	// migrated away and recreate the state at the old owner.
	srcMu sync.RWMutex
}

// message is the single envelope an executor's mailbox carries: data
// tuples, the two protocol messages that cross the wire (MIGRATE and
// PROPAGATE), and control calls. It is copied at every handoff of every
// tuple, so it holds only what data needs plus one pointer per rarer
// kind (88 B on 64-bit platforms).
type message struct {
	kind msgKind

	tuple topology.Tuple
	keyOp string // operator whose routing key last applied to the tuple
	key   string // that key (buffering, instrumentation); a MIGRATE's key

	// mig is a MIGRATE's snapshot; nil means the sender held no state for
	// the key.
	mig *migration

	call callFn
}

type msgKind int

const (
	msgData msgKind = iota + 1
	msgPropagate
	msgMigrate
	// msgCall runs a control step on the executor; see callFn.
	msgCall
)

// migration is the payload of a MIGRATE that carries state.
type migration struct {
	// data may be empty: "empty state" and "no state" (a nil *migration)
	// are different, so the wire carries the distinction as its own bit.
	data []byte
	// merge marks data as a split-key partial to fold with MergeKey
	// instead of installing with RestoreKey. Merge records are
	// engine-internal and never cross the wire encoder.
	merge bool
}

// callFn is a control step (GET_METRICS, SEND_RECONF, a checkpoint, a
// barrier, ...) run on an executor's goroutine. It shares the data
// mailbox, so it runs after every message enqueued before it: the §3.4
// wave, the restore barrier and the demote barrier depend on exactly
// that. If a kill discards it from the mailbox it runs with e == nil on
// the killing goroutine instead, and must then release whatever its
// caller waits on. runCalls is the only place that builds one.
type callFn func(e *executor)

// runCalls runs fn(i, execs[i]) on every executor's goroutine, in its
// mailbox order, and returns once each call has run or been discarded —
// never blocking on a stopped or killed executor. fn writes its results
// into the caller's slot i. missed is the index of the first executor
// whose call did not run (stopped, or killed before it ran), or -1.
func runCalls(execs []*executor, fn func(i int, e *executor)) (missed int) {
	var wg sync.WaitGroup
	ran := make([]bool, len(execs))
	for i, ex := range execs {
		wg.Add(1)
		if !ex.box.put(message{kind: msgCall, call: func(e *executor) {
			defer wg.Done()
			if e != nil {
				fn(i, e)
				ran[i] = true
			}
		}}) {
			wg.Done()
		}
	}
	wg.Wait()
	for i, ok := range ran {
		if !ok {
			return i
		}
	}
	return -1
}

// KeyState is one checkpointed key: the owning operator and instance at
// snapshot time, and the serialized per-key state.
type KeyState struct {
	Op   string
	Inst int
	Key  string
	Data []byte

	// Split marks a record snapshotted while the key was promoted; the
	// record then holds only the partial accumulated at Inst, and
	// Replicas is the full replica set at snapshot time (Replicas[0] is
	// the owner). The checkpoint store keeps one record per replica for
	// split keys — and uses Replicas to prune partials from older split
	// epochs — instead of collapsing to a single owner record.
	Split    bool
	Replicas []int
	// Merge is set on restore-time records only: the payload is a
	// partial to fold with MergeKey into live state rather than a full
	// snapshot to install with RestoreKey.
	Merge bool
}

// instPairStat is one executor's sketch snapshot for one operator pair.
type instPairStat struct {
	fromOp string
	toOp   string
	pairs  []spacesaving.PairCounter
}

// instReconfig is the §3.4 reconfiguration payload for one instance:
// "reconfiguration_router, reconfiguration_send, reconfiguration_receive".
type instReconfig struct {
	tables map[string]*routing.Table // recipient op -> new table
	send   map[string]int            // key -> recipient sibling instance
	recv   map[string]int            // key -> sender sibling instance
	done   *sync.WaitGroup           // counted down once migration completes
}

// NewLive validates cfg and starts one goroutine per instance.
func NewLive(cfg LiveConfig) (*Live, error) {
	if cfg.Topology == nil || cfg.Placement == nil {
		return nil, errors.New("engine: live needs a topology and a placement")
	}
	if cfg.SourcePolicy == nil {
		return nil, errors.New("engine: live needs a source policy")
	}
	for _, e := range cfg.Topology.Edges() {
		if cfg.Policies[EdgeKey(e.From, e.To)] == nil {
			return nil, fmt.Errorf("engine: no policy for edge %s", EdgeKey(e.From, e.To))
		}
	}

	if cfg.ActiveServers != nil {
		if len(cfg.ActiveServers) != cfg.Placement.Servers() {
			return nil, fmt.Errorf("engine: %d membership entries for %d servers",
				len(cfg.ActiveServers), cfg.Placement.Servers())
		}
		any := false
		for _, on := range cfg.ActiveServers {
			any = any || on
		}
		if !any {
			return nil, errors.New("engine: no active servers")
		}
	}

	l := &Live{
		cfg:      cfg,
		topo:     cfg.Topology,
		place:    cfg.Placement,
		execs:    make(map[string][]*executor),
		inflight: newInflightCounter(cfg.MaxInFlight),
		dead:     make([]atomic.Bool, cfg.Placement.Servers()),
		active:   make([]atomic.Bool, cfg.Placement.Servers()),
	}
	someInactive := false
	for s := range l.active {
		on := cfg.ActiveServers == nil || cfg.ActiveServers[s]
		l.active[s].Store(on)
		someInactive = someInactive || !on
	}

	for _, op := range cfg.Topology.Operators() {
		// Propagation fan-in: the source operator is triggered by the
		// manager (one PROPAGATE); the others by every predecessor
		// instance.
		needed := 1
		if preds := cfg.Topology.Predecessors(op.Name); len(preds) > 0 {
			needed = 0
			for _, p := range preds {
				needed += cfg.Placement.Parallelism(p)
			}
		}
		insts := make([]*executor, op.Parallelism)
		for i := range insts {
			insts[i] = &executor{
				eng:              l,
				op:               cfg.Topology.Operator(op.Name),
				inst:             i,
				server:           cfg.Placement.ServerOf(op.Name, i),
				proc:             op.New(),
				box:              newMailbox(),
				sketches:         make(map[[2]string]*spacesaving.PairSketch),
				buf:              state.NewBuffer(),
				propagatesNeeded: needed,
			}
			insts[i].emitFn = insts[i].emit
			if cfg.TCPTransport {
				insts[i].wireMarked = make([]bool, cfg.Placement.Servers())
			}
			insts[i].buf.SetLimit(cfg.MaxBuffered)
			insts[i].box.trackDepth = cfg.KeySplitting
			// Stateful executors track which keys changed since the last
			// checkpoint, so incremental checkpoints skip clean keys.
			if keyed, ok := insts[i].proc.(topology.Keyed); ok {
				insts[i].keyed = keyed
				insts[i].dirty = make(map[string]struct{})
			}
			if m, ok := insts[i].proc.(topology.Mergeable); ok {
				insts[i].mergeable = m
			}
		}
		l.execs[op.Name] = insts
		l.all = append(l.all, insts...)
	}
	// Resolve every executor's out-edges once, now that all recipient
	// executors exist: the per-tuple forward path then runs without map
	// lookups, string building or engine-global locks.
	for _, ex := range l.all {
		ex.edges = l.resolveEdges(ex)
	}
	if cfg.KeySplitting {
		l.splits = make(map[string]map[string][]int)
		l.installLoadProbes()
	}
	if cfg.TCPTransport {
		l.wire = new(metrics.WireMeter)
		l.wireOut = make([]atomic.Int64, cfg.Placement.Servers())
		fabric, err := transport.NewFabricWith(cfg.Placement.Servers(), func(_ int, msg transport.Message) {
			l.deliverWire(msg)
		}, transport.NodeOptions{
			Compression:   cfg.WireCompression,
			FlushBytes:    cfg.FlushBytes,
			FlushInterval: cfg.FlushInterval,
			// Batched data frames are drained into mailboxes one target
			// at a time (deliverWireBatch); control traffic (migrations,
			// propagation markers, heartbeats) still arrives one message
			// at a time through deliverWire.
			BatchHandler: l.deliverWireBatch,
			// A broken connection discards the tuples batched behind it;
			// each carries one in-flight count from its sender, which must
			// be settled or Drain would wait forever on tuples that no
			// longer exist.
			DropHandler: l.noteWireDataDrops,
			// Flushed-but-undrained bookkeeping: the other half of the
			// loss accounting, settled by KillServer for frames a dead
			// server will never decode.
			FlushedHandler: func(peer, tuples int) {
				l.wireOut[peer].Add(int64(tuples))
			},
			Meter: l.wire,
			// Per-tier wire accounting: the placement's tier list is
			// immutable after construction, so the classifier is pure.
			PeerTier: cfg.Placement.Tier,
		})
		if err != nil {
			return nil, fmt.Errorf("engine: start transport: %w", err)
		}
		l.fabric = fabric
	}
	if someInactive {
		// Route around the parked servers from the first tuple on:
		// hash-fallback keys detour over the active set exactly as they
		// detour around dead servers. Parked servers also start detached
		// from the fabric — AddServer re-attaches them — keeping the
		// wire topology congruent with the membership.
		l.ApplyAliveRouting()
		if l.fabric != nil {
			for s := range l.active {
				if !l.active[s].Load() {
					l.fabric.Detach(s)
				}
			}
		}
	}
	for _, ex := range l.all {
		l.wg.Add(1)
		go ex.run()
	}
	return l, nil
}

// deliverWire converts a transport message back into an engine message
// and enqueues it at the addressed instance.
func (l *Live) deliverWire(msg transport.Message) {
	if msg.Kind == transport.KindHeartbeat {
		l.hbRecv.Add(1)
		return
	}
	insts := l.execs[msg.To.Op]
	if msg.To.Instance < 0 || msg.To.Instance >= len(insts) {
		l.wireDrops.Add(1) // corrupt address; drop, but leave a trace
		return
	}
	box := insts[msg.To.Instance].box
	switch msg.Kind {
	case transport.KindMigrate:
		m := message{kind: msgMigrate, key: msg.MigKey}
		if msg.MigHasData {
			m.mig = &migration{data: msg.MigData}
		}
		box.put(m)
	case transport.KindPropagate:
		box.put(message{kind: msgPropagate})
	default:
		l.wireDrops.Add(1) // unknown kind (version mismatch); drop
	}
}

// deliverWireBatch drains one decoded data frame into mailboxes. Tuples
// are grouped into runs with the same recipient, and each run is
// enqueued under a single mailbox lock acquisition — the receive-side
// payoff of wire batching. The transport reuses msgs for the next
// frame, so the engine messages are built before returning; what they
// point to is handed over as it is. A tuple's Values is its share of
// the frame's value slab and its long strings are substrings of the
// frame's arena (transport.BatchHandler): both belong to the garbage
// collector alone, so a tuple may sit in a mailbox or a migration
// buffer for as long as it takes, and costs no allocation to deliver.
func (l *Live) deliverWireBatch(node int, msgs []transport.Message) {
	// The frame is off the wire: these tuples are no longer outstanding
	// towards this server, whatever happens to them below (delivery,
	// corrupt-address drop, or killed-mailbox loss — each settles the
	// in-flight count on its own path).
	l.wireOut[node].Add(-int64(len(msgs)))
	scratch, _ := l.wireRuns.Get().(*[]message)
	if scratch == nil {
		scratch = new([]message)
	}
	run := *scratch
	for i := 0; i < len(msgs); {
		to := msgs[i].To
		j := i + 1
		for j < len(msgs) && msgs[j].To == to {
			j++
		}
		insts := l.execs[to.Op]
		if to.Instance < 0 || to.Instance >= len(insts) {
			// Corrupt addresses; drop, but leave a trace (cf. deliverWire).
			l.wireDrops.Add(uint64(j - i))
			i = j
			continue
		}
		run = run[:0]
		for k := i; k < j; k++ {
			run = append(run, message{
				kind:  msgData,
				tuple: topology.Tuple{Values: msgs[k].Values, Padding: msgs[k].Padding},
				keyOp: msgs[k].KeyOp,
				key:   msgs[k].Key,
			})
		}
		if !insts[to.Instance].box.putBatch(run) {
			// The instance died between the wire send and delivery; the
			// senders already counted these tuples in flight.
			l.noteWireDataDrops(j - i)
		}
		// The mailbox copied the run; drop its payload references before
		// the scratch is kept for a later frame.
		clear(run)
		i = j
	}
	*scratch = run[:0]
	l.wireRuns.Put(scratch)
}

// noteWireDataDrops settles the accounting for data tuples that made it
// onto the wire but will never be processed: sender batches discarded
// on a broken connection, and frames delivered to a killed mailbox.
func (l *Live) noteWireDataDrops(n int) {
	for i := 0; i < n; i++ {
		l.inflight.dec()
	}
	l.tuplesLost.Add(uint64(n))
}

// WireDrops returns the number of transport messages dropped because they
// were undeliverable (corrupt address or unknown kind).
func (l *Live) WireDrops() uint64 { return l.wireDrops.Load() }

// WireStats returns the transport's frame/batch counters (zero without
// a TCP fabric).
func (l *Live) WireStats() metrics.WireStats {
	if l.wire == nil {
		return metrics.WireStats{}
	}
	return l.wire.Snapshot()
}

// sendWire encodes msg for the TCP fabric and reports whether it was
// handed to the transport; false means the caller must deliver directly
// (unencodable kind, or transport failure during shutdown).
func (l *Live) sendWire(toOp string, toInst, fromServer, toServer int, msg message) bool {
	wire := transport.Message{To: transport.Addr{Op: toOp, Instance: toInst}}
	switch msg.kind {
	case msgData:
		wire.Kind = transport.KindData
		wire.Values = msg.tuple.Values
		wire.Padding = msg.tuple.Padding
		wire.KeyOp = msg.keyOp
		wire.Key = msg.key
	case msgMigrate:
		if msg.mig != nil && msg.mig.merge {
			// The wire encoding has no merge flag; merge records are
			// engine-internal control traffic and deliver directly.
			return false
		}
		wire.Kind = transport.KindMigrate
		wire.MigKey = msg.key
		if msg.mig != nil {
			wire.MigData, wire.MigHasData = msg.mig.data, true
		}
	case msgPropagate:
		wire.Kind = transport.KindPropagate
	default:
		return false
	}
	return l.fabric.Send(fromServer, toServer, wire) == nil
}

// send routes a data/migrate/propagate message to an instance, over TCP
// when the recipient lives on a different server and a fabric is
// attached. Transport failures (only possible during shutdown) fall back
// to direct delivery.
func (l *Live) send(toOp string, toInst, fromServer int, msg message) {
	toServer := l.place.ServerOf(toOp, toInst)
	if l.fabric != nil && fromServer >= 0 && toServer >= 0 && toServer != fromServer &&
		l.sendWire(toOp, toInst, fromServer, toServer, msg) {
		return
	}
	l.execs[toOp][toInst].box.put(msg)
}

// Inject routes one external tuple into the topology. It blocks when
// MaxInFlight is configured and reached, providing source backpressure.
// Injecting into a stopped engine returns an error.
func (l *Live) Inject(t topology.Tuple) error {
	if l.stopped.Load() {
		return errors.New("engine: inject on stopped engine")
	}
	srcOp := l.topo.Source()
	keyOp, key := "", ""
	if l.cfg.SourceGrouping == 0 || l.cfg.SourceGrouping == topology.Fields {
		key = t.Field(l.cfg.SourceKeyField)
		keyOp = srcOp
	}
	// Backpressure blocks before srcMu is taken, so a parked injector
	// never holds up a reconfiguration.
	l.inflight.incExternal()
	l.srcMu.RLock()
	inst := l.cfg.SourcePolicy.Route(key, -1, l.srcSeq.Add(1))
	// A concurrent Stop may close the mailbox between the stopped check
	// above and the enqueue (or the routed instance may live on a killed
	// server); the rejected put must roll the in-flight counter back, or
	// Drain/waitZero would wait forever on a tuple that was never
	// accepted.
	ok := l.execs[srcOp][inst].box.put(message{kind: msgData, tuple: t, keyOp: keyOp, key: key})
	l.srcMu.RUnlock()
	if !ok {
		l.inflight.dec()
		return fmt.Errorf("engine: inject rejected: instance %s[%d] is stopped or dead", srcOp, inst)
	}
	return nil
}

// Drain blocks until every injected tuple has been fully processed
// (tuples buffered while awaiting migrated state are excluded; they are
// flushed by the in-progress reconfiguration).
func (l *Live) Drain() { l.inflight.waitZero() }

// Stop drains outstanding work, terminates all executors and waits for
// them to exit. Stop is idempotent.
func (l *Live) Stop() {
	if l.stopped.Swap(true) {
		return
	}
	l.Drain()
	for _, ex := range l.all {
		ex.box.close()
	}
	l.wg.Wait()
	if l.fabric != nil {
		l.fabric.Close()
	}
}

// Stats is a point-in-time aggregate of the engine's operational
// signals, collected without stopping the stream: every field is read
// from per-executor atomics or uncontended per-edge accumulators, so a
// snapshot costs microseconds and can be taken on every controller tick.
type Stats struct {
	// Fields is the cumulative traffic over all fields-grouped edges.
	Fields metrics.Traffic
	// Loads maps each operator to tuples processed per instance
	// (cumulative).
	Loads map[string][]uint64
	// InFlight is the number of injected-but-unprocessed tuples at the
	// moment of the snapshot.
	InFlight int64
	// WireDrops is the cumulative count of undeliverable transport
	// messages (see Live.WireDrops).
	WireDrops uint64
	// TuplesLost is the cumulative count of data tuples lost to server
	// failures (killed mailboxes, sends to dead instances, migration
	// buffer overflow).
	TuplesLost uint64
	// Alive reports, per server, whether it has not been killed.
	Alive []bool
	// Wire holds the TCP transport's frame/batch counters (all zero
	// without a fabric).
	Wire metrics.WireStats
	// Split holds the hot-key splitting counters (all zero unless
	// KeySplitting is enabled).
	Split SplitStats
}

// StatsSnapshot aggregates the engine's cheap operational signals. Unlike
// CollectPairStats it does not touch the pair sketches, does not reset
// any window and never blocks on executor mailboxes, so it is safe to
// call at any frequency, including on a stopped engine.
func (l *Live) StatsSnapshot() Stats {
	st := Stats{
		Fields:     l.FieldsTraffic(),
		Loads:      make(map[string][]uint64, len(l.execs)),
		InFlight:   l.inflight.n.Load(),
		WireDrops:  l.wireDrops.Load(),
		TuplesLost: l.tuplesLost.Load(),
		Alive:      l.AliveServers(),
		Wire:       l.WireStats(),
		Split:      l.SplitStatsSnapshot(),
	}
	for op := range l.execs {
		st.Loads[op] = l.Loads(op)
	}
	return st
}

// CollectPairStats performs steps 1-2 of Algorithm 1: every instance
// reports (and resets) its pair sketches; the results are merged per
// operator pair. Stopped and killed instances report nothing, so on a
// stopped engine the call degrades to an empty report instead of
// blocking forever.
func (l *Live) CollectPairStats() []PairStat {
	stats := l.pairStats(true)
	l.closeLoadWindow()
	return stats
}

// PeekPairStats reports the merged pair sketches WITHOUT resetting the
// per-instance measurement windows, so it can run on every checkpoint
// tick without consuming the optimizer's signal. The checkpoint
// subsystem retains the latest peek: after a server dies its sketches
// are gone, and recovery needs the last known key co-occurrence graph
// to place the dead keys next to their correlated survivors.
func (l *Live) PeekPairStats() []PairStat { return l.pairStats(false) }

func (l *Live) pairStats(reset bool) []PairStat {
	snaps := make([][]instPairStat, len(l.all))
	runCalls(l.all, func(i int, e *executor) { snaps[i] = e.pairSnapshot(reset) })
	stats := make([]instPairStat, 0, len(l.all))
	for _, s := range snaps {
		stats = append(stats, s...)
	}
	return mergePairStats(stats, l.cfg.SketchCapacity, func(op string) int {
		return len(l.execs[op])
	})
}

// mergePairStats folds per-instance sketch snapshots into one sketch per
// operator pair. The merged capacity is derived only from the configured
// per-instance capacity and the parallelism of the reporting operator —
// never from the size of whichever snapshot happens to be folded first —
// so the merged sketch has room for every possible contribution, never
// evicts, and the result is independent of reply order.
func mergePairStats(stats []instPairStat, sketchCap int, parallelism func(op string) int) []PairStat {
	merged := make(map[[2]string]*spacesaving.PairSketch)
	for _, st := range stats {
		id := [2]string{st.fromOp, st.toOp}
		sk := merged[id]
		if sk == nil {
			// The (from, to) pair sketch lives on from's instances, each
			// bounded by sketchCap counters.
			sk = spacesaving.NewPairs(maxInt(1, sketchCap) * maxInt(1, parallelism(st.fromOp)))
			merged[id] = sk
		}
		for _, p := range st.pairs {
			sk.AddWeighted(p.In, p.Out, p.Count)
		}
	}
	ids := make([][2]string, 0, len(merged))
	for id := range merged {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i][0] != ids[j][0] {
			return ids[i][0] < ids[j][0]
		}
		return ids[i][1] < ids[j][1]
	})
	out := make([]PairStat, 0, len(ids))
	for _, id := range ids {
		out = append(out, PairStat{FromOp: id[0], ToOp: id[1], Pairs: merged[id].Counters()})
	}
	return out
}

// Reconfigure deploys a new configuration with the protocol of §3.4:
// reconfiguration messages to every instance (3), acknowledgements (4),
// DAG-ordered propagation (5) and state migration with buffering (6). It
// returns once every instance has propagated and received all awaited
// state. The data stream keeps flowing during the call.
//
// A propagation wave cannot pass a dead instance, so Reconfigure refuses
// to start while any server is dead (repair goes through RecoverArm,
// UpdateTables and RecoverRestore instead), and a server killed during
// steps 3-4 aborts the round with an error, disarming the instances that
// had armed. A kill after step 4 is not handled.
func (l *Live) Reconfigure(plan ReconfigPlan) error {
	if l.stopped.Load() {
		return errors.New("engine: reconfigure on stopped engine")
	}
	for s := range l.dead {
		if l.dead[s].Load() {
			return fmt.Errorf("engine: reconfigure: server %d is dead", s)
		}
	}
	var done sync.WaitGroup

	// Steps 3-4: arm every instance with its reconfiguration; a call
	// returns as the instance's acknowledgement. After this point every
	// instance has armed its migration buffer, so tuples routed with the
	// new tables can never be processed before their state arrives.
	execs := make([]*executor, 0, len(l.all))
	rcs := make([]*instReconfig, 0, len(l.all))
	for _, opName := range l.topo.Order() {
		insts := l.execs[opName]
		sendLists, recvLists := movesByInstance(plan.Moves[opName], len(insts))
		tables := tablesForSender(l.topo, opName, plan.Tables)
		for i, ex := range insts {
			execs = append(execs, ex)
			rcs = append(rcs, &instReconfig{tables: tables, send: sendLists[i], recv: recvLists[i], done: &done})
		}
	}
	if missed := runCalls(execs, func(i int, e *executor) {
		done.Add(1)
		e.onReconf(rcs[i])
	}); missed >= 0 {
		runCalls(execs, func(_ int, e *executor) { e.cancelReconf() })
		return fmt.Errorf("engine: reconfigure: server %d died before acknowledging", execs[missed].server)
	}

	// The manager-side router for the external source hop switches now,
	// before the first PROPAGATE, mirroring the manager triggering the
	// first PO. Both happen under srcMu, so every tuple Inject routed
	// with the old table is already queued ahead of the PROPAGATE.
	l.srcMu.Lock()
	if table, ok := plan.Tables[l.topo.Source()]; ok {
		if tf, ok := l.cfg.SourcePolicy.(*routing.TableFields); ok {
			tf.Update(table)
		}
	}

	// Step 5: trigger the operators with no predecessors.
	for _, opName := range l.topo.Order() {
		if len(l.topo.Predecessors(opName)) == 0 {
			for _, ex := range l.execs[opName] {
				ex.box.put(message{kind: msgPropagate})
			}
		}
	}
	l.srcMu.Unlock()

	// Step 6 happens inside the executors; wait for full completion.
	done.Wait()
	return nil
}

// tablesForSender selects the new tables relevant to an instance of op:
// one per fields-grouped out-edge.
func tablesForSender(t *topology.Topology, op string, tables map[string]*routing.Table) map[string]*routing.Table {
	out := make(map[string]*routing.Table)
	for _, e := range t.OutEdges(op) {
		if e.Grouping != topology.Fields {
			continue
		}
		if table, ok := tables[e.To]; ok {
			out[e.To] = table
		}
	}
	return out
}

// movesByInstance splits an operator's key moves into per-instance send
// and receive lists.
func movesByInstance(moves []KeyMove, instances int) (send, recv []map[string]int) {
	send = make([]map[string]int, instances)
	recv = make([]map[string]int, instances)
	for i := 0; i < instances; i++ {
		send[i] = make(map[string]int)
		recv[i] = make(map[string]int)
	}
	for _, m := range moves {
		if m.From < 0 || m.From >= instances || m.To < 0 || m.To >= instances || m.From == m.To {
			continue
		}
		send[m.From][m.Key] = m.To
		recv[m.To][m.Key] = m.From
	}
	return send, recv
}

// Traffic returns the accumulated traffic of one edge, aggregated over
// the per-executor accumulators (each guarded by its own, uncontended
// lock — the engine takes no global lock on the data path).
func (l *Live) Traffic(from, to string) metrics.Traffic {
	key := EdgeKey(from, to)
	var agg metrics.Traffic
	for _, ex := range l.all {
		for _, re := range ex.edges {
			if re.key != key {
				continue
			}
			re.mu.Lock()
			agg.Add(re.traffic)
			re.mu.Unlock()
		}
	}
	return agg
}

// FieldsTraffic aggregates traffic over every fields-grouped edge.
func (l *Live) FieldsTraffic() metrics.Traffic {
	var agg metrics.Traffic
	for _, ex := range l.all {
		for _, re := range ex.edges {
			if re.grouping != topology.Fields {
				continue
			}
			re.mu.Lock()
			agg.Add(re.traffic)
			re.mu.Unlock()
		}
	}
	return agg
}

// Loads returns tuples processed per instance of op.
func (l *Live) Loads(op string) []uint64 {
	insts := l.execs[op]
	out := make([]uint64, len(insts))
	for i, ex := range insts {
		out[i] = ex.processed.Load()
	}
	return out
}

// ProcessorState runs fn inside the executor goroutine of (op, inst),
// giving safe access to the processor's state. It blocks until fn has
// run. It returns an error, without running fn, for unknown, stopped or
// dead instances, including one killed while the call was queued.
func (l *Live) ProcessorState(op string, inst int, fn func(topology.Processor)) error {
	insts := l.execs[op]
	if inst < 0 || inst >= len(insts) {
		return fmt.Errorf("engine: unknown instance %s[%d]", op, inst)
	}
	if runCalls(insts[inst:inst+1], func(_ int, e *executor) { fn(e.proc) }) >= 0 {
		return fmt.Errorf("engine: instance %s[%d] is stopped or dead", op, inst)
	}
	return nil
}

// --- executor ---------------------------------------------------------------

// resolvedEdge is one out-edge of one executor, fully resolved at
// construction: the routing policy, the recipient executors, the
// recipient servers and their locality relative to the sender, and a
// private traffic accumulator. With everything precomputed, the per-tuple
// forward path performs no map lookups, builds no strings and takes no
// lock shared with any other executor.
type resolvedEdge struct {
	key      string // EdgeKey(from, to)
	to       string
	grouping topology.Grouping
	keyField int
	policy   routing.Policy

	targets []*executor // recipient instance -> executor
	server  []int       // recipient instance -> hosting server
	tier    []uint8     // recipient instance -> locality tier relative to the sender (metrics.Tier*)

	// traffic is written only by the owning executor; mu is therefore
	// uncontended on the hot path and exists so Traffic()/FieldsTraffic()
	// can read a consistent snapshot concurrently.
	mu      sync.Mutex
	traffic metrics.Traffic
}

// resolveEdges precomputes e's out-edges against the placement and the
// policy map.
func (l *Live) resolveEdges(e *executor) []*resolvedEdge {
	edges := l.topo.OutEdges(e.op.Name)
	out := make([]*resolvedEdge, len(edges))
	for i, edge := range edges {
		targets := l.execs[edge.To]
		re := &resolvedEdge{
			key:      EdgeKey(edge.From, edge.To),
			to:       edge.To,
			grouping: edge.Grouping,
			keyField: edge.KeyField,
			policy:   l.cfg.Policies[EdgeKey(edge.From, edge.To)],
			targets:  targets,
			server:   make([]int, len(targets)),
			tier:     make([]uint8, len(targets)),
		}
		for j := range targets {
			s := l.place.ServerOf(edge.To, j)
			re.server[j] = s
			re.tier[j] = uint8(l.place.Tier(e.server, s))
		}
		out[i] = re
	}
	return out
}

// executor runs one operator instance: it owns the processor, the pair
// sketches and the migration buffer, and implements the instance side of
// Algorithm 1.
type executor struct {
	eng    *Live
	op     *topology.Operator
	inst   int
	server int
	proc   topology.Processor
	box    *mailbox
	edges  []*resolvedEdge

	sketches map[[2]string]*spacesaving.PairSketch
	buf      *state.Buffer
	seq      uint64

	// keyed is proc's Keyed interface, resolved once (nil when the
	// processor is stateless). dirty tracks the keys whose state changed
	// since the last checkpoint; dirtyN mirrors len(dirty) atomically so
	// CheckpointDirty can skip clean executors without a message
	// round-trip.
	keyed  topology.Keyed
	dirty  map[string]struct{}
	dirtyN atomic.Int64

	// mergeable is proc's Mergeable interface, resolved once (nil unless
	// the processor declares an associative combine). Only mergeable
	// operators can have keys split.
	mergeable topology.Mergeable
	// demoted holds forwarding tombstones for keys recently demoted from
	// split routing at this replica: late in-flight tuples are forwarded
	// to the owner instead of being processed against deleted state. nil
	// until the first demotion, so onData pays one nil check.
	demoted map[string]int

	// emitFn is the emit callback handed to the processor, bound once at
	// construction so process() allocates no closure per tuple. The
	// routing context it needs is staged in emitKeyOp/emitKey (safe:
	// process never re-enters on one executor goroutine).
	emitFn    topology.Emit
	emitKeyOp string
	emitKey   string

	pendingReconf    *instReconfig
	propagatesSeen   int
	propagatesNeeded int
	propagated       bool

	// wirePeers lists the peer servers this executor has encoded tuples
	// for since its last flush hint (wireMarked[s] keeps it duplicate-
	// free; nil without a fabric). The tuples may still sit in the
	// transport's pending batches, so the executor hints those peers
	// before it parks — see nextBatch.
	wirePeers  []int
	wireMarked []bool

	processed atomic.Uint64
}

func (e *executor) run() {
	defer e.eng.wg.Done()
	// trackDepth is immutable once the executor runs; hoisting it keeps
	// the per-message depth accounting out of the unsplit hot loop.
	track := e.box.trackDepth
	var buf []message
	for {
		batch, ok := e.nextBatch(buf)
		if !ok {
			return
		}
		for i := range batch {
			e.dispatch(batch[i])
			if track {
				e.box.depth.Add(-1)
			}
			// Drop payload references before the slice is recycled as the
			// mailbox's next backing array.
			batch[i] = message{}
		}
		buf = batch
	}
}

// nextBatch is getBatch made work-conserving towards the wire: an
// executor about to park with tuples of its own still batched in the
// transport tells those connections that nothing more is coming
// (FlushIdle), so a tuple never waits out the flush timer over an idle
// socket. While the mailbox has work the hint is withheld and the
// batches keep growing; the hint lives here, not in the transport's
// Send, because only the executor knows whether the tuple it just sent
// is the last of a burst or the first.
func (e *executor) nextBatch(buf []message) ([]message, bool) {
	if len(e.wirePeers) > 0 {
		if batch := e.box.tryGetBatch(buf); batch != nil {
			return batch, true
		}
		for _, s := range e.wirePeers {
			e.eng.fabric.FlushIdle(e.server, s)
			e.wireMarked[s] = false
		}
		e.wirePeers = e.wirePeers[:0]
	}
	return e.box.getBatch(buf)
}

// sentWire records that a tuple for server s entered the transport.
func (e *executor) sentWire(s int) {
	if !e.wireMarked[s] {
		e.wireMarked[s] = true
		e.wirePeers = append(e.wirePeers, s)
	}
}

func (e *executor) dispatch(msg message) {
	switch msg.kind {
	case msgData:
		e.onData(msg)
	case msgPropagate:
		e.onPropagate()
	case msgMigrate:
		e.onMigrate(msg)
	case msgCall:
		msg.call(e)
	}
}

func (e *executor) onData(msg message) {
	if msg.keyOp == e.op.Name {
		// A tombstone marks a key demoted from split routing at this
		// replica: its partial already merged into the owner, so late
		// in-flight tuples forward there, carrying their in-flight count
		// with them (zero loss through a demotion). The nil check is the
		// only cost the unsplit path pays.
		if e.demoted != nil {
			if owner, ok := e.demoted[msg.key]; ok && owner != e.inst {
				e.forwardDemoted(owner, msg)
				return
			}
		}
		// Buffer tuples for keys whose state has not arrived yet (§3.4).
		if e.buf.Pending(msg.key) {
			e.buf.Hold(msg.key, msg.tuple)
			// A bounded buffer drops instead of holding once full; fold the
			// overflow into the engine's loss counter.
			if d := e.buf.TakeDropped(); d > 0 {
				e.eng.tuplesLost.Add(d)
			}
			e.eng.inflight.dec()
			return
		}
	}
	e.process(msg.tuple, msg.keyOp, msg.key)
	e.eng.inflight.dec()
}

// forwardDemoted re-sends a data tuple to the owner of a demoted split
// key. The tuple keeps its in-flight count; only a rejected delivery
// (owner died) settles it as loss.
func (e *executor) forwardDemoted(owner int, msg message) {
	toServer := e.eng.place.ServerOf(e.op.Name, owner)
	if e.eng.fabric != nil && toServer != e.server &&
		e.eng.sendWire(e.op.Name, owner, e.server, toServer, msg) {
		e.sentWire(toServer)
		return
	}
	if !e.eng.execs[e.op.Name][owner].box.put(msg) {
		e.eng.inflight.dec()
		e.eng.tuplesLost.Add(1)
	}
}

// process runs the operator logic on one tuple and forwards emissions.
func (e *executor) process(t topology.Tuple, keyOp, key string) {
	e.processed.Add(1)
	// Incremental checkpointing: a tuple keyed for this operator mutates
	// the state of its key; record it as dirty so the next checkpoint
	// snapshots it (and clean keys are skipped).
	if e.dirty != nil && keyOp == e.op.Name && key != "" {
		if _, ok := e.dirty[key]; !ok {
			e.dirty[key] = struct{}{}
			e.dirtyN.Add(1)
		}
	}
	e.emitKeyOp, e.emitKey = keyOp, key
	e.proc.Process(t, e.emitFn)
}

// emit forwards one emitted tuple across every out-edge; it is bound into
// emitFn once so the hot path never allocates a closure.
func (e *executor) emit(out topology.Tuple) {
	for _, re := range e.edges {
		e.forward(re, e.emitKeyOp, e.emitKey, out)
	}
}

// forward routes one emitted tuple across one resolved out-edge. This is
// the engine's hot path: everything it touches is either executor-local
// (sketches, seq, the edge's traffic accumulator) or immutable after
// construction (policy pointer, target tables), so concurrent executors
// never contend and no per-tuple allocation occurs in the steady state.
func (e *executor) forward(re *resolvedEdge, keyOp, key string, out topology.Tuple) {
	nextKeyOp, nextKey := keyOp, key
	routeKey := ""
	if re.grouping == topology.Fields {
		routeKey = out.Field(re.keyField)
		if e.eng.cfg.SketchCapacity > 0 && keyOp != "" {
			id := [2]string{keyOp, re.to}
			sk := e.sketches[id]
			if sk == nil {
				sk = spacesaving.NewPairs(e.eng.cfg.SketchCapacity)
				e.sketches[id] = sk
			}
			sk.Add(key, routeKey)
		}
		nextKeyOp, nextKey = re.to, routeKey
	}
	e.seq++
	target := re.policy.Route(routeKey, e.server, e.seq)
	tier := int(re.tier[target])
	re.mu.Lock()
	re.traffic.Record(tier, out.Size())
	re.mu.Unlock()
	e.eng.inflight.incInternal()
	msg := message{kind: msgData, tuple: out, keyOp: nextKeyOp, key: nextKey}
	if tier != metrics.TierServer && e.eng.fabric != nil &&
		e.eng.sendWire(re.to, target, e.server, re.server[target], msg) {
		e.sentWire(re.server[target])
		return
	}
	// A rejected put means the recipient died (killed server): settle the
	// in-flight count and record the loss, or Drain would wait forever.
	if !re.targets[target].box.put(msg) {
		e.eng.inflight.dec()
		e.eng.tuplesLost.Add(1)
	}
}

// pairSnapshot reports this instance's pair sketches (GET_METRICS),
// resetting them unless the caller only peeks.
func (e *executor) pairSnapshot(reset bool) []instPairStat {
	stats := make([]instPairStat, 0, len(e.sketches))
	for id, sk := range e.sketches {
		stats = append(stats, instPairStat{fromOp: id[0], toOp: id[1], pairs: sk.Counters()})
		if reset {
			sk.Reset()
		}
	}
	return stats
}

// checkpoint snapshots every dirty key's state (without removing it)
// and resets the dirty set. Keys whose state vanished since they were
// marked (migrated away) are simply skipped: the record of their new
// owner supersedes them.
func (e *executor) checkpoint() []KeyState {
	if e.keyed == nil || len(e.dirty) == 0 {
		return nil
	}
	keys := make([]string, 0, len(e.dirty))
	for k := range e.dirty {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recs := make([]KeyState, 0, len(keys))
	for _, k := range keys {
		if data, ok := e.keyed.SnapshotKey(k); ok {
			recs = append(recs, KeyState{Op: e.op.Name, Inst: e.inst, Key: k, Data: data})
		}
		delete(e.dirty, k)
	}
	e.dirtyN.Store(0)
	return recs
}

func (e *executor) onReconf(rc *instReconfig) {
	e.pendingReconf = rc
	e.propagated = false
	e.propagatesSeen = 0
	// Arm the migration buffer before acknowledging: once the manager
	// has every ACK, any instance may route with the new tables, and
	// tuples for moved keys must be buffered until their state arrives.
	keys := make([]string, 0, len(rc.recv))
	for k := range rc.recv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.buf.Expect(keys)
}

// cancelReconf undoes onReconf for a round that never propagates: the
// armed keys stop buffering and whatever they held is processed here,
// where the unchanged tables still route them.
func (e *executor) cancelReconf() {
	rc := e.pendingReconf
	if rc == nil {
		return
	}
	e.pendingReconf = nil
	for k := range rc.recv {
		for _, t := range e.buf.Arrive(k) {
			e.process(t, e.op.Name, k)
		}
	}
}

func (e *executor) onPropagate() {
	e.propagatesSeen++
	if e.pendingReconf == nil || e.propagated || e.propagatesSeen < e.propagatesNeeded {
		return
	}
	rc := e.pendingReconf
	// update_routing: install the new tables on this instance's
	// fields-grouped out-edges. Shared policy objects make this
	// idempotent across sibling instances.
	for toOp, table := range rc.tables {
		for _, re := range e.edges {
			if re.to != toOp || re.grouping != topology.Fields {
				continue
			}
			if tf, ok := re.policy.(*routing.TableFields); ok {
				tf.Update(table)
			}
		}
	}
	// Migrate outgoing state. A record is sent for every planned key —
	// flagged hasData only when a snapshot exists — so recipients always
	// clear their pending markers. The explicit flag (not payload
	// nil-ness) is what survives the wire: the control codec encodes the
	// flag as its own bit, so local and TCP delivery agree on it even
	// for a zero-length snapshot.
	if len(rc.send) > 0 {
		keys := make([]string, 0, len(rc.send))
		for k := range rc.send {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		keyed, _ := e.proc.(topology.Keyed)
		for _, k := range keys {
			var data []byte
			hasData := false
			if keyed != nil {
				if snap, ok := keyed.SnapshotKey(k); ok {
					data, hasData = snap, true
					keyed.DeleteKey(k)
				}
			}
			m := message{kind: msgMigrate, key: k}
			if hasData {
				m.mig = &migration{data: data}
			}
			e.eng.send(e.op.Name, rc.send[k], e.server, m)
		}
	}
	// Forward the propagation wave to every successor instance.
	for _, succ := range e.eng.topo.Successors(e.op.Name) {
		for i := range e.eng.execs[succ] {
			e.eng.send(succ, i, e.server, message{kind: msgPropagate})
		}
	}
	e.propagated = true
	e.propagatesSeen = 0
	e.maybeFinishReconf()
}

func (e *executor) onMigrate(msg message) {
	if mig := msg.mig; mig != nil {
		switch {
		case mig.merge && e.mergeable != nil:
			// A split-key partial: fold it into whatever state already
			// lives here with the operator's associative combine (the
			// payload is not authoritative alone, so RestoreKey semantics
			// would be wrong for processors that replace state).
			_ = e.mergeable.MergeKey(msg.key, mig.data)
			e.eng.mergesApplied.Add(1)
			e.markDirty(msg.key)
		case e.keyed != nil:
			// Restore failures indicate incompatible processor versions;
			// the engine surfaces them as a panic in tests via the
			// processor itself. Here the state is dropped and processing
			// continues, matching the at-most-once semantics of the
			// underlying engine ("the guarantees are the ones provided
			// by the streaming engine", §3.4).
			_ = e.keyed.RestoreKey(msg.key, mig.data)
			e.markDirty(msg.key)
		}
	}
	for _, t := range e.buf.Arrive(msg.key) {
		e.process(t, e.op.Name, msg.key)
	}
	e.maybeFinishReconf()
}

// markDirty records key as changed since the last checkpoint (the key
// now lives here; the next checkpoint must record it under this owner).
func (e *executor) markDirty(key string) {
	if e.dirty == nil {
		return
	}
	if _, ok := e.dirty[key]; !ok {
		e.dirty[key] = struct{}{}
		e.dirtyN.Add(1)
	}
}

// maybeFinishReconf reports completion once this instance has propagated
// and holds no pending keys.
func (e *executor) maybeFinishReconf() {
	if e.pendingReconf == nil || !e.propagated || e.buf.PendingCount() > 0 {
		return
	}
	e.pendingReconf.done.Done()
	e.pendingReconf = nil
	e.propagated = false
}

// --- in-flight accounting -----------------------------------------------------

// inflightCounter tracks unprocessed tuples. External injections block at
// the configured high-water mark; internal forwards never block (the
// protocol's liveness depends on executors always being able to send).
//
// The counter is a plain atomic: the inc/dec pair every forwarded tuple
// pays is lock-free, and the mutex/condvar is touched only when a waiter
// (a blocked Inject or Drain) is actually parked. Go atomics are
// sequentially consistent, so the ordering argument is simple: a waiter
// registers in waiters (under mu) before re-checking n; a decrementer
// updates n before reading waiters. Whichever ran second sees the other's
// write, so either the waiter never parks or the decrementer broadcasts.
type inflightCounter struct {
	n       atomic.Int64
	waiters atomic.Int32
	max     int64

	mu   sync.Mutex
	cond *sync.Cond
}

func newInflightCounter(max int) *inflightCounter {
	c := &inflightCounter{max: int64(max)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// incExternal increments, blocking while the high-water mark is reached.
// The CAS keeps the bound exact under concurrent injectors.
func (c *inflightCounter) incExternal() {
	if c.max <= 0 {
		c.n.Add(1)
		return
	}
	for {
		cur := c.n.Load()
		if cur >= c.max {
			c.mu.Lock()
			c.waiters.Add(1)
			for c.n.Load() >= c.max {
				c.cond.Wait()
			}
			c.waiters.Add(-1)
			c.mu.Unlock()
			continue
		}
		if c.n.CompareAndSwap(cur, cur+1) {
			return
		}
	}
}

func (c *inflightCounter) incInternal() { c.n.Add(1) }

func (c *inflightCounter) dec() {
	v := c.n.Add(-1)
	if c.waiters.Load() == 0 {
		return
	}
	if v <= 0 || (c.max > 0 && v < c.max) {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

func (c *inflightCounter) waitZero() {
	if c.n.Load() <= 0 {
		return
	}
	c.mu.Lock()
	c.waiters.Add(1)
	for c.n.Load() > 0 {
		c.cond.Wait()
	}
	c.waiters.Add(-1)
	c.mu.Unlock()
}
