package engine

import (
	"errors"
	"fmt"
	"sort"

	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/topology"
	"github.com/locastream/locastream/internal/transport"
)

// This file is the engine side of the fault-tolerance subsystem
// (internal/checkpoint drives it): incremental checkpoint collection,
// server kill with loss accounting, liveness probing, and the two-phase
// recovery path (arm buffers, then restore state). The planned
// reconfiguration protocol of §3.4 stays untouched — recovery reuses its
// building blocks (migration buffers, migrate messages, shared routing
// policies) without entering its propagation state machine, because a
// dead server cannot participate in a propagation wave.

// CheckpointDirty collects an incremental checkpoint: the serialized
// state of every key that changed since the previous call, across all
// stateful executors. Executors with no dirty keys are skipped without
// a message round-trip, so on a quiescent stream the call touches only
// per-executor atomics and performs no allocation — the fast path that
// keeps the default checkpoint interval cheap. Snapshotting does not
// remove or mutate operator state; the stream keeps flowing.
func (l *Live) CheckpointDirty() []KeyState {
	var dirty []*executor
	for _, ex := range l.all {
		if ex.dirtyN.Load() > 0 {
			dirty = append(dirty, ex)
		}
	}
	if dirty == nil {
		return nil
	}
	// A killed or stopped executor reports nothing: its keys will be
	// recovered from the previous checkpoint, which is exactly the
	// bounded-loss guarantee.
	recs := make([][]KeyState, len(dirty))
	runCalls(dirty, func(i int, e *executor) { recs[i] = e.checkpoint() })
	var out []KeyState
	for _, r := range recs {
		out = append(out, r...)
	}
	// Records of split keys become per-replica partials (Split/Replicas
	// set), so the store keeps one record per replica instead of
	// collapsing them to the latest writer.
	l.annotateSplitRecords(out)
	return out
}

// KillServer simulates the crash of one server: every executor hosted
// there stops immediately (messages still queued are discarded, with
// data tuples counted as lost), its transport node — if a TCP fabric is
// attached — is closed so survivors' sends fail, and liveness probes
// (Ping) report it dead. Idempotent. The stream keeps flowing on the
// survivors; tuples routed to the dead instances are rejected and
// counted until a recovery installs new routing.
func (l *Live) KillServer(s int) error {
	if s < 0 || s >= l.place.Servers() {
		return fmt.Errorf("engine: unknown server %d", s)
	}
	if l.dead[s].Swap(true) {
		return nil
	}
	for _, ex := range l.all {
		if ex.server == s {
			l.settleKilled(ex.box.kill())
		}
	}
	if l.fabric != nil {
		// Settle the wire exactly, in three ordered steps. DropPeer severs
		// every survivor's connection to s: tuples batched but never
		// flushed are reported (DropHandler → noteWireDataDrops) and no
		// further frame can be flushed towards s, pinning wireOut[s].
		// CloseNode then joins s's reader goroutines, so every frame that
		// was going to be drained has been (each decrement of wireOut[s]
		// has happened). What remains in wireOut[s] is exactly the tuples
		// flushed onto the wire that s will never decode — kernel-buffered
		// frames and writes torn by the close — each still carrying one
		// in-flight count from its sender.
		l.fabric.DropPeer(s)
		l.fabric.CloseNode(s)
		if n := l.wireOut[s].Swap(0); n > 0 {
			l.noteWireDataDrops(int(n))
		}
	}
	return nil
}

// settleKilled accounts for messages discarded from a killed mailbox so
// no counter leaks and no caller parks forever: in-flight data tuples
// become losses and control calls run with no executor, releasing their
// callers.
func (l *Live) settleKilled(msgs []message) {
	for _, m := range msgs {
		switch m.kind {
		case msgData:
			l.inflight.dec()
			l.tuplesLost.Add(1)
		case msgCall:
			m.call(nil)
		}
	}
}

// ServerAlive reports whether s has not been killed.
func (l *Live) ServerAlive(s int) bool {
	return s >= 0 && s < len(l.dead) && !l.dead[s].Load()
}

// AliveServers returns the per-server liveness vector.
func (l *Live) AliveServers() []bool {
	out := make([]bool, len(l.dead))
	for i := range l.dead {
		out[i] = !l.dead[i].Load()
	}
	return out
}

// TuplesLost returns the cumulative count of data tuples lost to server
// failures.
func (l *Live) TuplesLost() uint64 { return l.tuplesLost.Load() }

// HeartbeatsReceived returns the number of heartbeat probes delivered
// through the TCP fabric (always 0 without a fabric, where probes are
// answered synchronously).
func (l *Live) HeartbeatsReceived() uint64 { return l.hbRecv.Load() }

// Ping probes the liveness of server s on behalf of the failure
// detector. Without a TCP fabric the answer is synchronous and exact.
// With a fabric a real KindHeartbeat message is pushed through the
// lowest-numbered alive peer's connection to s; the probe reports false
// once the kernel observes the closed connection, which may take a few
// probes after the crash — exactly the detection lag a heartbeat
// protocol's suspect threshold exists to absorb.
func (l *Live) Ping(s int) bool {
	if s < 0 || s >= l.place.Servers() {
		return false
	}
	if l.dead[s].Load() {
		return false
	}
	if !l.active[s].Load() {
		// A parked (decommissioned or not-yet-added) server is
		// administratively out, not failed: it may well be detached from
		// the fabric, so a probe proves nothing. Report it alive so the
		// failure detector never confirms a bogus death for it.
		return true
	}
	if l.fabric == nil {
		return true
	}
	from := -1
	for i := 0; i < l.place.Servers(); i++ {
		if i != s && !l.dead[i].Load() && l.active[i].Load() {
			from = i
			break
		}
	}
	if from == -1 {
		return true // no peer left to probe from
	}
	err := l.fabric.Send(from, s, transport.Message{Kind: transport.KindHeartbeat, From: from})
	return err == nil
}

// Placement exposes the engine's instance placement (read-only) for the
// checkpoint subsystem's repair planner.
func (l *Live) Placement() *cluster.Placement { return l.place }

// OwnerOf returns the instance that tuples keyed key for op currently
// route to, following the same table-then-hash policy the data path
// uses (every fields-grouped in-edge of an op shares one agreement on
// key ownership). ok is false for ops without fields-grouped input.
func (l *Live) OwnerOf(op, key string) (int, bool) {
	if op == l.topo.Source() &&
		(l.cfg.SourceGrouping == 0 || l.cfg.SourceGrouping == topology.Fields) {
		return l.cfg.SourcePolicy.Route(key, -1, 0), true
	}
	for _, e := range l.topo.Edges() {
		if e.To == op && e.Grouping == topology.Fields {
			return l.cfg.Policies[EdgeKey(e.From, e.To)].Route(key, -1, 0), true
		}
	}
	return 0, false
}

// StatefulOps returns the operators whose processors hold keyed state,
// in topology order — the set the checkpoint subsystem must cover.
func (l *Live) StatefulOps() []string {
	var out []string
	for _, op := range l.topo.Order() {
		insts := l.execs[op]
		if len(insts) > 0 && insts[0].keyed != nil {
			out = append(out, op)
		}
	}
	return out
}

// UpdateTables installs new routing tables directly into the shared
// per-edge policies (and the source policy), outside the propagation
// protocol. Recovery uses it after RecoverArm: the dead instances
// cannot forward a propagation wave, and because sibling senders share
// one policy object per edge, a single atomic Update is equivalent to
// the wave's per-instance update_routing step.
func (l *Live) UpdateTables(tables map[string]*routing.Table) {
	for op, table := range tables {
		if op == l.topo.Source() {
			if tf, ok := l.cfg.SourcePolicy.(*routing.TableFields); ok {
				tf.Update(table)
			}
		}
		for _, e := range l.topo.Edges() {
			if e.To != op || e.Grouping != topology.Fields {
				continue
			}
			if tf, ok := l.cfg.Policies[EdgeKey(e.From, e.To)].(*routing.TableFields); ok {
				tf.Update(table)
			}
		}
	}
}

// ApplyAliveRouting installs the current server liveness into every
// table-based routing policy, so keys without a repair table entry
// (hash-fallback keys) deterministically detour around dead instances.
// Shuffle-grouped edges are untouched: their recipients are stateless
// and LocalOrShuffle/Shuffle spread over survivors by construction of
// the recovery tables.
func (l *Live) ApplyAliveRouting() {
	for _, e := range l.topo.Edges() {
		if e.Grouping != topology.Fields {
			continue
		}
		if tf, ok := l.cfg.Policies[EdgeKey(e.From, e.To)].(*routing.TableFields); ok {
			tf.SetAlive(l.instAlive(e.To))
		}
	}
	if tf, ok := l.cfg.SourcePolicy.(*routing.TableFields); ok {
		tf.SetAlive(l.instAlive(l.topo.Source()))
	}
}

// instAlive computes the per-instance usability mask of one operator:
// an instance is routable iff its server is alive AND inside the
// elastic membership.
func (l *Live) instAlive(op string) []bool {
	n := l.place.Parallelism(op)
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		s := l.place.ServerOf(op, i)
		out[i] = !l.dead[s].Load() && l.active[s].Load()
	}
	return out
}

// RecoverArm is phase one of recovery: each adopting (op, instance)
// arms its migration buffer for the keys it is about to inherit from a
// dead server — the same buffer-then-ack step the planned protocol uses
// (§3.4) — and acknowledges. Once RecoverArm returns, new routing may
// be installed (UpdateTables/ApplyAliveRouting): any tuple reaching an
// adopting instance for a recovering key buffers until RecoverRestore
// delivers the checkpointed state, so no tuple is processed against
// missing state. expects maps op -> instance -> keys. An instance that
// is dead, or dies before it armed, fails the call.
func (l *Live) RecoverArm(expects map[string]map[int][]string) error {
	if l.stopped.Load() {
		return errors.New("engine: recover on stopped engine")
	}
	ops := make([]string, 0, len(expects))
	for op := range expects {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	var execs []*executor
	var keys [][]string
	for _, op := range ops {
		insts := l.execs[op]
		if insts == nil {
			return fmt.Errorf("engine: recover: unknown operator %q", op)
		}
		for inst, ks := range expects[op] {
			if inst < 0 || inst >= len(insts) {
				return fmt.Errorf("engine: recover: unknown instance %s[%d]", op, inst)
			}
			execs = append(execs, insts[inst])
			keys = append(keys, ks)
		}
	}
	if missed := runCalls(execs, func(i int, e *executor) { e.buf.Expect(keys[i]) }); missed >= 0 {
		return fmt.Errorf("engine: recover: instance %s[%d] is dead", execs[missed].op.Name, execs[missed].inst)
	}
	return nil
}

// RecoverRestore is phase two of recovery: it delivers one migration
// record per recovering key to its adopting instance — Data nil for
// keys that never reached a checkpoint, which clears the pending marker
// without restoring anything — and blocks until every touched instance
// has installed its records and processed the tuples buffered for them.
// FIFO mailboxes order the completion barrier strictly after the
// restores, so when RecoverRestore returns, every buffered tuple has
// been processed against the restored state. Each record's Inst must
// already be rewritten to the adopting instance. An instance that is
// dead, or dies before the barrier ran, fails the call.
func (l *Live) RecoverRestore(records []KeyState) error {
	if l.stopped.Load() {
		return errors.New("engine: recover on stopped engine")
	}
	var touched []*executor
	seen := make(map[*executor]bool)
	for _, r := range records {
		insts := l.execs[r.Op]
		if insts == nil || r.Inst < 0 || r.Inst >= len(insts) {
			return fmt.Errorf("engine: restore: unknown instance %s[%d]", r.Op, r.Inst)
		}
		ex := insts[r.Inst]
		m := message{kind: msgMigrate, key: r.Key}
		if r.Data != nil {
			m.mig = &migration{data: r.Data, merge: r.Merge}
		}
		if !ex.box.put(m) {
			return fmt.Errorf("engine: restore: instance %s[%d] is dead", r.Op, r.Inst)
		}
		if !seen[ex] {
			seen[ex] = true
			touched = append(touched, ex)
		}
	}
	if missed := runCalls(touched, func(int, *executor) {}); missed >= 0 {
		return fmt.Errorf("engine: restore: instance %s[%d] died", touched[missed].op.Name, touched[missed].inst)
	}
	return nil
}
