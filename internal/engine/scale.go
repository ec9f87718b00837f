package engine

import (
	"fmt"
	"sort"
)

// This file is the engine half of elastic scaling: servers enter and
// leave the usable set at runtime. The placement is static and built at
// full capacity — executors on inactive servers exist from the start,
// parked with open mailboxes — so membership changes never create or
// destroy goroutines; they flip the active mask, update the alive-mask
// routing, and attach/detach transport connections. State movement is
// NOT handled here: the caller (App.ScaleTo) plans a rescale and runs
// the §3.4 reconfiguration protocol around these membership flips.

// ServerActive reports whether s is inside the elastic membership.
func (l *Live) ServerActive(s int) bool {
	return s >= 0 && s < len(l.active) && l.active[s].Load()
}

// ServerUsable reports whether s is routable: alive and active.
func (l *Live) ServerUsable(s int) bool {
	return l.ServerAlive(s) && l.ServerActive(s)
}

// UsableServers returns the per-server usability vector (alive AND
// active) — the membership the repair planner and the split-replica
// chooser must respect.
func (l *Live) UsableServers() []bool {
	out := make([]bool, len(l.dead))
	for s := range out {
		out[s] = !l.dead[s].Load() && l.active[s].Load()
	}
	return out
}

// ActiveServers counts the servers inside the elastic membership
// (including any that have since been killed — dead servers leave the
// usable set but not the administrative one).
func (l *Live) ActiveServers() int {
	n := 0
	for s := range l.active {
		if l.active[s].Load() {
			n++
		}
	}
	return n
}

// ServerCapacity returns the total number of servers the placement was
// built for — the elastic ceiling.
func (l *Live) ServerCapacity() int { return l.place.Servers() }

// StatefulKeys returns, per stateful operator, every key currently
// holding state on any instance (deduplicated across instances,
// sorted). The rescale planner feeds these to its key universe so cold
// keys — keys with state but absent from both the routing tables and
// the traffic sketches — still migrate off a leaving server.
func (l *Live) StatefulKeys() map[string][]string {
	keys := make([][]string, len(l.all))
	runCalls(l.all, func(i int, e *executor) {
		if e.keyed != nil {
			keys[i] = e.keyed.StateKeys()
		}
	})
	sets := make(map[string]map[string]struct{})
	for i, ks := range keys {
		if len(ks) == 0 {
			continue
		}
		op := l.all[i].op.Name
		set := sets[op]
		if set == nil {
			set = make(map[string]struct{})
			sets[op] = set
		}
		for _, k := range ks {
			set[k] = struct{}{}
		}
	}
	out := make(map[string][]string, len(sets))
	for op, set := range sets {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out[op] = keys
	}
	return out
}

// AddServer brings a parked server into the elastic membership: its
// transport connections are (re-)established to every usable peer, the
// active mask flips, and the alive-mask routing update makes its
// instances routable for hash-fallback keys. Idempotent for an already
// active server. The caller then deploys a rescale plan to actually
// move keys onto it.
func (l *Live) AddServer(s int) error {
	if s < 0 || s >= len(l.active) {
		return fmt.Errorf("engine: unknown server %d", s)
	}
	if l.dead[s].Load() {
		return fmt.Errorf("engine: server %d is dead", s)
	}
	if l.active[s].Load() {
		return nil
	}
	if l.fabric != nil {
		var peers []int
		for i := 0; i < len(l.active); i++ {
			if i != s && !l.dead[i].Load() && l.active[i].Load() {
				peers = append(peers, i)
			}
		}
		if err := l.fabric.Attach(s, peers); err != nil {
			return fmt.Errorf("engine: attach server %d: %w", s, err)
		}
	}
	l.active[s].Store(true)
	l.ApplyAliveRouting()
	return nil
}

// DecommissionServer removes a server from the elastic membership. This
// is the LAST step of a decommission — the caller must already have
// demoted its split replicas, deployed a rescale plan that migrated its
// keys away (the server participates in that protocol while still
// attached), and drained its state through a checkpoint. Afterwards the
// server's executors stay parked with open mailboxes: anything still
// queued is processed normally (zero loss) and AddServer can bring the
// server back. Refuses to remove the last active server.
func (l *Live) DecommissionServer(s int) error {
	if s < 0 || s >= len(l.active) {
		return fmt.Errorf("engine: unknown server %d", s)
	}
	if !l.active[s].Load() {
		return nil
	}
	last := true
	for i := 0; i < len(l.active); i++ {
		if i != s && l.active[i].Load() && !l.dead[i].Load() {
			last = false
			break
		}
	}
	if last {
		return fmt.Errorf("engine: cannot decommission last usable server %d", s)
	}
	l.active[s].Store(false)
	l.ApplyAliveRouting()
	if l.fabric != nil && !l.dead[s].Load() {
		l.fabric.Detach(s)
	}
	return nil
}
