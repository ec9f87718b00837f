package engine

import (
	"fmt"
	"sort"

	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/metrics"
	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/simnet"
	"github.com/locastream/locastream/internal/spacesaving"
	"github.com/locastream/locastream/internal/topology"
)

// SimConfig configures a simulation run.
type SimConfig struct {
	// Topology is the validated application DAG.
	Topology *topology.Topology
	// Placement assigns operator instances to servers.
	Placement *cluster.Placement
	// Model is the resource cost model.
	Model simnet.Model
	// Policies maps EdgeKey(from, to) to the routing policy of that
	// edge. Build with NewPolicies.
	Policies map[string]routing.Policy
	// SourcePolicy routes externally injected tuples to the source
	// operator's instances.
	SourcePolicy routing.Policy
	// SourceGrouping is the grouping of the implicit source hop. The
	// zero value means Fields. Non-fields groupings leave tuples without
	// a routing-key context until they cross their first fields edge.
	SourceGrouping topology.Grouping
	// SourceKeyField is the tuple field used as routing key on the
	// source hop (Fields grouping only).
	SourceKeyField int
	// SketchCapacity bounds the per-instance pair sketches (the paper
	// uses ~1 MB per POI, §4). Zero disables instrumentation.
	SketchCapacity int
	// ChargeSourceHop also charges transport costs for the source hop.
	// The default (false) matches the paper's setup, where the sources
	// generate tuples and the measured pipeline starts at the first
	// operator.
	ChargeSourceHop bool
}

// Sim replays tuples through the topology, accumulating resource usage,
// traffic statistics and key-pair sketches. It is single-threaded and
// deterministic. Not safe for concurrent use.
type Sim struct {
	cfg   SimConfig
	topo  *topology.Topology
	place *cluster.Placement
	nicNs float64

	procs    map[string][]topology.Processor
	sketches map[[2]string][]*spacesaving.PairSketch // (fromOp,toOp) -> per sender instance

	usage    *simnet.Usage
	traffic  map[string]*metrics.Traffic
	received map[simnet.POI]uint64
	seq      uint64
	injected uint64
}

// NewSim validates cfg and instantiates processors and sketches.
func NewSim(cfg SimConfig) (*Sim, error) {
	if cfg.Topology == nil || cfg.Placement == nil {
		return nil, fmt.Errorf("engine: sim needs a topology and a placement")
	}
	if cfg.SourcePolicy == nil {
		return nil, fmt.Errorf("engine: sim needs a source policy")
	}
	for _, e := range cfg.Topology.Edges() {
		if cfg.Policies[EdgeKey(e.From, e.To)] == nil {
			return nil, fmt.Errorf("engine: no policy for edge %s", EdgeKey(e.From, e.To))
		}
	}

	s := &Sim{
		cfg:      cfg,
		topo:     cfg.Topology,
		place:    cfg.Placement,
		nicNs:    cfg.Model.NICNsPerByte(),
		procs:    make(map[string][]topology.Processor),
		sketches: make(map[[2]string][]*spacesaving.PairSketch),
		usage:    simnet.NewUsage(cfg.Placement.Servers()),
		traffic:  make(map[string]*metrics.Traffic),
		received: make(map[simnet.POI]uint64),
	}
	for _, op := range cfg.Topology.Operators() {
		insts := make([]topology.Processor, op.Parallelism)
		for i := range insts {
			insts[i] = op.New()
		}
		s.procs[op.Name] = insts
	}
	for _, e := range cfg.Topology.Edges() {
		s.traffic[EdgeKey(e.From, e.To)] = &metrics.Traffic{}
	}
	return s, nil
}

// Inject routes one external tuple to the source operator and processes
// it through the whole DAG.
func (s *Sim) Inject(t topology.Tuple) {
	s.injected++
	keyOp, key := "", ""
	if s.sourceFields() {
		key = t.Field(s.cfg.SourceKeyField)
		keyOp = s.topo.Source()
	}
	s.seq++
	inst := s.cfg.SourcePolicy.Route(key, -1, s.seq)
	srcOp := s.topo.Source()
	if s.cfg.ChargeSourceHop {
		// External tuples always arrive over the network.
		server := s.place.ServerOf(srcOp, inst)
		size := float64(t.Size())
		s.usage.AddNICIn(server, size*s.nicNs)
		s.usage.AddCPU(simnet.POI{Op: srcOp, Instance: inst},
			s.cfg.Model.RemoteFixedNs+size*s.cfg.Model.DeserializeNsPerByte)
	}
	s.deliver(srcOp, inst, keyOp, key, t)
}

// sourceFields reports whether the source hop routes by key.
func (s *Sim) sourceFields() bool {
	return s.cfg.SourceGrouping == 0 || s.cfg.SourceGrouping == topology.Fields
}

// InjectAll injects every tuple produced by gen until it reports done.
func (s *Sim) InjectAll(gen func() (topology.Tuple, bool)) {
	for {
		t, ok := gen()
		if !ok {
			return
		}
		s.Inject(t)
	}
}

// deliver processes a tuple at one instance and forwards the emitted
// tuples downstream. keyOp/key identify the last fields-grouping key the
// tuple was routed with (for pair instrumentation); keyOp is "" when the
// tuple has not crossed a fields edge yet.
func (s *Sim) deliver(op string, inst int, keyOp, key string, t topology.Tuple) {
	poi := simnet.POI{Op: op, Instance: inst}
	s.received[poi]++
	s.usage.AddCPU(poi, s.cfg.Model.CPUPerTupleNs)

	server := s.place.ServerOf(op, inst)
	outEdges := s.topo.OutEdges(op)
	if len(outEdges) == 0 {
		s.procs[op][inst].Process(t, func(topology.Tuple) {})
		return
	}
	s.procs[op][inst].Process(t, func(out topology.Tuple) {
		for _, e := range outEdges {
			s.forward(e, op, inst, server, keyOp, key, out)
		}
	})
}

// forward routes one emitted tuple across one edge, charging transfer
// costs and recording statistics, then processes it at the recipient.
func (s *Sim) forward(e topology.Edge, fromOp string, fromInst, fromServer int, keyOp, key string, out topology.Tuple) {
	policy := s.cfg.Policies[EdgeKey(e.From, e.To)]
	nextKeyOp, nextKey := keyOp, key
	routeKey := ""
	if e.Grouping == topology.Fields {
		routeKey = out.Field(e.KeyField)
		// Pair instrumentation (§3.2): associate the key that routed
		// this tuple on the previous fields hop with the key about to
		// route it now.
		if s.cfg.SketchCapacity > 0 && keyOp != "" {
			s.sketchFor(keyOp, e.To, fromOp, fromInst).Add(key, routeKey)
		}
		nextKeyOp, nextKey = e.To, routeKey
	}
	s.seq++
	target := policy.Route(routeKey, fromServer, s.seq)
	targetServer := s.place.ServerOf(e.To, target)
	tier := s.place.Tier(fromServer, targetServer)

	size := out.Size()
	s.traffic[EdgeKey(e.From, e.To)].Record(tier, size)
	fromPOI := simnet.POI{Op: fromOp, Instance: fromInst}
	toPOI := simnet.POI{Op: e.To, Instance: target}
	if tier == metrics.TierServer {
		s.usage.AddCPU(fromPOI, s.cfg.Model.LocalHandoffNs)
	} else {
		fsize := float64(size)
		nicNs := s.nicNs
		switch tier {
		case metrics.TierRegion:
			nicNs = s.cfg.Model.InterClusterNsPerByte()
		case metrics.TierCluster:
			nicNs = s.cfg.Model.InterRackNsPerByte()
		}
		s.usage.AddCPU(fromPOI, s.cfg.Model.RemoteFixedNs+fsize*s.cfg.Model.SerializeNsPerByte)
		s.usage.AddCPU(toPOI, s.cfg.Model.RemoteFixedNs+fsize*s.cfg.Model.DeserializeNsPerByte)
		s.usage.AddNICOut(fromServer, fsize*nicNs)
		s.usage.AddNICIn(targetServer, fsize*nicNs)
	}
	s.deliver(e.To, target, nextKeyOp, nextKey, out)
}

// sketchFor returns the pair sketch of the (keyOp, toOp) pair owned by
// the sending instance, creating it lazily.
func (s *Sim) sketchFor(keyOp, toOp, senderOp string, senderInst int) *spacesaving.PairSketch {
	id := [2]string{keyOp, toOp}
	list := s.sketches[id]
	if list == nil {
		// One sketch per instance of the sending operator.
		list = make([]*spacesaving.PairSketch, s.place.Parallelism(senderOp))
		s.sketches[id] = list
	}
	if senderInst >= len(list) {
		grown := make([]*spacesaving.PairSketch, senderInst+1)
		copy(grown, list)
		list = grown
		s.sketches[id] = list
	}
	if list[senderInst] == nil {
		list[senderInst] = spacesaving.NewPairs(s.cfg.SketchCapacity)
	}
	return list[senderInst]
}

// Injected returns the number of tuples injected since the last window
// reset.
func (s *Sim) Injected() uint64 { return s.injected }

// ThroughputPerSec returns the saturation throughput of the current
// window: injected tuples divided by the bottleneck resource's busy time.
func (s *Sim) ThroughputPerSec() float64 {
	return s.usage.ThroughputPerSec(s.injected)
}

// Bottleneck describes the busiest resource of the current window.
func (s *Sim) Bottleneck() (busyNs float64, label string) {
	return s.usage.MaxBusyNs()
}

// Traffic returns the accumulated traffic of one edge.
func (s *Sim) Traffic(from, to string) metrics.Traffic {
	if tr := s.traffic[EdgeKey(from, to)]; tr != nil {
		return *tr
	}
	return metrics.Traffic{}
}

// FieldsTraffic aggregates traffic over every fields-grouped edge: the
// paper's locality measure.
func (s *Sim) FieldsTraffic() metrics.Traffic {
	var agg metrics.Traffic
	for _, e := range s.topo.FieldsEdges() {
		agg.Add(*s.traffic[EdgeKey(e.From, e.To)])
	}
	return agg
}

// Loads returns the tuples received per instance of op in the current
// window.
func (s *Sim) Loads(op string) []uint64 {
	n := s.place.Parallelism(op)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = s.received[simnet.POI{Op: op, Instance: i}]
	}
	return out
}

// Processor returns instance inst of op, for example to inspect operator
// state in tests.
func (s *Sim) Processor(op string, inst int) topology.Processor {
	insts := s.procs[op]
	if inst < 0 || inst >= len(insts) {
		return nil
	}
	return insts[inst]
}

// PairStats snapshots the pair sketches of every instrumented operator
// pair, merged across sender instances, heaviest pairs first. When reset
// is true the sketches restart empty, as the protocol prescribes after a
// reconfiguration (§3.2).
func (s *Sim) PairStats(reset bool) []PairStat {
	ids := make([][2]string, 0, len(s.sketches))
	for id := range s.sketches {
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
		merged := spacesaving.NewPairs(s.cfg.SketchCapacity * maxInt(1, len(s.sketches[id])))
		for _, sk := range s.sketches[id] {
			if sk == nil {
				continue
			}
			merged.Merge(sk)
			if reset {
				sk.Reset()
			}
		}
		out = append(out, PairStat{FromOp: id[0], ToOp: id[1], Pairs: merged.Counters()})
	}
	return out
}

// ApplyTables installs new routing tables on every table-based fields
// policy that routes into the given operators (including the source hop).
// Unknown operators and non-table policies are ignored, mirroring the
// fallback behaviour of §3.3.
func (s *Sim) ApplyTables(tables map[string]*routing.Table) {
	for op, table := range tables {
		if op == s.topo.Source() {
			if tf, ok := s.cfg.SourcePolicy.(*routing.TableFields); ok {
				tf.Update(table)
			}
		}
		for _, e := range s.topo.InEdges(op) {
			if e.Grouping != topology.Fields {
				continue
			}
			if tf, ok := s.cfg.Policies[EdgeKey(e.From, e.To)].(*routing.TableFields); ok {
				tf.Update(table)
			}
		}
	}
}

// ResetWindow clears the usage ledger, traffic counters, per-instance
// loads and the injected count, starting a new measurement window.
// Processor state and sketches persist across windows.
func (s *Sim) ResetWindow() {
	s.usage.Reset()
	for _, tr := range s.traffic {
		*tr = metrics.Traffic{}
	}
	s.received = make(map[simnet.POI]uint64)
	s.injected = 0
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
