// Package topology models stream applications as directed acyclic graphs
// of processing operators (POs), following the dataflow terminology of
// §2.1 of Caneill et al. (Middleware'16). Each PO is replicated into
// parallel instances (POIs) by the engine; each edge carries a stream and
// is labelled with the routing policy that splits it between the
// recipient's instances.
package topology

import (
	"errors"
	"fmt"
	"sort"
)

// Grouping is the routing policy of an edge (§2.2).
type Grouping int

const (
	// Shuffle distributes tuples round-robin over the recipient's
	// instances. Only appropriate for stateless recipients.
	Shuffle Grouping = iota + 1
	// LocalOrShuffle prefers a recipient instance co-located on the
	// sender's server and falls back to shuffle.
	LocalOrShuffle
	// Fields routes by a key extracted from the tuple so that every
	// tuple with the same key reaches the same instance. Required for
	// stateful recipients. The concrete policy (hash or routing table)
	// is configured on the engine.
	Fields
)

// String returns the Storm-style grouping name.
func (g Grouping) String() string {
	switch g {
	case Shuffle:
		return "shuffle"
	case LocalOrShuffle:
		return "local-or-shuffle"
	case Fields:
		return "fields"
	default:
		return fmt.Sprintf("Grouping(%d)", int(g))
	}
}

// Tuple is one unit of streaming data. Values carries the named fields
// (e.g. location, hashtag); Padding is an additional payload size in
// bytes used to model realistic tuple sizes without materializing them.
type Tuple struct {
	Values  []string
	Padding int
}

// tupleOverhead approximates the framing overhead of a serialized tuple.
const tupleOverhead = 16

// Size returns the number of bytes the tuple occupies on the wire.
func (t Tuple) Size() int {
	n := tupleOverhead + t.Padding
	for _, v := range t.Values {
		n += len(v)
	}
	return n
}

// Field returns field i, or "" when the tuple is too short.
func (t Tuple) Field(i int) string {
	if i < 0 || i >= len(t.Values) {
		return ""
	}
	return t.Values[i]
}

// Emit passes a produced tuple downstream.
type Emit func(Tuple)

// Processor is the user logic of one operator instance. Process consumes
// one input tuple and emits zero or more output tuples. Implementations
// need not be safe for concurrent use: the engine serializes calls per
// instance.
//
// The tuple is the processor's to keep: nothing it holds is reused or
// overwritten after Process returns. A tuple that crossed the network
// shares memory with the tuples that crossed with it, though: its Values
// slice is a capped piece of one slab per wire frame, and its values
// longer than 64 bytes are substrings of one copy of the frame's bytes
// (shorter ones, the size of keys, are separate strings). A processor
// that keeps such a slice or long value past Process keeps its whole
// frame — up to the transport's flush size, 64 KiB by default — from
// being collected; one that keeps many for long should keep
// strings.Clone of the value instead.
type Processor interface {
	Process(t Tuple, emit Emit)
}

// Keyed is implemented by stateful processors whose per-key state can be
// migrated between instances during reconfiguration (§3.4).
type Keyed interface {
	Processor
	// SnapshotKey serializes the state of one key; ok is false when the
	// key has no state.
	SnapshotKey(key string) (data []byte, ok bool)
	// RestoreKey installs previously snapshotted state for a key.
	RestoreKey(key string, data []byte) error
	// DeleteKey discards the state of a key after it has been migrated
	// away.
	DeleteKey(key string)
	// StateKeys lists every key that currently has state.
	StateKeys() []string
}

// Mergeable is implemented by keyed processors whose per-key state forms
// a commutative monoid under MergeKey — the "associative combine" the
// hot-key splitting path requires (Partial Key Grouping, Nasir et al.).
// When a key is promoted to split routing, each replica accumulates a
// partial state for it; demotion (and failure recovery of a replica)
// folds the partials back into the owner with MergeKey. Only operators
// whose processors implement Mergeable can have keys split.
type Mergeable interface {
	Keyed
	// MergeKey folds a serialized partial state for key into the local
	// state, which may or may not already exist. Merging must be
	// associative and commutative so that partials can arrive in any
	// order; data has the same encoding SnapshotKey produces.
	MergeKey(key string, data []byte) error
}

// ProcessorFunc adapts a function to the Processor interface (for
// stateless operators).
type ProcessorFunc func(t Tuple, emit Emit)

// Process calls f.
func (f ProcessorFunc) Process(t Tuple, emit Emit) { f(t, emit) }

// Operator describes one processing operator.
type Operator struct {
	// Name uniquely identifies the operator in its topology.
	Name string
	// Parallelism is the number of instances the engine deploys.
	Parallelism int
	// Stateful marks operators that maintain keyed state; the incoming
	// edge must use Fields grouping.
	Stateful bool
	// New constructs one fresh processor instance.
	New func() Processor
}

// Edge connects the output stream of From to the input of To.
type Edge struct {
	From, To string
	// Grouping selects the routing policy.
	Grouping Grouping
	// KeyField is the tuple field used as routing key for Fields
	// grouping (ignored otherwise).
	KeyField int
}

// Topology is an immutable, validated application DAG. Build one with a
// Builder.
type Topology struct {
	name      string
	source    string // name of the operator fed by the external source
	operators map[string]*Operator
	edges     []Edge
	order     []string // topological order
}

// Builder assembles a Topology.
type Builder struct {
	name      string
	source    string
	operators map[string]*Operator
	edges     []Edge
	errs      []error
}

// NewBuilder starts a topology with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, operators: make(map[string]*Operator)}
}

// AddOperator registers op. The first operator added is fed by the
// external source unless SetSource overrides it.
func (b *Builder) AddOperator(op Operator) *Builder {
	if op.Name == "" {
		b.errs = append(b.errs, errors.New("topology: operator with empty name"))
		return b
	}
	if _, dup := b.operators[op.Name]; dup {
		b.errs = append(b.errs, fmt.Errorf("topology: duplicate operator %q", op.Name))
		return b
	}
	if op.Parallelism < 1 {
		b.errs = append(b.errs, fmt.Errorf("topology: operator %q has parallelism %d", op.Name, op.Parallelism))
		return b
	}
	if op.New == nil {
		b.errs = append(b.errs, fmt.Errorf("topology: operator %q has no processor factory", op.Name))
		return b
	}
	copied := op
	b.operators[op.Name] = &copied
	if b.source == "" {
		b.source = op.Name
	}
	return b
}

// SetSource declares which operator receives the external input stream.
func (b *Builder) SetSource(name string) *Builder {
	b.source = name
	return b
}

// Connect adds an edge with the given grouping. keyField is only used for
// Fields grouping.
func (b *Builder) Connect(from, to string, g Grouping, keyField int) *Builder {
	b.edges = append(b.edges, Edge{From: from, To: to, Grouping: g, KeyField: keyField})
	return b
}

// Build validates the DAG and freezes it.
func (b *Builder) Build() (*Topology, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.operators) == 0 {
		return nil, errors.New("topology: no operators")
	}
	if _, ok := b.operators[b.source]; !ok {
		return nil, fmt.Errorf("topology: source operator %q not defined", b.source)
	}
	for _, e := range b.edges {
		if _, ok := b.operators[e.From]; !ok {
			return nil, fmt.Errorf("topology: edge from unknown operator %q", e.From)
		}
		if _, ok := b.operators[e.To]; !ok {
			return nil, fmt.Errorf("topology: edge to unknown operator %q", e.To)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("topology: self-edge on %q", e.From)
		}
		switch e.Grouping {
		case Shuffle, LocalOrShuffle, Fields:
		default:
			return nil, fmt.Errorf("topology: edge %s->%s has invalid grouping", e.From, e.To)
		}
		if b.operators[e.To].Stateful && e.Grouping != Fields {
			return nil, fmt.Errorf("topology: stateful operator %q requires fields grouping (got %s)",
				e.To, e.Grouping)
		}
		if e.Grouping == Fields && e.KeyField < 0 {
			return nil, fmt.Errorf("topology: edge %s->%s has negative key field", e.From, e.To)
		}
	}
	order, err := topoOrder(b.operators, b.edges, b.source)
	if err != nil {
		return nil, err
	}

	t := &Topology{
		name:      b.name,
		source:    b.source,
		operators: make(map[string]*Operator, len(b.operators)),
		edges:     append([]Edge(nil), b.edges...),
		order:     order,
	}
	for name, op := range b.operators {
		copied := *op
		t.operators[name] = &copied
	}
	return t, nil
}

// topoOrder returns operators in topological order starting from source
// and errors on cycles or operators unreachable from the source.
func topoOrder(ops map[string]*Operator, edges []Edge, source string) ([]string, error) {
	succ := make(map[string][]string)
	indeg := make(map[string]int, len(ops))
	for name := range ops {
		indeg[name] = 0
	}
	for _, e := range edges {
		succ[e.From] = append(succ[e.From], e.To)
		indeg[e.To]++
	}
	for _, list := range succ {
		sort.Strings(list)
	}

	var queue []string
	for name, d := range indeg {
		if d == 0 {
			queue = append(queue, name)
		}
	}
	sort.Strings(queue)

	var order []string
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		order = append(order, cur)
		for _, next := range succ[cur] {
			indeg[next]--
			if indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
		sort.Strings(queue)
	}
	if len(order) != len(ops) {
		return nil, errors.New("topology: cycle detected")
	}
	// Reachability from the source: every operator must be fed.
	reach := map[string]bool{source: true}
	changed := true
	for changed {
		changed = false
		for _, e := range edges {
			if reach[e.From] && !reach[e.To] {
				reach[e.To] = true
				changed = true
			}
		}
	}
	for name := range ops {
		if !reach[name] {
			return nil, fmt.Errorf("topology: operator %q unreachable from source %q", name, source)
		}
	}
	return order, nil
}

// Name returns the topology name.
func (t *Topology) Name() string { return t.name }

// Source returns the operator fed by the external stream.
func (t *Topology) Source() string { return t.source }

// Operator returns the named operator, or nil.
func (t *Topology) Operator(name string) *Operator { return t.operators[name] }

// Operators returns all operators in topological order.
func (t *Topology) Operators() []*Operator {
	out := make([]*Operator, 0, len(t.order))
	for _, name := range t.order {
		out = append(out, t.operators[name])
	}
	return out
}

// Order returns operator names in topological order (the propagation
// order of the reconfiguration protocol).
func (t *Topology) Order() []string { return append([]string(nil), t.order...) }

// Edges returns all edges.
func (t *Topology) Edges() []Edge { return append([]Edge(nil), t.edges...) }

// OutEdges returns the edges leaving op.
func (t *Topology) OutEdges(op string) []Edge {
	var out []Edge
	for _, e := range t.edges {
		if e.From == op {
			out = append(out, e)
		}
	}
	return out
}

// InEdges returns the edges entering op.
func (t *Topology) InEdges(op string) []Edge {
	var out []Edge
	for _, e := range t.edges {
		if e.To == op {
			out = append(out, e)
		}
	}
	return out
}

// Predecessors returns the names of operators with an edge into op.
func (t *Topology) Predecessors(op string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, e := range t.edges {
		if e.To == op && !seen[e.From] {
			seen[e.From] = true
			out = append(out, e.From)
		}
	}
	sort.Strings(out)
	return out
}

// Successors returns the names of operators op feeds.
func (t *Topology) Successors(op string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, e := range t.edges {
		if e.From == op && !seen[e.To] {
			seen[e.To] = true
			out = append(out, e.To)
		}
	}
	sort.Strings(out)
	return out
}

// FieldsEdges returns the edges using Fields grouping, the ones the
// locality optimizer acts on.
func (t *Topology) FieldsEdges() []Edge {
	var out []Edge
	for _, e := range t.edges {
		if e.Grouping == Fields {
			out = append(out, e)
		}
	}
	return out
}
