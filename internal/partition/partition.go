// Package partition implements a multilevel k-way graph partitioner in the
// spirit of Metis (Karypis & Kumar, SIAM J. Sci. Comput. 1998), which the
// reproduced paper uses to split the bipartite key graph across servers.
//
// The algorithm follows the classic three phases:
//
//  1. Coarsening: repeated heavy-edge matching collapses matched vertex
//     pairs until the graph is small.
//  2. Initial partitioning: greedy balanced assignment of the coarse
//     vertices in descending weight order, preferring the part with the
//     strongest connection.
//  3. Uncoarsening: the partition is projected back level by level and
//     improved with Fiduccia–Mattheyses-style boundary refinement under
//     the balance constraint load(part) <= alpha * total / k. Each vertex
//     keeps its connectivity to every part, so a move's gain costs O(k),
//     and a pass gives up after clamp(n/100, 50, 200) moves that do not
//     improve its best prefix.
//
// The partitioner is deterministic for a fixed Options.Seed.
package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Adj is one adjacency entry of the input graph.
type Adj struct {
	// To is the neighbour vertex index.
	To int
	// Weight is the edge weight (co-occurrence count).
	Weight uint64
}

// Graph is the partitioner input: a symmetric weighted graph in adjacency
// list form. Adj[u] must contain an entry {v, w} exactly when Adj[v]
// contains {u, w}. Parallel entries to the same neighbour are allowed and
// treated additively.
type Graph struct {
	// Weights holds one non-negative weight per vertex.
	Weights []uint64
	// Adj holds the adjacency list of each vertex.
	Adj [][]Adj
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.Weights) }

// TotalWeight returns the sum of vertex weights.
func (g *Graph) TotalWeight() uint64 {
	var t uint64
	for _, w := range g.Weights {
		t += w
	}
	return t
}

// Options configures Partition.
type Options struct {
	// K is the number of parts (servers). Must be >= 1.
	K int
	// Alpha is the imbalance bound: every part's vertex weight must stay
	// below Alpha * total / K whenever feasible. Values < 1 are raised
	// to 1. The paper uses Metis' default of 1.03.
	Alpha float64
	// Seed makes tie-breaking deterministic.
	Seed int64
	// Rand, when non-nil, supplies the tie-breaking randomness instead of
	// a Seed-derived source. Threading an explicit *rand.Rand makes a
	// sequence of related plans (e.g. the churn and skew drills, or the
	// per-group sub-partitions of Nested) reproducible end to end:
	// the caller owns the stream of random values, so identical inputs
	// yield identical plans across runs and test processes. The generator
	// is consumed sequentially and must not be shared with concurrent
	// callers.
	Rand *rand.Rand
	// CoarsenTo stops coarsening when the graph has at most this many
	// vertices. Zero selects max(64, 16*K).
	CoarsenTo int
	// RefinePasses bounds the number of refinement sweeps per level.
	// Zero selects 8; negative values disable refinement entirely
	// (useful for ablations).
	RefinePasses int
	// TargetFractions optionally sets unequal part sizes: part p may
	// hold up to Alpha * total * TargetFractions[p] vertex weight. nil
	// means uniform (1/K each). Must have length K and sum to ~1.
	TargetFractions []float64
	// Pinned optionally fixes vertices to parts: Pinned[v] == p >= 0
	// forces vertex v into part p (it is never moved by any phase),
	// while -1 leaves v free. nil means all vertices are free. Must
	// have length NumVertices. Pinning disables coarsening, so it is
	// meant for small graphs — e.g. failure-recovery repair, where the
	// dead server's keys are free and their surviving neighbours are
	// pinned in place so only the failed keys move.
	Pinned []int
}

// DefaultAlpha is the balance bound used by the paper (Metis default).
const DefaultAlpha = 1.03

// Result is the output of Partition.
type Result struct {
	// Parts assigns each input vertex to a part in [0, K).
	Parts []int
	// CutWeight is the total weight of edges whose endpoints are in
	// different parts.
	CutWeight uint64
	// PartWeights is the vertex weight of each part.
	PartWeights []uint64
	// Imbalance is max(PartWeights) / (total/K); 1.0 is perfect.
	Imbalance float64
}

// ErrBadGraph reports a malformed input graph.
var ErrBadGraph = errors.New("partition: malformed graph")

// Partition splits g into opts.K parts minimizing edge cut under the
// balance constraint.
func Partition(g *Graph, opts Options) (*Result, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	if opts.K < 1 {
		return nil, fmt.Errorf("partition: K = %d, want >= 1", opts.K)
	}
	if opts.TargetFractions != nil {
		if len(opts.TargetFractions) != opts.K {
			return nil, fmt.Errorf("partition: %d target fractions for K = %d",
				len(opts.TargetFractions), opts.K)
		}
		for p, f := range opts.TargetFractions {
			if f <= 0 {
				return nil, fmt.Errorf("partition: target fraction %f for part %d", f, p)
			}
		}
	}
	if opts.Pinned != nil {
		if len(opts.Pinned) != g.NumVertices() {
			return nil, fmt.Errorf("partition: %d pins for %d vertices",
				len(opts.Pinned), g.NumVertices())
		}
		for v, p := range opts.Pinned {
			if p < -1 || p >= opts.K {
				return nil, fmt.Errorf("partition: vertex %d pinned to part %d, want [-1, %d)",
					v, p, opts.K)
			}
		}
	}
	if opts.Alpha < 1 {
		opts.Alpha = 1
	}
	if opts.CoarsenTo <= 0 {
		opts.CoarsenTo = 16 * opts.K
		if opts.CoarsenTo < 64 {
			opts.CoarsenTo = 64
		}
	}
	switch {
	case opts.RefinePasses == 0:
		opts.RefinePasses = 8
	case opts.RefinePasses < 0:
		opts.RefinePasses = 0
	}

	n := g.NumVertices()
	if n == 0 {
		return &Result{Parts: []int{}, PartWeights: make([]uint64, opts.K), Imbalance: 0}, nil
	}
	if opts.K == 1 {
		parts := make([]int, n)
		return summarize(g, parts, 1), nil
	}

	rng := opts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(opts.Seed))
	}

	// Phase 1: coarsen. Pinned graphs skip this phase: collapsing a
	// pinned vertex with a free (or differently pinned) one would make
	// the constraint unrepresentable, and pinned inputs are small repair
	// graphs anyway.
	levels := []*level{{g: normalize(g)}}
	if opts.Pinned == nil {
		for levels[len(levels)-1].g.NumVertices() > opts.CoarsenTo {
			cur := levels[len(levels)-1]
			next, ok := coarsen(cur.g, rng)
			if !ok {
				break // no further shrink possible
			}
			cur.coarseMap = next.fineToCoarse
			levels = append(levels, &level{g: next.g})
		}
	}

	// Phase 2: initial partition of the coarsest level.
	coarse := levels[len(levels)-1]
	parts := initialPartition(coarse.g, opts, rng)

	// Phase 3: refine and project back.
	r := newRefiner(n, opts)
	r.refine(coarse.g, parts)
	for i := len(levels) - 2; i >= 0; i-- {
		lvl := levels[i]
		fineParts := make([]int, lvl.g.NumVertices())
		for v := range fineParts {
			fineParts[v] = parts[lvl.coarseMap[v]]
		}
		parts = fineParts
		r.refine(lvl.g, parts)
	}

	return summarize(g, parts, opts.K), nil
}

type level struct {
	g         *Graph
	coarseMap []int // fine vertex -> coarse vertex at the next level
}

func validate(g *Graph) error {
	if g == nil {
		return fmt.Errorf("%w: nil graph", ErrBadGraph)
	}
	if len(g.Adj) != len(g.Weights) {
		return fmt.Errorf("%w: %d weights but %d adjacency lists", ErrBadGraph, len(g.Weights), len(g.Adj))
	}
	n := len(g.Weights)
	for u, list := range g.Adj {
		for _, a := range list {
			if a.To < 0 || a.To >= n {
				return fmt.Errorf("%w: vertex %d has neighbour %d out of range", ErrBadGraph, u, a.To)
			}
			if a.To == u {
				return fmt.Errorf("%w: vertex %d has a self-loop", ErrBadGraph, u)
			}
		}
	}
	return nil
}

// normalize merges parallel adjacency entries so downstream code can
// assume at most one entry per neighbour, in ascending neighbour order.
func normalize(g *Graph) *Graph {
	out := &Graph{
		Weights: append([]uint64(nil), g.Weights...),
		Adj:     make([][]Adj, len(g.Adj)),
	}
	m := newMerger(len(g.Adj))
	for u, list := range g.Adj {
		for _, a := range list {
			m.add(a.To, a.Weight)
		}
		out.Adj[u] = m.take()
	}
	return out
}

// merger sums adjacency entries by neighbour without a map: a dense
// weight per neighbour index plus the list of the neighbours touched, so
// merging a list costs its length plus a sort of the distinct neighbours.
type merger struct {
	weight  []uint64
	seen    []bool
	touched []int
}

func newMerger(n int) *merger {
	return &merger{weight: make([]uint64, n), seen: make([]bool, n)}
}

func (m *merger) add(to int, w uint64) {
	if !m.seen[to] {
		m.seen[to] = true
		m.touched = append(m.touched, to)
	}
	m.weight[to] += w
}

// take returns the merged entries in ascending neighbour order (nil when
// none were added) and clears the merger for the next list.
func (m *merger) take() []Adj {
	if len(m.touched) == 0 {
		return nil
	}
	sort.Ints(m.touched)
	out := make([]Adj, len(m.touched))
	for i, to := range m.touched {
		out[i] = Adj{To: to, Weight: m.weight[to]}
		m.weight[to], m.seen[to] = 0, false
	}
	m.touched = m.touched[:0]
	return out
}

type coarseResult struct {
	g            *Graph
	fineToCoarse []int
}

// coarsen performs one level of heavy-edge matching. Returns ok == false
// when the graph cannot shrink (no edges left or matching degenerate).
func coarsen(g *Graph, rng *rand.Rand) (coarseResult, bool) {
	n := g.NumVertices()
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	// Visit vertices in random order; match each unmatched vertex with
	// its heaviest unmatched neighbour.
	order := rng.Perm(n)
	matched := 0
	for _, u := range order {
		if match[u] != -1 {
			continue
		}
		best, bestW := -1, uint64(0)
		for _, a := range g.Adj[u] {
			if match[a.To] == -1 && a.To != u && a.Weight >= bestW {
				if a.Weight > bestW || best == -1 || a.To < best {
					best, bestW = a.To, a.Weight
				}
			}
		}
		if best != -1 {
			match[u] = best
			match[best] = u
			matched += 2
		}
	}
	if matched == 0 {
		return coarseResult{}, false
	}

	// Coarse vertex c collapses fine vertex first[c] and its match, if any.
	fineToCoarse := make([]int, n)
	var first []int
	for u := 0; u < n; u++ {
		if match[u] == -1 || match[u] > u {
			fineToCoarse[u] = len(first)
			first = append(first, u)
		}
	}
	for u := 0; u < n; u++ {
		if match[u] != -1 && match[u] < u {
			fineToCoarse[u] = fineToCoarse[match[u]]
		}
	}
	coarseCount := len(first)
	if coarseCount >= n {
		return coarseResult{}, false
	}

	cg := &Graph{
		Weights: make([]uint64, coarseCount),
		Adj:     make([][]Adj, coarseCount),
	}
	m := newMerger(coarseCount)
	for cu, u := range first {
		for _, fu := range [2]int{u, match[u]} {
			if fu == -1 {
				continue
			}
			cg.Weights[cu] += g.Weights[fu]
			for _, a := range g.Adj[fu] {
				if cv := fineToCoarse[a.To]; cv != cu {
					m.add(cv, a.Weight)
				}
			}
		}
		cg.Adj[cu] = m.take()
	}
	return coarseResult{g: cg, fineToCoarse: fineToCoarse}, true
}

// initialPartition assigns coarse vertices greedily: descending weight
// order, each vertex goes to the part with the strongest existing
// connection among parts that stay under the cap, falling back to the
// lightest part. Pinned vertices are placed first, unconditionally, so
// free vertices gravitate toward their pinned neighbours.
func initialPartition(g *Graph, opts Options, rng *rand.Rand) []int {
	n := g.NumVertices()
	parts := make([]int, n)
	for i := range parts {
		parts[i] = -1
	}
	loads := make([]uint64, opts.K)
	caps := capsFor(g.TotalWeight(), opts)

	if opts.Pinned != nil {
		for u, p := range opts.Pinned {
			if p >= 0 {
				parts[u] = p
				loads[p] += g.Weights[u]
			}
		}
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Shuffle first so equal-weight ties are seed-dependent but
	// deterministic, then stable sort by descending weight.
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	sort.SliceStable(order, func(i, j int) bool {
		return g.Weights[order[i]] > g.Weights[order[j]]
	})

	gain := make([]uint64, opts.K)
	for _, u := range order {
		if parts[u] >= 0 {
			continue // pinned, already placed
		}
		for p := range gain {
			gain[p] = 0
		}
		for _, a := range g.Adj[u] {
			if pv := parts[a.To]; pv >= 0 {
				gain[pv] += a.Weight
			}
		}
		best := -1
		var bestGain uint64
		for p := 0; p < opts.K; p++ {
			if loads[p]+g.Weights[u] > caps[p] {
				continue
			}
			if best == -1 || gain[p] > bestGain ||
				(gain[p] == bestGain && loads[p] < loads[best]) {
				best, bestGain = p, gain[p]
			}
		}
		if best == -1 {
			// Nothing fits under the cap (a single huge vertex);
			// place on the lightest part.
			best = 0
			for p := 1; p < opts.K; p++ {
				if loads[p] < loads[best] {
					best = p
				}
			}
		}
		parts[u] = best
		loads[best] += g.Weights[u]
	}
	return parts
}

// refiner improves a partition level by level with Fiduccia–Mattheyses
// passes. It keeps each vertex's connectivity to every part, so a move's
// gain is read in O(k) and a move costs O(degree) to record; the table
// and the per-pass scratch are sized for the finest level once and reused
// by every pass of every level.
type refiner struct {
	opts  Options
	g     *Graph
	parts []int
	loads []uint64
	caps  []uint64
	// maxW is the level's heaviest vertex: tentative moves may overshoot
	// the cap by that much (the classic FM tolerance).
	maxW uint64
	// conn[v*k+p] is the weight of v's edges into part p. It is built once
	// per level and kept exact through every move, rollback and
	// rebalance step.
	conn   []uint64
	locked []bool
	stamp  []uint64
	heap   moveHeap
	moves  []fmMove
}

// newRefiner returns a refiner for levels of at most n vertices.
func newRefiner(n int, opts Options) *refiner {
	return &refiner{
		opts:   opts,
		loads:  make([]uint64, opts.K),
		conn:   make([]uint64, n*opts.K),
		locked: make([]bool, n),
		stamp:  make([]uint64, n),
	}
}

// refine improves parts in place: at most RefinePasses FM passes, each
// keeping the best prefix of its moves, then a balance repair. Moves must
// respect the balance cap except when they drain an overloaded part.
func (r *refiner) refine(g *Graph, parts []int) {
	r.setLevel(g, parts)
	for pass := 0; pass < r.opts.RefinePasses; pass++ {
		if r.fmPass() == 0 {
			break
		}
	}
	// Balance repair: if any part exceeds the cap (possible right after
	// projection), move its lowest-connectivity boundary vertices out.
	r.rebalance()
}

// setLevel points the refiner at one level's graph and assignment and
// builds its loads and connectivity table.
func (r *refiner) setLevel(g *Graph, parts []int) {
	n, k := g.NumVertices(), r.opts.K
	r.g, r.parts = g, parts
	r.caps = capsFor(g.TotalWeight(), r.opts)
	r.maxW = 0
	for p := range r.loads {
		r.loads[p] = 0
	}
	for v, p := range parts {
		r.loads[p] += g.Weights[v]
		if g.Weights[v] > r.maxW {
			r.maxW = g.Weights[v]
		}
	}
	r.conn = r.conn[:n*k]
	for i := range r.conn {
		r.conn[i] = 0
	}
	for v, list := range g.Adj {
		row := r.row(v)
		for _, a := range list {
			row[parts[a.To]] += a.Weight
		}
	}
}

// row is v's slice of the connectivity table.
func (r *refiner) row(v int) []uint64 {
	k := r.opts.K
	return r.conn[v*k : (v+1)*k]
}

// move reassigns v and keeps loads and the neighbours' rows exact.
func (r *refiner) move(v, to int) {
	from, w := r.parts[v], r.g.Weights[v]
	r.parts[v] = to
	r.loads[from] -= w
	r.loads[to] += w
	k := r.opts.K
	for _, a := range r.g.Adj[v] {
		r.conn[a.To*k+from] -= a.Weight
		r.conn[a.To*k+to] += a.Weight
	}
}

func (r *refiner) pinned(v int) bool {
	return r.opts.Pinned != nil && r.opts.Pinned[v] >= 0
}

// bestMove returns the most attractive target part for v under the
// balance constraint; ok is false when v has no feasible move.
func (r *refiner) bestMove(v int) (to int, gain int64, ok bool) {
	if len(r.g.Adj[v]) == 0 {
		return 0, 0, false
	}
	from, w, loads, caps := r.parts[v], r.g.Weights[v], r.loads, r.caps
	row := r.row(v)
	to = -1
	for p := range row {
		if p == from {
			continue
		}
		if loads[p]+w > caps[p]+r.maxW && loads[from] <= caps[from] {
			continue
		}
		gp := int64(row[p]) - int64(row[from])
		if to == -1 || gp > gain || (gp == gain && loads[p] < loads[to]) {
			to, gain = p, gp
		}
	}
	return to, gain, to != -1
}

// push queues v's current best move, superseding any queued one.
func (r *refiner) push(v int) {
	if r.locked[v] {
		return
	}
	if to, gain, ok := r.bestMove(v); ok {
		r.stamp[v]++
		r.heap.push(moveCand{v: v, to: to, gain: gain, stamp: r.stamp[v]})
	}
}

// fmMove records one applied tentative move for possible rollback.
type fmMove struct {
	v, from int
}

// fmPass runs one FM sweep and returns the kept cut improvement (0 when
// the pass achieved nothing and refinement should stop). Every free
// vertex may move once, possibly with negative gain, until the sweep has
// gone patience moves past its best prefix; the best prefix is kept.
// Pinned vertices start locked and never move.
func (r *refiner) fmPass() int64 {
	n := r.g.NumVertices()
	for v := range r.locked[:n] {
		r.locked[v] = r.pinned(v)
	}
	// Stamps carry over from the last pass: a queued move is current
	// while its stamp matches, and the heap starts empty.
	r.heap.items = r.heap.items[:0]
	r.moves = r.moves[:0]
	for v := 0; v < n; v++ {
		r.push(v)
	}

	var (
		cum, bestCum int64
		bestLen      int
		budget       = n
		// The usual FM early exit: a pass that has made this many moves
		// since its best prefix is unlikely to climb back above it.
		patience = min(max(n/100, 50), 200)
	)
	for budget > 0 && r.heap.len() > 0 {
		c := r.heap.pop()
		if r.locked[c.v] || c.stamp != r.stamp[c.v] {
			continue
		}
		to, gain, ok := r.bestMove(c.v)
		if !ok {
			continue
		}
		if gain != c.gain || to != c.to {
			r.stamp[c.v]++
			r.heap.push(moveCand{v: c.v, to: to, gain: gain, stamp: r.stamp[c.v]})
			continue
		}
		// Apply the tentative move and lock the vertex.
		r.moves = append(r.moves, fmMove{v: c.v, from: r.parts[c.v]})
		r.move(c.v, to)
		r.locked[c.v] = true
		cum += gain
		if cum > bestCum {
			bestCum, bestLen = cum, len(r.moves)
		} else if len(r.moves)-bestLen >= patience {
			break
		}
		budget--
		// Neighbours' gains changed; refresh their candidates.
		for _, a := range r.g.Adj[c.v] {
			r.push(a.To)
		}
	}

	// Roll back every move after the best prefix.
	for i := len(r.moves) - 1; i >= bestLen; i-- {
		r.move(r.moves[i].v, r.moves[i].from)
	}
	return bestCum
}

// moveCand is a prioritized tentative move.
type moveCand struct {
	v     int
	to    int
	gain  int64
	stamp uint64
}

// moveHeap is a max-heap of candidates by gain (lazy deletion via stamp).
type moveHeap struct {
	items []moveCand
}

func (h *moveHeap) len() int { return len(h.items) }

func (h *moveHeap) push(c moveCand) {
	h.items = append(h.items, c)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].gain >= h.items[i].gain {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *moveHeap) pop() moveCand {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < last && h.items[l].gain > h.items[largest].gain {
			largest = l
		}
		if r < last && h.items[r].gain > h.items[largest].gain {
			largest = r
		}
		if largest == i {
			break
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
	return top
}

// rebalance moves vertices from overloaded parts to the lightest feasible
// part, choosing moves that lose the least connectivity first. Pinned
// vertices stay put even when their part is overloaded.
func (r *refiner) rebalance() {
	g, parts, loads, caps := r.g, r.parts, r.loads, r.caps
	n := g.NumVertices()
	for p := range loads {
		for guard := 0; loads[p] > caps[p] && guard < n; guard++ {
			// Pick the vertex in p whose move costs the least cut.
			bestV, bestTo := -1, -1
			bestCost := int64(1<<62 - 1)
			for v := 0; v < n; v++ {
				if parts[v] != p || r.pinned(v) {
					continue
				}
				row := r.row(v)
				for q := range row {
					if q == p || loads[q]+g.Weights[v] > caps[q] {
						continue
					}
					cost := int64(row[p]) - int64(row[q])
					if cost < bestCost || (cost == bestCost && bestV == -1) {
						bestV, bestTo, bestCost = v, q, cost
					}
				}
			}
			if bestV == -1 {
				break // no feasible move; accept the imbalance
			}
			r.move(bestV, bestTo)
		}
	}
}

// capsFor computes the per-part weight limits, honouring unequal target
// fractions when configured.
func capsFor(total uint64, opts Options) []uint64 {
	caps := make([]uint64, opts.K)
	for p := range caps {
		frac := 1.0 / float64(opts.K)
		if opts.TargetFractions != nil {
			frac = opts.TargetFractions[p]
		}
		c := uint64(opts.Alpha * float64(total) * frac)
		if c == 0 {
			c = 1
		}
		caps[p] = c
	}
	return caps
}

// summarize computes the result statistics for a final assignment.
func summarize(g *Graph, parts []int, k int) *Result {
	res := &Result{Parts: parts, PartWeights: make([]uint64, k)}
	for v, p := range parts {
		res.PartWeights[p] += g.Weights[v]
	}
	for u, list := range g.Adj {
		for _, a := range list {
			if a.To > u && parts[a.To] != parts[u] {
				res.CutWeight += a.Weight
			}
		}
	}
	total := g.TotalWeight()
	if total > 0 {
		var max uint64
		for _, w := range res.PartWeights {
			if w > max {
				max = w
			}
		}
		res.Imbalance = float64(max) * float64(k) / float64(total)
	}
	return res
}
