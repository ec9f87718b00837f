// Package keygraph builds the vertex- and edge-weighted key graph of §3.3
// of Caneill et al. (Middleware'16).
//
// For a pair of consecutive stateful operators X and Y connected through
// fields groupings, the graph holds one vertex per key routed to X and
// one per key routed to Y; a vertex is weighted by the key's frequency
// and an edge (k, k') by the number of tuples that carried key k into X
// and then key k' into Y (Fig. 5 shows the resulting bipartite graph).
// Vertices are identified by (operator, key), so statistics from several
// consecutive operator pairs — a chain A→B→C or a general DAG — merge
// into a single graph, as the paper's conclusion anticipates.
//
// Partitioning this graph with a balance constraint yields the
// locality-aware routing tables.
package keygraph

import (
	"cmp"
	"slices"
	"sort"

	"github.com/locastream/locastream/internal/partition"
	"github.com/locastream/locastream/internal/spacesaving"
)

// VertexID identifies a key vertex: Op is the stateful operator whose
// input routing uses Key.
type VertexID struct {
	Op  string
	Key string
}

// Vertex is a key with its accumulated frequency weight.
type Vertex struct {
	ID     VertexID
	Weight uint64
}

// Graph is a key graph. The zero value is not usable; call New.
type Graph struct {
	vertices map[VertexID]uint64
	edges    map[[2]VertexID]uint64
}

// New returns an empty key graph.
func New() *Graph {
	return &Graph{
		vertices: make(map[VertexID]uint64),
		edges:    make(map[[2]VertexID]uint64),
	}
}

// AddPairs folds SpaceSaving pair counters for the operator pair
// (fromOp, toOp) into the graph, keeping only the maxEdges heaviest pairs
// (maxEdges <= 0 keeps everything). Vertex weights are derived from the
// kept edges: the weight of a key is the sum of its incident edge
// weights, approximating its frequency over the monitored traffic — this
// mirrors the paper's bounded statistics collection (Fig. 12).
func (g *Graph) AddPairs(fromOp, toOp string, pairs []spacesaving.PairCounter, maxEdges int) {
	if maxEdges > 0 && maxEdges < len(pairs) {
		sorted := make([]spacesaving.PairCounter, len(pairs))
		copy(sorted, pairs)
		sort.SliceStable(sorted, func(i, j int) bool {
			if sorted[i].Count != sorted[j].Count {
				return sorted[i].Count > sorted[j].Count
			}
			if sorted[i].In != sorted[j].In {
				return sorted[i].In < sorted[j].In
			}
			return sorted[i].Out < sorted[j].Out
		})
		pairs = sorted[:maxEdges]
	}
	for _, p := range pairs {
		g.AddPair(VertexID{Op: fromOp, Key: p.In}, VertexID{Op: toOp, Key: p.Out}, p.Count)
	}
}

// AddPair records weight co-occurrences between two key vertices,
// increasing the edge weight and both vertex weights. Self-pairs and zero
// weights are ignored.
func (g *Graph) AddPair(from, to VertexID, weight uint64) {
	if weight == 0 || from == to {
		return
	}
	g.vertices[from] += weight
	g.vertices[to] += weight
	g.edges[[2]VertexID{from, to}] += weight
}

// NumVertices returns the number of distinct vertices.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the number of distinct edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// VertexWeight returns the accumulated weight of the given vertex.
func (g *Graph) VertexWeight(id VertexID) uint64 { return g.vertices[id] }

// EdgeWeight returns the accumulated weight of the edge (from, to).
func (g *Graph) EdgeWeight(from, to VertexID) uint64 {
	return g.edges[[2]VertexID{from, to}]
}

// TotalVertexWeight returns the sum of all vertex weights.
func (g *Graph) TotalVertexWeight() uint64 {
	var total uint64
	for _, w := range g.vertices {
		total += w
	}
	return total
}

// TotalEdgeWeight returns the sum of all edge weights.
func (g *Graph) TotalEdgeWeight() uint64 {
	var total uint64
	for _, w := range g.edges {
		total += w
	}
	return total
}

// Vertices returns all vertices sorted by operator then key.
func (g *Graph) Vertices() []Vertex {
	out := make([]Vertex, 0, len(g.vertices))
	for id, w := range g.vertices {
		out = append(out, Vertex{ID: id, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID.Op != out[j].ID.Op {
			return out[i].ID.Op < out[j].ID.Op
		}
		return out[i].ID.Key < out[j].ID.Key
	})
	return out
}

// CSR converts the graph to the compressed adjacency form consumed by the
// partitioner: vertex weights and symmetric adjacency lists, each list in
// ascending neighbour order. ids maps positions in the arrays back to
// vertex IDs, in Vertices() order.
func (g *Graph) CSR() (ids []VertexID, weights []uint64, adj [][]Adj) {
	vs := g.Vertices()
	ids = make([]VertexID, len(vs))
	weights = make([]uint64, len(vs))
	index := make(map[VertexID]int, len(vs))
	for i, v := range vs {
		ids[i] = v.ID
		weights[i] = v.Weight
		index[v.ID] = i
	}
	adj = make([][]Adj, len(vs))
	for e, w := range g.edges {
		u, v := index[e[0]], index[e[1]]
		adj[u] = append(adj[u], Adj{To: v, Weight: w})
		adj[v] = append(adj[v], Adj{To: u, Weight: w})
	}
	for _, list := range adj {
		slices.SortFunc(list, func(a, b Adj) int {
			if c := cmp.Compare(a.To, b.To); c != 0 {
				return c
			}
			return cmp.Compare(a.Weight, b.Weight)
		})
	}
	return ids, weights, adj
}

// Adj is the partitioner's adjacency entry — the neighbour's index and
// the edge weight — so CSR's lists go into a partition.Graph as they are.
type Adj = partition.Adj
