package keygraph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/locastream/locastream/internal/spacesaving"
)

func vid(op, key string) VertexID { return VertexID{Op: op, Key: key} }

func TestEmptyGraph(t *testing.T) {
	g := New()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.TotalVertexWeight() != 0 || g.TotalEdgeWeight() != 0 {
		t.Fatal("empty graph has nonzero weight")
	}
	ids, ws, adj := g.CSR()
	if len(ids) != 0 || len(ws) != 0 || len(adj) != 0 {
		t.Fatal("empty CSR not empty")
	}
}

func TestAddPairAccumulates(t *testing.T) {
	g := New()
	g.AddPair(vid("A", "Asia"), vid("B", "#java"), 3)
	g.AddPair(vid("A", "Asia"), vid("B", "#java"), 2)
	g.AddPair(vid("A", "Asia"), vid("B", "#ruby"), 1)
	g.AddPair(vid("A", "Oceania"), vid("B", "#java"), 0) // ignored
	g.AddPair(vid("A", "x"), vid("A", "x"), 7)           // self pair ignored

	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices() = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges() = %d, want 2", g.NumEdges())
	}
	if w := g.EdgeWeight(vid("A", "Asia"), vid("B", "#java")); w != 5 {
		t.Fatalf("EdgeWeight = %d, want 5", w)
	}
	if w := g.VertexWeight(vid("A", "Asia")); w != 6 {
		t.Fatalf("VertexWeight(A:Asia) = %d, want 6", w)
	}
	if w := g.VertexWeight(vid("B", "#java")); w != 5 {
		t.Fatalf("VertexWeight(B:#java) = %d, want 5", w)
	}
}

func TestSameKeyDifferentOpsDistinct(t *testing.T) {
	g := New()
	g.AddPair(vid("A", "x"), vid("B", "x"), 4)
	if g.NumVertices() != 2 {
		t.Fatalf("NumVertices() = %d, want 2 (A:x and B:x)", g.NumVertices())
	}
}

func TestChainMergesSharedOperator(t *testing.T) {
	// A->B and B->C statistics share B's key vertices.
	g := New()
	g.AddPairs("A", "B", []spacesaving.PairCounter{{In: "a1", Out: "b1", Count: 10}}, 0)
	g.AddPairs("B", "C", []spacesaving.PairCounter{{In: "b1", Out: "c1", Count: 7}}, 0)
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices() = %d, want 3 (A:a1, B:b1, C:c1)", g.NumVertices())
	}
	if w := g.VertexWeight(vid("B", "b1")); w != 17 {
		t.Fatalf("VertexWeight(B:b1) = %d, want 17 (both pair sets)", w)
	}
}

func TestAddPairsKeepsHeaviest(t *testing.T) {
	pairs := []spacesaving.PairCounter{
		{In: "a", Out: "x", Count: 5},
		{In: "b", Out: "y", Count: 50},
		{In: "c", Out: "z", Count: 20},
	}
	g := New()
	g.AddPairs("A", "B", pairs, 2)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges() = %d, want 2", g.NumEdges())
	}
	if g.EdgeWeight(vid("A", "a"), vid("B", "x")) != 0 {
		t.Fatal("lightest edge should have been dropped")
	}
	if g.EdgeWeight(vid("A", "b"), vid("B", "y")) != 50 {
		t.Fatal("heaviest edge missing")
	}
}

func TestCSRSymmetry(t *testing.T) {
	g := New()
	g.AddPair(vid("A", "a"), vid("B", "x"), 3)
	g.AddPair(vid("A", "a"), vid("B", "y"), 1)
	g.AddPair(vid("A", "b"), vid("B", "x"), 2)
	ids, weights, adj := g.CSR()
	if len(ids) != 4 || len(weights) != 4 {
		t.Fatalf("CSR sizes = %d/%d, want 4/4", len(ids), len(weights))
	}
	type key struct{ u, v int }
	seen := make(map[key]uint64)
	for u, list := range adj {
		for _, a := range list {
			seen[key{u, a.To}] = a.Weight
		}
	}
	for k, w := range seen {
		if seen[key{k.v, k.u}] != w {
			t.Fatalf("edge %v asymmetric", k)
		}
	}
	var deg int
	for _, list := range adj {
		deg += len(list)
	}
	if deg != 2*g.NumEdges() {
		t.Fatalf("degree sum %d != 2*edges %d", deg, 2*g.NumEdges())
	}
}

// CSR numbers vertices in Vertices() order and hands each adjacency list
// over in ascending neighbour order, whatever order the pairs came in.
func TestCSROrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var pairs []spacesaving.PairCounter
	for i := 0; i < 200; i++ {
		pairs = append(pairs, spacesaving.PairCounter{
			In: fmt.Sprintf("in%d", rng.Intn(20)), Out: fmt.Sprintf("out%d", rng.Intn(20)), Count: uint64(1 + rng.Intn(9)),
		})
	}
	g := New()
	g.AddPairs("A", "B", pairs, 0)
	ids, _, adj := g.CSR()
	for i, v := range g.Vertices() {
		if ids[i] != v.ID {
			t.Fatalf("ids[%d] = %v, Vertices()[%d] = %v", i, ids[i], i, v.ID)
		}
	}
	for u, list := range adj {
		for j := 1; j < len(list); j++ {
			if list[j-1].To >= list[j].To {
				t.Fatalf("vertex %d: neighbours %d then %d", u, list[j-1].To, list[j].To)
			}
		}
		for _, a := range list {
			if w := g.EdgeWeight(ids[u], ids[a.To]) + g.EdgeWeight(ids[a.To], ids[u]); w != a.Weight {
				t.Fatalf("edge %v-%v: CSR weight %d, graph %d", ids[u], ids[a.To], a.Weight, w)
			}
		}
	}
}

func TestPropertyWeightsConsistent(t *testing.T) {
	// Property: total vertex weight is exactly twice total edge weight
	// (each pair contributes to exactly two vertices).
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		for i := 0; i < int(n); i++ {
			g.AddPair(
				vid("A", fmt.Sprintf("in%d", rng.Intn(10))),
				vid("B", fmt.Sprintf("out%d", rng.Intn(10))),
				uint64(rng.Intn(5)),
			)
		}
		return g.TotalVertexWeight() == 2*g.TotalEdgeWeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
