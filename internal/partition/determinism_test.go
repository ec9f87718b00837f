package partition

import (
	"math/rand"
	"testing"
)

// buildSkewedGraph builds a reproducible graph with enough vertices to
// exercise coarsening and refinement.
func buildSkewedGraph(n int) *Graph {
	g := &Graph{Weights: make([]uint64, n), Adj: make([][]Adj, n)}
	src := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		g.Weights[i] = uint64(1 + src.Intn(5))
	}
	addEdge := func(u, v int, w uint64) {
		g.Adj[u] = append(g.Adj[u], Adj{To: v, Weight: w})
		g.Adj[v] = append(g.Adj[v], Adj{To: u, Weight: w})
	}
	for i := 0; i < n; i++ {
		for d := 1; d <= 3; d++ {
			j := (i + d*7) % n
			if i != j {
				addEdge(i, j, uint64(1+src.Intn(100)))
			}
		}
	}
	return g
}

// TestPartitionDeterministicSeed asserts that two runs with identical
// inputs and the same Seed produce identical plans. This is the
// regression test for the reproducibility bug: plan generation must not
// draw from process-global randomness.
func TestPartitionDeterministicSeed(t *testing.T) {
	g := buildSkewedGraph(500)
	opts := Options{K: 4, Alpha: DefaultAlpha, Seed: 7}

	first, err := Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := Partition(buildSkewedGraph(500), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Parts) != len(first.Parts) {
			t.Fatalf("run %d: %d parts vs %d", run, len(again.Parts), len(first.Parts))
		}
		for v := range first.Parts {
			if first.Parts[v] != again.Parts[v] {
				t.Fatalf("run %d: vertex %d assigned to %d, first run said %d",
					run, v, again.Parts[v], first.Parts[v])
			}
		}
		if again.CutWeight != first.CutWeight {
			t.Fatalf("run %d: cut %d vs %d", run, again.CutWeight, first.CutWeight)
		}
	}
}

// TestPartitionExplicitRand asserts that an explicitly threaded
// *rand.Rand (a) overrides Seed and (b) reproduces the same plan when
// the caller restarts the generator from the same state.
func TestPartitionExplicitRand(t *testing.T) {
	g := buildSkewedGraph(300)

	run := func(src *rand.Rand) *Result {
		res, err := Partition(buildSkewedGraph(300), Options{K: 3, Rand: src})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	a := run(rand.New(rand.NewSource(99)))
	b := run(rand.New(rand.NewSource(99)))
	for v := range a.Parts {
		if a.Parts[v] != b.Parts[v] {
			t.Fatalf("explicit Rand not reproducible: vertex %d got %d vs %d", v, a.Parts[v], b.Parts[v])
		}
	}

	// A shared generator drives a deterministic sequence of plans: two
	// sequential calls consume disjoint portions of one stream and a
	// replay of that stream reproduces both plans.
	shared := rand.New(rand.NewSource(5))
	s1 := run(shared)
	s2 := run(shared)
	replay := rand.New(rand.NewSource(5))
	r1 := run(replay)
	r2 := run(replay)
	for v := range s1.Parts {
		if s1.Parts[v] != r1.Parts[v] {
			t.Fatalf("sequential plan 1 not replayed at vertex %d", v)
		}
	}
	for v := range s2.Parts {
		if s2.Parts[v] != r2.Parts[v] {
			t.Fatalf("sequential plan 2 not replayed at vertex %d", v)
		}
	}
	_ = g
}

// TestHierarchicalDeterministicSeed covers the nested path, which
// derives per-group sub-seeds (or consumes the explicit Rand stream
// sequentially).
func TestHierarchicalDeterministicSeed(t *testing.T) {
	levels := [][]int{{0, 0, 1, 1}}
	a, err := Nested(buildSkewedGraph(400), levels, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Nested(buildSkewedGraph(400), levels, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Parts {
		if a.Parts[v] != b.Parts[v] {
			t.Fatalf("nested plan differs at vertex %d: %d vs %d", v, a.Parts[v], b.Parts[v])
		}
	}
}
