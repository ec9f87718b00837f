package partition

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
)

// randomGraph builds a connected-ish random graph: n vertices of weight
// 1-4, ~2n random edges with weights in [1, 50].
func randomGraph(rng *rand.Rand, n int) *Graph {
	g := &Graph{Weights: make([]uint64, n), Adj: make([][]Adj, n)}
	for i := range g.Weights {
		g.Weights[i] = 1 + uint64(rng.Intn(4))
	}
	addEdge := func(u, v int, w uint64) {
		g.Adj[u] = append(g.Adj[u], Adj{To: v, Weight: w})
		g.Adj[v] = append(g.Adj[v], Adj{To: u, Weight: w})
	}
	for i := 1; i < n; i++ {
		addEdge(i, rng.Intn(i), 1+uint64(rng.Intn(50)))
	}
	for e := 0; e < n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			addEdge(u, v, 1+uint64(rng.Intn(50)))
		}
	}
	return g
}

// unitGraph builds n isolated unit-weight vertices.
func unitGraph(n int) *Graph {
	g := &Graph{Weights: make([]uint64, n), Adj: make([][]Adj, n)}
	for i := range g.Weights {
		g.Weights[i] = 1
	}
	return g
}

func partsDigest(parts []int) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte{byte(p)})
	}
	return h.Sum64()
}

// TestNestedGolden pins Nested to the ladder it replaced. The digests
// (FNV-1a over Result.Parts) and cuts were recorded from Partition,
// Hierarchical(g, rackOf) and Tiered(g, rackOf, clusterOf) at the commit
// before their deletion, on randomGraph(seed, 240) with Options{Seed:
// 7*seed, Alpha: 1.03}; a mismatch means the recursion, the group order
// or the seed derivation moved.
func TestNestedGolden(t *testing.T) {
	shapes := map[string]struct {
		k      int
		levels [][]int
	}{
		"flat":                 {4, nil},
		"2 equal racks":        {4, [][]int{{0, 0, 1, 1}}},
		"unequal racks 3+1":    {4, [][]int{{0, 0, 0, 1}}},
		"2 clusters x 2 racks": {8, [][]int{{0, 0, 0, 0, 1, 1, 1, 1}, {0, 0, 1, 1, 2, 2, 3, 3}}},
		"unequal clusters 4+2": {6, [][]int{{0, 0, 0, 0, 1, 1}, {0, 0, 1, 1, 2, 2}}},
		"2 clusters, one rack": {4, [][]int{{0, 0, 1, 1}, {0, 0, 0, 0}}},
	}
	golden := []struct {
		shape  string
		seed   int64
		digest uint64
		cut    uint64
	}{
		{"flat", 1, 0x6be64c512d562f72, 2518},
		{"flat", 2, 0xaaf384b733ea4319, 2291},
		{"flat", 3, 0x625ce30a07384dc4, 2676},
		{"2 equal racks", 1, 0x278594b21d0647b6, 2573},
		{"2 equal racks", 2, 0xf93f3ccf8dec702b, 2435},
		{"2 equal racks", 3, 0x8e71c8de198d8dcf, 2675},
		{"unequal racks 3+1", 1, 0x263edfc3f3bf59bc, 2980},
		{"unequal racks 3+1", 2, 0x5dbe9d47ac71ca52, 2611},
		{"unequal racks 3+1", 3, 0xd1e6a9e333572b8a, 2883},
		{"2 clusters x 2 racks", 1, 0xc56de92a15b6527c, 3738},
		{"2 clusters x 2 racks", 2, 0x228c9bbc122c2f9e, 3768},
		{"2 clusters x 2 racks", 3, 0x1980fdc84f27124b, 3998},
		{"unequal clusters 4+2", 1, 0x37ee112ffc656d22, 3087},
		{"unequal clusters 4+2", 2, 0x9ca9f15eab2e3ff4, 3218},
		{"unequal clusters 4+2", 3, 0xdf4b99a49d2892f7, 3153},
		{"2 clusters, one rack", 1, 0x6c4179c1900d7fca, 2651},
		{"2 clusters, one rack", 2, 0x4d09c4328605727f, 2556},
		{"2 clusters, one rack", 3, 0x840cd0a22872ea9b, 2559},
	}
	for _, want := range golden {
		sh := shapes[want.shape]
		g := randomGraph(rand.New(rand.NewSource(want.seed)), 240)
		res, err := Nested(g, sh.levels, Options{K: sh.k, Seed: want.seed * 7, Alpha: 1.03})
		if err != nil {
			t.Fatalf("%s seed %d: %v", want.shape, want.seed, err)
		}
		checkValid(t, g, res, sh.k)
		if got := partsDigest(res.Parts); got != want.digest || res.CutWeight != want.cut {
			t.Errorf("%s seed %d: digest %#x cut %d, want %#x cut %d",
				want.shape, want.seed, got, res.CutWeight, want.digest, want.cut)
		}
	}
}

type nestedInput struct {
	g      *Graph
	levels [][]int
}

func checkRejected(t *testing.T, cases map[string]nestedInput) {
	t.Helper()
	for name, c := range cases {
		if _, err := Nested(c.g, c.levels, Options{}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestHierarchicalValidation(t *testing.T) {
	g := pathGraph(8)
	checkRejected(t, map[string]nestedInput{
		"no servers":     {g, [][]int{{}}},
		"negative group": {g, [][]int{{0, -1}}},
		"nil graph":      {nil, [][]int{{0}}},
	})
}

func TestTieredValidation(t *testing.T) {
	g := pathGraph(8)
	checkRejected(t, map[string]nestedInput{
		"nil graph":              {nil, [][]int{{0}, {0}}},
		"missing inner level":    {g, [][]int{{0, 0}, nil}},
		"missing outer level":    {g, [][]int{nil, {0, 0}}},
		"level length mismatch":  {g, [][]int{{0}, {0, 0}}},
		"negative outer group":   {g, [][]int{{0, -1}, {0, 0}}},
		"negative inner group":   {g, [][]int{{0, 0}, {0, -1}}},
		"flat K < 1 (no levels)": {g, nil},
	})
}

func TestHierarchicalSingleRackEqualsFlat(t *testing.T) {
	g := clustersGraph(2, 8, 50, 1)
	res, err := Nested(g, [][]int{{0, 0}}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, g, res, 2)
	if res.CutWeight != 1 {
		t.Fatalf("CutWeight = %d, want 1", res.CutWeight)
	}
}

// TestTieredSingleClusterEqualsFlat is the degeneracy property: with
// one group on every level — however many levels, whatever the id — the
// nested partition is byte-identical to the flat partition (same Parts,
// CutWeight, PartWeights) over randomized seeded key graphs. No
// topology information means no behavior change.
func TestTieredSingleClusterEqualsFlat(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		servers := 2 + rng.Intn(6)
		n := servers * (5 + rng.Intn(40))
		g := randomGraph(rng, n)
		zeros := make([]int, servers)
		sevens := make([]int, servers)
		for s := range sevens {
			sevens[s] = 7
		}
		opts := Options{Seed: int64(trial) * 31, Alpha: 1.03}

		flat, err := Partition(g, withK(opts, servers))
		if err != nil {
			t.Fatalf("trial %d: flat: %v", trial, err)
		}
		for name, levels := range map[string][][]int{
			"one level":  {zeros},
			"two levels": {zeros, zeros},
			"sparse id":  {sevens, zeros},
		} {
			nested, err := Nested(g, levels, opts)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, name, err)
			}
			if !reflect.DeepEqual(flat, nested) {
				t.Fatalf("trial %d (servers=%d, n=%d): %s diverges from flat", trial, servers, n, name)
			}
		}
	}
}

// A single-group outer level above several racks must likewise collapse
// to the one-level rack partition exactly.
func TestTieredSingleClusterEqualsHierarchical(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		servers := 4 + rng.Intn(4)
		n := servers * (10 + rng.Intn(30))
		g := randomGraph(rng, n)
		rackOf := make([]int, servers)
		for s := range rackOf {
			rackOf[s] = s % 2
		}
		opts := Options{Seed: int64(trial) * 17, Alpha: 1.03}

		one, err := Nested(g, [][]int{rackOf}, opts)
		if err != nil {
			t.Fatalf("trial %d: one level: %v", trial, err)
		}
		two, err := Nested(g, [][]int{make([]int, servers), rackOf}, opts)
		if err != nil {
			t.Fatalf("trial %d: two levels: %v", trial, err)
		}
		if !reflect.DeepEqual(one, two) {
			t.Fatalf("trial %d: single outer group changes the rack partition", trial)
		}
	}
}

// checkPrefersIntraGroupCut runs four key communities chained by light
// links over 4 servers in 2 outer groups. Any 4-way split cuts 3 light
// edges; the nested split must put at most 1 of them between the outer
// groups (the flat partitioner gives no such guarantee).
func checkPrefersIntraGroupCut(t *testing.T, levels [][]int) {
	t.Helper()
	g := clustersGraph(4, 6, 100, 1)
	res, err := Nested(g, levels, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, g, res, 4)
	if res.CutWeight != 3 {
		t.Fatalf("CutWeight = %d, want 3 (inter-community edges)", res.CutWeight)
	}
	if outer := CutBetween(g, res.Parts, levels[0]); outer > 1 {
		t.Fatalf("cut between outer groups = %d, want <= 1", outer)
	}
	// Each community stays whole on one server.
	for c := 0; c < 4; c++ {
		p := res.Parts[c*6]
		for i := 1; i < 6; i++ {
			if res.Parts[c*6+i] != p {
				t.Fatalf("community %d split", c)
			}
		}
	}
}

func TestHierarchicalPrefersIntraRackCut(t *testing.T) {
	checkPrefersIntraGroupCut(t, [][]int{{0, 0, 1, 1}})
}

func TestTieredPrefersIntraClusterCut(t *testing.T) {
	checkPrefersIntraGroupCut(t, [][]int{{0, 0, 1, 1}, {0, 1, 2, 3}})
}

// checkUnequalGroups splits 30 isolated unit vertices over 3 servers
// whose outer level has a group of two and a group of one: the load must
// split roughly 2:1 across the groups.
func checkUnequalGroups(t *testing.T, levels [][]int) {
	t.Helper()
	g := unitGraph(30)
	res, err := Nested(g, levels, Options{Seed: 5, Alpha: 1.03})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, g, res, 3)
	load := make([]uint64, 2)
	for _, p := range res.Parts {
		load[levels[0][p]]++
	}
	if load[0] < 18 || load[0] > 22 {
		t.Fatalf("group 0 load = %d, want ~20 of 30", load[0])
	}
}

func TestHierarchicalUnequalRacks(t *testing.T) {
	checkUnequalGroups(t, [][]int{{0, 0, 1}})
}

func TestTieredUnequalClusters(t *testing.T) {
	checkUnequalGroups(t, [][]int{{0, 0, 1}, {0, 1, 0}})
}

func TestTargetFractionsValidation(t *testing.T) {
	g := pathGraph(4)
	if _, err := Partition(g, Options{K: 2, TargetFractions: []float64{1.0}}); err == nil {
		t.Error("wrong-length fractions accepted")
	}
	if _, err := Partition(g, Options{K: 2, TargetFractions: []float64{1.0, 0}}); err == nil {
		t.Error("zero fraction accepted")
	}
}

func TestTargetFractionsHonoured(t *testing.T) {
	g := unitGraph(40)
	res, err := Partition(g, Options{
		K: 2, Alpha: 1.03, Seed: 2,
		TargetFractions: []float64{0.75, 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, g, res, 2)
	if res.PartWeights[0] < 28 || res.PartWeights[0] > 31 {
		t.Fatalf("part 0 weight = %d, want ~30 of 40", res.PartWeights[0])
	}
}

// Sparse group ids are as good as dense ones on every level: groups are
// ordered by id, so unused numbers in between change nothing.
func TestTieredSparseRackNumbers(t *testing.T) {
	g := clustersGraph(4, 8, 50, 1)
	for name, c := range map[string]struct{ sparse, dense [][]int }{
		"inner level": {[][]int{{0, 0, 1, 1}, {0, 0, 5, 7}}, [][]int{{0, 0, 1, 1}, {0, 0, 1, 2}}},
		"outer level": {[][]int{{0, 0, 3, 3}, {0, 0, 1, 2}}, [][]int{{0, 0, 1, 1}, {0, 0, 1, 2}}},
		"one level":   {[][]int{{0, 0, 2, 2}}, [][]int{{0, 0, 1, 1}}},
	} {
		sparse, err := Nested(g, c.sparse, Options{Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkValid(t, g, sparse, 4)
		dense, err := Nested(g, c.dense, Options{Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(sparse, dense) {
			t.Errorf("%s: sparse ids change the partition", name)
		}
	}
}

// Path 0-1-2-3 with one vertex per server: edges 0-1 and 2-3 stay inside
// a group of {0,0,1,1}, edge 1-2 crosses.
func TestCutBetweenRacks(t *testing.T) {
	g := pathGraph(4)
	if got := CutBetween(g, []int{0, 1, 2, 3}, []int{0, 0, 1, 1}); got != 1 {
		t.Fatalf("CutBetween = %d, want 1", got)
	}
}

// The same path under a finer and a coarser tier of one hierarchy: every
// edge crosses single-server groups, none crosses the one big group.
func TestCutBetweenClusters(t *testing.T) {
	g := pathGraph(4)
	parts := []int{0, 1, 2, 3}
	if got := CutBetween(g, parts, []int{0, 1, 2, 3}); got != 3 {
		t.Fatalf("CutBetween over singleton groups = %d, want 3", got)
	}
	if got := CutBetween(g, parts, []int{0, 0, 0, 0}); got != 0 {
		t.Fatalf("CutBetween over one group = %d, want 0", got)
	}
}
