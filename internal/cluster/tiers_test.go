package cluster

import (
	"reflect"
	"testing"

	"github.com/locastream/locastream/internal/metrics"
)

func tieredPlacement(t *testing.T, servers int) *Placement {
	t.Helper()
	p, err := NewRoundRobin(testTopo(t, servers, servers), servers)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkTiers compares the placement's per-server racks and clusters, as
// read back through RackOf/ClusterOf, and the cluster count.
func checkTiers(t *testing.T, p *Placement, wantRacks, wantClusters []int) {
	t.Helper()
	racks := make([]int, p.Servers())
	clusters := make([]int, p.Servers())
	n := 0
	for s := range racks {
		racks[s], clusters[s] = p.RackOf(s), p.ClusterOf(s)
		if clusters[s]+1 > n {
			n = clusters[s] + 1
		}
	}
	if !reflect.DeepEqual(racks, wantRacks) || !reflect.DeepEqual(clusters, wantClusters) {
		t.Fatalf("racks/clusters = %v/%v, want %v/%v", racks, clusters, wantRacks, wantClusters)
	}
	if p.Clusters() != n {
		t.Fatalf("Clusters() = %d, want %d", p.Clusters(), n)
	}
}

// checkRejected asserts that every case fails AssignTiers and leaves the
// tiers assigned before it in place.
func checkRejected(t *testing.T, p *Placement, cases map[string][2][]int) {
	t.Helper()
	before := p.Levels()
	for name, c := range cases {
		if err := p.AssignTiers(c[0], c[1]); err == nil {
			t.Errorf("%s accepted", name)
		}
		if !reflect.DeepEqual(p.Levels(), before) {
			t.Fatalf("%s: failed AssignTiers changed the tiers to %v", name, p.Levels())
		}
	}
}

func TestDefaultSingleRack(t *testing.T) {
	p := tieredPlacement(t, 2)
	if p.Levels() != nil {
		t.Fatalf("Levels() = %v, want nil by default", p.Levels())
	}
	if p.RackOf(0) != 0 || p.RackOf(1) != 0 {
		t.Fatal("all servers should be in rack 0 by default")
	}
	if p.RackOf(-1) != -1 || p.RackOf(5) != -1 {
		t.Fatal("invalid servers should report rack -1")
	}
	if p.Tier(0, 1) != metrics.TierRack {
		t.Fatalf("Tier(0, 1) = %d, want same-rack by default", p.Tier(0, 1))
	}
}

func TestDefaultSingleCluster(t *testing.T) {
	p := tieredPlacement(t, 2)
	checkTiers(t, p, []int{0, 0}, []int{0, 0})
	if p.ClusterOf(-1) != -1 || p.ClusterOf(5) != -1 {
		t.Fatal("invalid servers should report cluster -1")
	}
}

func TestAssignRacks(t *testing.T) {
	p := tieredPlacement(t, 4)
	rackOf := []int{0, 0, 1, 1}
	if err := p.AssignTiers(rackOf, nil); err != nil {
		t.Fatal(err)
	}
	rackOf[0] = 9 // the placement must not alias its input
	checkTiers(t, p, []int{0, 0, 1, 1}, []int{0, 0, 0, 0})
	if want := [][]int{{0, 0, 0, 0}, {0, 0, 1, 1}}; !reflect.DeepEqual(p.Levels(), want) {
		t.Fatalf("Levels() = %v, want %v (cluster level first)", p.Levels(), want)
	}
}

func TestAssignRacksValidation(t *testing.T) {
	checkRejected(t, tieredPlacement(t, 2), map[string][2][]int{
		"wrong length":  {{0}, nil},
		"negative rack": {{0, -1}, nil},
	})
}

func TestAssignClusters(t *testing.T) {
	p := tieredPlacement(t, 4)
	clusterOf := []int{0, 0, 1, 1}
	if err := p.AssignTiers(nil, clusterOf); err != nil {
		t.Fatal(err)
	}
	clusterOf[0] = 9
	// Without racks every cluster is one rack.
	checkTiers(t, p, []int{0, 0, 1, 1}, []int{0, 0, 1, 1})
	if p.Tier(0, 1) != metrics.TierRack || p.Tier(1, 2) != metrics.TierRegion {
		t.Fatalf("Tier(0,1)/Tier(1,2) = %d/%d, want rack/region", p.Tier(0, 1), p.Tier(1, 2))
	}
	if got := p.ServersInCluster(1); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("ServersInCluster(1) = %v", got)
	}
}

func TestAssignClustersValidation(t *testing.T) {
	checkRejected(t, tieredPlacement(t, 2), map[string][2][]int{
		"wrong length":     {nil, {0}},
		"negative cluster": {nil, {0, -1}},
	})
}

// Sparse numbering is compacted in id order, so every read — and the
// partitioner, through Levels — sees the deployment as if it had been
// declared densely.
func TestAssignTiersSparseNumbering(t *testing.T) {
	p := tieredPlacement(t, 4)
	if err := p.AssignTiers([]int{0, 2, 5, 5}, []int{0, 0, 3, 3}); err != nil {
		t.Fatal(err)
	}
	checkTiers(t, p, []int{0, 1, 2, 2}, []int{0, 0, 1, 1})
	dense := tieredPlacement(t, 4)
	if err := dense.AssignTiers([]int{0, 1, 2, 2}, []int{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Levels(), dense.Levels()) {
		t.Fatalf("Levels() = %v, want %v", p.Levels(), dense.Levels())
	}
	for from := 0; from < 4; from++ {
		for to := 0; to < 4; to++ {
			if p.Tier(from, to) != dense.Tier(from, to) {
				t.Errorf("Tier(%d, %d) = %d, want %d as with dense ids", from, to, p.Tier(from, to), dense.Tier(from, to))
			}
		}
	}
	if len(p.ServersInCluster(2)) != 0 {
		t.Fatal("cluster ids past the compacted range should hold no servers")
	}
}

// Single-server racks and clusters are legal tiers.
func TestAssignTiersSingleServerTiers(t *testing.T) {
	p := tieredPlacement(t, 3)
	if err := p.AssignTiers([]int{0, 1, 2}, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	checkTiers(t, p, []int{0, 1, 2}, []int{0, 1, 2})
	if p.Tier(0, 0) != metrics.TierServer || p.Tier(0, 1) != metrics.TierRegion {
		t.Fatal("single-server tiers misclassified")
	}
}

func TestAssignTiersValidation(t *testing.T) {
	p := tieredPlacement(t, 4)
	bad := map[string][2][]int{
		"short rack list":            {{0, 0, 1}, {0, 0, 1, 1}},
		"short cluster list":         {{0, 0, 1, 1}, {0, 1}},
		"negative rack":              {{0, 0, -1, 1}, {0, 0, 1, 1}},
		"negative cluster":           {{0, 0, 1, 1}, {0, 0, -1, 1}},
		"rack spanning two clusters": {{0, 1, 1, 2}, {0, 0, 1, 1}},
		"one rack over two clusters": {{0, 0, 0, 0}, {0, 0, 1, 1}},
	}
	checkRejected(t, p, bad)
	// The update is atomic: after a valid assignment, a rejected one
	// leaves it in place.
	if err := p.AssignTiers([]int{0, 1, 1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	checkRejected(t, p, bad)
	checkTiers(t, p, []int{0, 1, 1, 2}, []int{0, 0, 0, 0})
}

func TestTierClassification(t *testing.T) {
	p := tieredPlacement(t, 6)
	if err := p.AssignTiers([]int{0, 0, 1, 2, 2, 3}, []int{0, 0, 0, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		from, to, want int
	}{
		{0, 0, metrics.TierServer},
		{0, 1, metrics.TierRack},    // same rack
		{0, 2, metrics.TierCluster}, // same cluster, different rack
		{0, 3, metrics.TierRegion},  // different cluster
		{3, 4, metrics.TierRack},
		{2, 5, metrics.TierRegion},
		{-1, 0, metrics.TierRegion}, // invalid servers classify worst-case
		{6, 6, metrics.TierRegion},
	}
	for _, c := range cases {
		if got := p.Tier(c.from, c.to); got != c.want {
			t.Errorf("Tier(%d, %d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
	// A farther tier never costs less.
	for tier := 1; tier < metrics.NumTiers; tier++ {
		if TierCosts[tier] < TierCosts[tier-1] {
			t.Fatalf("TierCosts %v not non-decreasing", TierCosts)
		}
	}
}
