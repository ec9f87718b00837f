package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"github.com/locastream/locastream/internal/cluster"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/topology"
)

// newTieredManager builds a live A→B deployment with one instance of each
// operator per server (instance i on server i), the given racks and
// clusters, and a manager with a fixed optimizer seed.
func newTieredManager(t *testing.T, rackOf, clusterOf []int) (*engine.Live, *Manager, *cluster.Placement) {
	t.Helper()
	live, topo, place := newLiveEval(t, len(clusterOf))
	if err := place.AssignTiers(rackOf, clusterOf); err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(live, topo, place, ManagerOptions{Optimizer: OptimizerOptions{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	return live, mgr, place
}

// injectCommunities sends one window in which every server-sized
// community of six A keys exchanges tuples with its own six B keys only,
// so the partition has one obvious grouping and arbitrary labels.
func injectCommunities(t *testing.T, live *engine.Live, communities int) {
	t.Helper()
	for n := 0; n < communities*6*12; n++ {
		i := n % (communities * 6)
		j := i/6*6 + (n/(communities*6))%6
		tuple := topology.Tuple{Values: []string{fmt.Sprintf("a%02d", i), fmt.Sprintf("b%02d", j)}}
		if err := live.Inject(tuple); err != nil {
			t.Fatal(err)
		}
	}
	live.Drain()
}

// swapClusters returns tables with every key moved to the positional
// counterpart of its server in the other cluster of a two-cluster
// placement — the same partition under the opposite cluster labels.
func swapClusters(place *cluster.Placement, tables map[string]*routing.Table) map[string]*routing.Table {
	partner := make([]int, place.Servers())
	a, b := place.ServersInCluster(0), place.ServersInCluster(1)
	for i := range a {
		partner[a[i]], partner[b[i]] = b[i], a[i]
	}
	out := cloneTables(tables)
	for _, t := range out {
		for key, inst := range t.Assign {
			t.Assign[key] = partner[inst]
		}
	}
	return out
}

func tablesDigest(tables map[string]*routing.Table) string {
	h := fnv.New64a()
	ops := make([]string, 0, len(tables))
	for op := range tables {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		keys := make([]string, 0, len(tables[op].Assign))
		for k := range tables[op].Assign {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s %s %d\n", op, k, tables[op].Assign[k])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// deploySwapped runs one window, computes its raw (unaligned) partition
// with a second optimizer on the same seed, and deploys that partition
// under swapped cluster labels. The next identical window therefore
// comes back from the partitioner with its level-1 split swapped against
// the deployment. Returns the raw tables and the deployed ones.
func deploySwapped(t *testing.T, live *engine.Live, mgr *Manager, place *cluster.Placement, communities int) (raw, deployed map[string]*routing.Table) {
	t.Helper()
	injectCommunities(t, live, communities)
	c, err := mgr.Candidate()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewOptimizer(mgr.topo, place, OptimizerOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err = opt.ComputeTables(c.Stats)
	if err != nil {
		t.Fatal(err)
	}
	deployed = swapClusters(place, raw)
	if err := mgr.DeployCandidate(&Candidate{Tables: deployed, Plan: c.Plan}); err != nil {
		t.Fatal(err)
	}
	return raw, mgr.Tables()
}

// TestCandidateRealignsSwappedClusters: a window whose level-1 split
// comes back with the two clusters' labels swapped is relabeled onto the
// deployment — no key moves — and the aligned tables match the digest
// recorded before alignClusters became a caller of the shared matcher.
func TestCandidateRealignsSwappedClusters(t *testing.T) {
	live, mgr, place := newTieredManager(t, nil, []int{0, 0, 1, 1})
	raw, deployed := deploySwapped(t, live, mgr, place, 4)
	crossed := 0
	for op, tab := range raw {
		for key, inst := range tab.Assign {
			if place.ClusterOf(inst) != place.ClusterOf(deployed[op].Assign[key]) {
				crossed++
			}
		}
	}
	if crossed != 48 {
		t.Fatalf("raw partition disagrees with the deployment on the cluster of %d keys, want all 48", crossed)
	}

	injectCommunities(t, live, 4)
	c, err := mgr.Candidate()
	if err != nil {
		t.Fatal(err)
	}
	if c.Impact.KeysToMigrate != 0 {
		t.Errorf("swapped window migrates %d keys, want 0", c.Impact.KeysToMigrate)
	}
	for op, tab := range deployed {
		for key, inst := range tab.Assign {
			if got := c.Tables[op].Assign[key]; got != inst {
				t.Errorf("%s/%s: candidate owner %d, deployed %d", op, key, got, inst)
			}
		}
	}
	const golden = "76fe3d0b758dc91d" // recorded at d6ddaed
	if got := tablesDigest(c.Tables); got != golden {
		t.Errorf("aligned candidate digest %s, recorded %s", got, golden)
	}
}

// TestCandidateKeepsRackLayoutWhenAligning: two clusters with the same
// server count but different rack layouts ([2,1] against [1,2]) must not
// trade labels — the positional server map would send rack 0's two
// servers to two different racks, undoing the rack-level cut the nested
// partition just made.
func TestCandidateKeepsRackLayoutWhenAligning(t *testing.T) {
	live, mgr, place := newTieredManager(t, []int{0, 0, 1, 2, 3, 3}, []int{0, 0, 0, 1, 1, 1})
	raw, _ := deploySwapped(t, live, mgr, place, 6)

	injectCommunities(t, live, 6)
	c, err := mgr.Candidate()
	if err != nil {
		t.Fatal(err)
	}
	type id struct{ op, key string }
	var ids []id
	for op, tab := range raw {
		for key := range tab.Assign {
			ids = append(ids, id{op, key})
		}
	}
	coRacked, acrossServers := 0, 0
	for _, x := range ids {
		for _, y := range ids {
			rx, ry := raw[x.op].Assign[x.key], raw[y.op].Assign[y.key]
			if place.RackOf(rx) != place.RackOf(ry) {
				continue
			}
			coRacked++
			if rx != ry {
				acrossServers++
			}
			cx, cy := c.Tables[x.op].Assign[x.key], c.Tables[y.op].Assign[y.key]
			if place.RackOf(cx) != place.RackOf(cy) {
				t.Fatalf("%v and %v share rack %d in the partition but sit on racks %d and %d after alignment",
					x, y, place.RackOf(rx), place.RackOf(cx), place.RackOf(cy))
			}
		}
	}
	if acrossServers == 0 {
		t.Fatalf("no co-racked pair spans two servers (%d co-racked pairs): the case is not exercised", coRacked)
	}
}
