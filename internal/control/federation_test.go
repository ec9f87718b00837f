package control

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"github.com/locastream/locastream/internal/core"
)

// fakeFedManager serves scripted federated candidates without a
// partitioner: the federation layer's gating — per-cluster confirm and
// cooldown, the cross-cluster gate, journaling — is under test here, not
// the carving (internal/core) or the migration (TestFederationDrill).
type fakeFedManager struct {
	next      *core.FederatedCandidate
	deployErr error
	version   uint64
	// merges records what each window approved: the sorted cluster ids,
	// then "+cross" when the cross-cluster moves went along.
	merges []string
}

func (m *fakeFedManager) FederatedCandidate(float64) (*core.FederatedCandidate, error) {
	return m.next, nil
}

func (m *fakeFedManager) MergeFederated(fc *core.FederatedCandidate, approved map[int]bool, approveCross bool) *core.Candidate {
	var parts []string
	keys := 0
	for _, cc := range fc.Clusters {
		if approved[cc.Cluster] {
			parts = append(parts, strconv.Itoa(cc.Cluster))
			keys += cc.KeysMoved
		}
	}
	if approveCross {
		parts = append(parts, "+cross")
		keys += fc.Cross.KeysMoved
	}
	m.merges = append(m.merges, strings.Join(parts, ","))
	if len(parts) == 0 {
		return nil
	}
	return &core.Candidate{
		Plan:   &core.Plan{Version: m.version + 1},
		Impact: core.Impact{CurrentLocality: 0.5, CandidateLocality: 0.8, KeysToMigrate: keys},
	}
}

func (m *fakeFedManager) DeployCandidate(c *core.Candidate) error {
	if m.deployErr != nil {
		return m.deployErr
	}
	m.version = c.Plan.Version
	return nil
}

// fedWindow scripts one statistics window: every listed cluster proposes
// a worthwhile 4-key local move set, and crossKeys keys want to change
// cluster, saving crossSaved inter-cluster tuples per period against a
// 100× gate (worthwhile from 100 per key at cost 1).
func fedWindow(crossKeys int, crossSaved float64, clusters ...int) *core.FederatedCandidate {
	fc := &core.FederatedCandidate{
		Global: &core.Candidate{Impact: core.Impact{CurrentLocality: 0.5, CandidateLocality: 0.9}},
		Cross: core.CrossCandidate{
			KeysMoved:                  crossKeys,
			SavedInterClusterPerPeriod: crossSaved,
			CostMultiplier:             100,
		},
	}
	for _, id := range clusters {
		fc.Clusters = append(fc.Clusters, core.ClusterCandidate{
			Cluster:   id,
			KeysMoved: 4,
			Impact: core.Impact{
				CurrentLocality: 0.5, CandidateLocality: 0.8,
				SavedTuplesPerPeriod: 100, KeysToMigrate: 4,
			},
		})
	}
	return fc
}

func newFederatedController(t *testing.T, opts Options, fopts FederationOptions) (*Controller, *fakeFedManager) {
	t.Helper()
	c := newTestController(t, newHarness(t, 2, nil), opts)
	m := &fakeFedManager{}
	fopts.Clusters = 2
	c.AttachFederation(m, fopts)
	return c, m
}

// fedTick feeds one scripted window through a controller tick.
func fedTick(c *Controller, m *fakeFedManager, fc *core.FederatedCandidate) Decision {
	m.next = fc
	return c.Tick()
}

func localStatus(t *testing.T, c *Controller, cluster int) ClusterLoopStatus {
	t.Helper()
	for _, l := range c.Status().Federation.Local {
		if l.Cluster == cluster {
			return l
		}
	}
	t.Fatalf("no loop status for cluster %d", cluster)
	return ClusterLoopStatus{}
}

// TestFederatedPerClusterConfirm: each cluster confirms on its own
// streak, a window without a proposal restarts it, and only the
// clusters that confirmed are merged.
func TestFederatedPerClusterConfirm(t *testing.T) {
	c, m := newFederatedController(t, Options{Confirm: 2}, FederationOptions{})

	if d := fedTick(c, m, fedWindow(0, 0, 0)); d.Action != ActionSkipped {
		t.Fatalf("window 1 = %s (%s), want skipped: cluster 0 has confirmed once of twice", d.Action, d.Reason)
	}
	// Cluster 1 joins one window late: cluster 0 deploys alone.
	d := fedTick(c, m, fedWindow(0, 0, 0, 1))
	if d.Action != ActionDeployed || d.Version != 1 || !strings.Contains(d.Reason, "cluster 0: 4 keys") ||
		strings.Contains(d.Reason, "cluster 1") {
		t.Fatalf("window 2 = %s v%d (%s), want cluster 0 alone deployed as v1", d.Action, d.Version, d.Reason)
	}
	if l := localStatus(t, c, 0); l.Deploys != 1 || l.Streak != 0 {
		t.Fatalf("cluster 0 after its deploy: %+v", l)
	}
	if l := localStatus(t, c, 1); l.Deploys != 0 || l.Streak != 1 {
		t.Fatalf("cluster 1 one window in: %+v", l)
	}
	// A window in which cluster 1 proposes nothing ends its streak.
	fedTick(c, m, fedWindow(0, 0))
	if l := localStatus(t, c, 1); l.Streak != 0 {
		t.Fatalf("cluster 1 kept streak %d across a window without a proposal", l.Streak)
	}
	if d := fedTick(c, m, fedWindow(0, 0, 1)); d.Action != ActionSkipped {
		t.Fatalf("cluster 1 deployed on non-consecutive windows: %s (%s)", d.Action, d.Reason)
	}
	if d := fedTick(c, m, fedWindow(0, 0, 1)); d.Action != ActionDeployed {
		t.Fatalf("cluster 1 not deployed after two consecutive windows: %s (%s)", d.Action, d.Reason)
	}
	if want := []string{"", "0", "", "", "1"}; strings.Join(m.merges, "|") != strings.Join(want, "|") {
		t.Fatalf("merges = %q, want %q", m.merges, want)
	}
	if st := c.Status(); st.Deploys != 2 || st.Skips != 3 || st.Federation.Federated != 0 {
		t.Fatalf("status = %d deploys, %d skips, %d federated; want 2, 3, 0", st.Deploys, st.Skips, st.Federation.Federated)
	}
}

// TestFederatedCrossGate: the cross-cluster move set needs Confirm
// consecutive worthwhile windows, its deployment is journaled as a
// "federated" entry after the "deployed" one, and the gate then sits out
// Cooldown ticks.
func TestFederatedCrossGate(t *testing.T) {
	c, m := newFederatedController(t, Options{}, FederationOptions{Confirm: 2, Cooldown: 1})

	// 5 keys at the 100× multiple need 500 saved tuples per period.
	d := fedTick(c, m, fedWindow(5, 800))
	if d.Action != ActionSkipped || !strings.Contains(d.Reason, "5 cross-cluster keys awaiting confirmation (1/2)") {
		t.Fatalf("window 1 = %s (%s), want skipped awaiting confirmation", d.Action, d.Reason)
	}
	d = fedTick(c, m, fedWindow(5, 800))
	if d.Action != ActionDeployed || !strings.Contains(d.Reason, "cross-cluster: 5 keys") {
		t.Fatalf("window 2 = %s (%s), want the cross moves deployed", d.Action, d.Reason)
	}
	all := c.Journal().All()
	fed := all[len(all)-1]
	if all[len(all)-2].Action != ActionDeployed || fed.Action != ActionFederated {
		t.Fatalf("journal tail = %s, %s; want deployed, federated", all[len(all)-2].Action, fed.Action)
	}
	if fed.Seq != d.Seq || fed.Version != 1 || fed.KeysToMigrate != 5 || fed.SavedTuplesPerPeriod != 800 ||
		fed.Signals.Seq != d.Seq ||
		!strings.Contains(fed.Reason, "migrated 5 keys across clusters") ||
		!strings.Contains(fed.Reason, "100× cost gate (threshold 500.0)") {
		t.Fatalf("federated entry = %+v", fed)
	}
	fs := c.Status().Federation
	if fs.Federated != 1 || fs.CrossKeysMoved != 5 || fs.CrossStreak != 0 || fs.CooldownLeft != 1 ||
		fs.Confirm != 2 || fs.CostMultiplier != 100 || fs.LastCrossKeys != 5 || fs.LastCrossSaved != 800 {
		t.Fatalf("federation status after the deploy = %+v", fs)
	}

	// The cooldown tick is consumed without counting the window.
	if d := fedTick(c, m, fedWindow(5, 800)); d.Action != ActionSkipped {
		t.Fatalf("cooldown window = %s (%s), want skipped", d.Action, d.Reason)
	}
	if fs := c.Status().Federation; fs.CrossStreak != 0 || fs.CooldownLeft != 0 {
		t.Fatalf("after the cooldown window: streak %d, cooldown left %d; want 0, 0", fs.CrossStreak, fs.CooldownLeft)
	}
	fedTick(c, m, fedWindow(5, 800))
	// A window that misses the gate restarts the streak.
	d = fedTick(c, m, fedWindow(5, 499))
	if d.Action != ActionSkipped || !strings.Contains(d.Reason, "does not clear the 100× gate (threshold 500.0)") {
		t.Fatalf("below-gate window = %s (%s)", d.Action, d.Reason)
	}
	if fs := c.Status().Federation; fs.CrossStreak != 0 {
		t.Fatalf("cross streak %d after a window below the gate, want 0", fs.CrossStreak)
	}
	if want := []string{"", "+cross", "", "", ""}; strings.Join(m.merges, "|") != strings.Join(want, "|") {
		t.Fatalf("merges = %q, want %q", m.merges, want)
	}
}

// TestFederatedFailedDeployResetsStreaks: a merge that fails to deploy
// restarts every approving streak and arms no cooldown, so the next
// windows re-confirm from scratch.
func TestFederatedFailedDeployResetsStreaks(t *testing.T) {
	c, m := newFederatedController(t, Options{Confirm: 2, Cooldown: 3}, FederationOptions{Confirm: 2, Cooldown: 3})

	fedTick(c, m, fedWindow(5, 800, 0))
	m.deployErr = errors.New("injected deploy failure")
	d := fedTick(c, m, fedWindow(5, 800, 0))
	if d.Action != ActionError || d.Reason != "federated deployment failed" || d.Err != "injected deploy failure" {
		t.Fatalf("failed deploy = %s (%s / %s)", d.Action, d.Reason, d.Err)
	}
	st := c.Status()
	if l := localStatus(t, c, 0); l.Streak != 0 || l.CooldownLeft != 0 || l.Deploys != 0 {
		t.Fatalf("cluster 0 after the failed deploy: %+v", l)
	}
	if fs := st.Federation; fs.CrossStreak != 0 || fs.CooldownLeft != 0 || fs.Federated != 0 {
		t.Fatalf("cross gate after the failed deploy: %+v", fs)
	}
	if st.Errors != 1 || st.Deploys != 0 || st.Version != 0 {
		t.Fatalf("status = %d errors, %d deploys, v%d", st.Errors, st.Deploys, st.Version)
	}

	m.deployErr = nil
	if d := fedTick(c, m, fedWindow(5, 800, 0)); d.Action != ActionSkipped {
		t.Fatalf("first window after the failure = %s (%s), want skipped: streaks restart", d.Action, d.Reason)
	}
	if d := fedTick(c, m, fedWindow(5, 800, 0)); d.Action != ActionDeployed {
		t.Fatalf("second window after the failure = %s (%s), want deployed", d.Action, d.Reason)
	}
	if want := []string{"", "0,+cross", "", "0,+cross"}; strings.Join(m.merges, "|") != strings.Join(want, "|") {
		t.Fatalf("merges = %q, want %q", m.merges, want)
	}
}

// TestFederatedClusterCooldownTicksEveryWindow: a cluster's cooldown is
// counted in controller ticks, like the global loop's, not in windows
// where that cluster happens to propose moves.
func TestFederatedClusterCooldownTicksEveryWindow(t *testing.T) {
	c, m := newFederatedController(t, Options{Confirm: 1, Cooldown: 2}, FederationOptions{})

	if d := fedTick(c, m, fedWindow(0, 0, 0)); d.Action != ActionDeployed {
		t.Fatalf("window 1 = %s (%s), want deployed", d.Action, d.Reason)
	}
	for i := 0; i < 3; i++ {
		fedTick(c, m, fedWindow(0, 0))
	}
	if l := localStatus(t, c, 0); l.CooldownLeft != 0 {
		t.Fatalf("cooldown left %d after three quiet ticks, want 0", l.CooldownLeft)
	}
	if d := fedTick(c, m, fedWindow(0, 0, 0)); d.Action != ActionDeployed {
		t.Fatalf("proposal after the cooldown ran out = %s (%s), want deployed at once", d.Action, d.Reason)
	}
}
