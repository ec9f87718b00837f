// Federation: the thin layer that makes the control plane hierarchical.
//
// With a multi-cluster placement the controller stops deploying one
// global candidate and instead runs the existing measure→decide→migrate
// loop once per cluster: every tick the manager's federated candidate
// carves the global tiered partition into per-cluster local move sets,
// and each cluster's set passes the ordinary cost/min-gain/confirm
// gates independently, with its own streak and cooldown. The federation
// layer itself owns only the cross-cluster remainder — the keys the
// partitioner wants to move over the metered inter-cluster link — and
// approves them only when the inter-cluster tuple transfers they save
// per period amortize the migration at the placement's inter-cluster
// cost multiple (100× a same-rack hop by default). Approved parts merge
// into a single deployment; approved cross-cluster moves are
// additionally journaled as a "federated" decision.
package control

import (
	"fmt"
	"sort"
	"strings"

	"github.com/locastream/locastream/internal/core"
)

// FederationManager is the manager surface the federation layer drives;
// the App adapts *core.Manager under its reconfiguration lock.
type FederationManager interface {
	// FederatedCandidate computes a global tiered candidate split along
	// the cluster boundary (resetting the statistics window); cross
	// moves that cannot individually amortize costPerKey times the
	// inter-cluster multiple are pruned.
	FederatedCandidate(costPerKey float64) (*core.FederatedCandidate, error)
	// MergeFederated builds the deployable candidate from the approved
	// clusters and, when approveCross, the cross-cluster moves; nil
	// when nothing was approved.
	MergeFederated(fc *core.FederatedCandidate, approved map[int]bool, approveCross bool) *core.Candidate
	// DeployCandidate persists and rolls out a merged candidate.
	DeployCandidate(*core.Candidate) error
}

// FederationOptions tune the federation layer; it runs once a
// federation manager is attached (AttachFederation).
type FederationOptions struct {
	// Clusters is the placement's cluster count (informational, served
	// on /status).
	Clusters int
	// Confirm is the number of consecutive windows the cross-cluster
	// move set must clear the cost gate before it deploys (default 1).
	// Intra-cluster moves use the controller's ordinary Confirm.
	Confirm int
	// Cooldown is the number of ticks the federation layer holds off
	// after a cross-cluster deployment (default 0). Intra-cluster moves
	// use the controller's ordinary Cooldown, tracked per cluster.
	Cooldown int
}

func (o *FederationOptions) defaults() {
	if o.Confirm < 1 {
		o.Confirm = 1
	}
	if o.Cooldown < 0 {
		o.Cooldown = 0
	}
}

// ClusterLoopStatus is one cluster's local control-loop state.
type ClusterLoopStatus struct {
	Cluster      int `json:"cluster"`
	Deploys      int `json:"deploys"`
	Streak       int `json:"streak"`
	CooldownLeft int `json:"cooldown_left"`
}

// FederationStatus is the federation layer's public state, served as
// part of /status.
type FederationStatus struct {
	// Clusters is the placement's cluster count.
	Clusters int `json:"clusters"`
	// Local lists the per-cluster loops that have made at least one
	// decision, ordered by cluster id.
	Local []ClusterLoopStatus `json:"local,omitempty"`
	// Federated counts cross-cluster deployments (journaled as
	// "federated"); CrossKeysMoved is their cumulative key volume.
	Federated      int `json:"federated"`
	CrossKeysMoved int `json:"cross_keys_moved"`
	// CrossStreak/Confirm/CooldownLeft expose the cross-cluster gate's
	// hysteresis state.
	CrossStreak  int `json:"cross_streak"`
	Confirm      int `json:"confirm"`
	CooldownLeft int `json:"cooldown_left"`
	// CostMultiplier is the inter-cluster cost multiple the gate
	// charges (the region/rack ratio of cluster.TierCosts: 100).
	CostMultiplier float64 `json:"cost_multiplier"`
	// LastCrossKeys/LastCrossSaved describe the most recent candidate's
	// cross-cluster move set, whether or not it was approved.
	LastCrossKeys  int     `json:"last_cross_keys"`
	LastCrossSaved float64 `json:"last_cross_saved"`
}

// clusterLoop is one cluster's confirm/cooldown state.
type clusterLoop struct {
	gate
	deploys int
}

// federator holds the federation layer's state; owned by the
// controller, mutated only under c.mu.
type federator struct {
	mgr  FederationManager
	opts FederationOptions

	// localGate is the template every cluster loop starts from: the
	// controller's ordinary Confirm/Cooldown.
	localGate      gate
	local          map[int]*clusterLoop
	cross          gate
	federated      int
	crossKeysMoved int
	lastCrossKeys  int
	lastCrossSaved float64
	lastMult       float64
}

func newFederator(mgr FederationManager, opts FederationOptions, localGate gate) *federator {
	opts.defaults()
	return &federator{
		mgr:       mgr,
		opts:      opts,
		localGate: localGate,
		local:     make(map[int]*clusterLoop),
		cross:     gate{confirm: opts.Confirm, cooldown: opts.Cooldown},
	}
}

// direction is a one-sided loop's observation: +1 for a window that makes
// the case for acting, 0 for one that does not.
func direction(worthwhile bool) int {
	if worthwhile {
		return 1
	}
	return 0
}

// AttachFederation connects the federation layer to the manager's
// federated candidate API; attachment is the switch — without it the
// controller deploys global candidates exactly as before.
func (c *Controller) AttachFederation(mgr FederationManager, opts FederationOptions) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fedr = newFederator(mgr, opts, gate{confirm: c.opts.Confirm, cooldown: c.opts.Cooldown})
}

// federatedDecideLocked is the hierarchical replacement for the
// controller's global candidate block: per-cluster loops decide the
// local moves, the federation gate decides the cross-cluster ones, and
// the approved parts deploy as one merged candidate. It fills d, and
// returns the global candidate (for the splitter) plus any extra
// decisions to journal after d — the "federated" entry when
// cross-cluster moves went out.
func (c *Controller) federatedDecideLocked(d *Decision) (cand *core.Candidate, extra []Decision) {
	f := c.fedr
	fc, err := f.mgr.FederatedCandidate(c.opts.CostPerKey)
	if err != nil {
		c.errors++
		d.Action = ActionError
		d.Reason = "federated candidate computation failed"
		d.Err = err.Error()
		return nil, nil
	}
	d.CurrentLocality = fc.Global.Impact.CurrentLocality
	d.CandidateLocality = fc.Global.Impact.CandidateLocality
	d.SavedTuplesPerPeriod = fc.Global.Impact.SavedTuplesPerPeriod
	d.KeysToMigrate = fc.Global.Impact.KeysToMigrate
	f.lastCrossKeys = fc.Cross.KeysMoved
	f.lastCrossSaved = fc.Cross.SavedInterClusterPerPeriod
	f.lastMult = fc.Cross.CostMultiplier

	// Per-cluster loops: each cluster's local move set passes the
	// ordinary gates with its own streak and cooldown. Every known loop
	// sees every window: a cluster without local moves has nothing to
	// confirm, so it loses its streak, and its cooldown ticks whether or
	// not it proposes.
	worthwhile := make(map[int]bool, len(fc.Clusters))
	for _, cc := range fc.Clusters {
		gain := cc.Impact.CandidateLocality - cc.Impact.CurrentLocality
		worthwhile[cc.Cluster] = cc.Impact.Worthwhile(c.opts.CostPerKey) && gain >= c.opts.MinGain
		if f.local[cc.Cluster] == nil {
			f.local[cc.Cluster] = &clusterLoop{gate: f.localGate}
		}
	}
	approved := make(map[int]bool, len(fc.Clusters))
	var approvedIDs []int
	for id, loop := range f.local {
		if !loop.cool() && loop.observe(direction(worthwhile[id])) {
			approved[id] = true
			approvedIDs = append(approvedIDs, id)
		}
	}
	sort.Ints(approvedIDs)

	// Federation gate: cross-cluster moves must save enough
	// inter-cluster tuple transfers to amortize shipping their state
	// over the metered link, at CostMultiplier times the ordinary
	// per-key cost — and confirm it for Confirm consecutive windows.
	approveCross := !f.cross.cool() && f.cross.observe(direction(fc.Cross.Worthwhile(c.opts.CostPerKey)))

	merged := f.mgr.MergeFederated(fc, approved, approveCross)
	if merged == nil {
		c.skips++
		d.Action = ActionSkipped
		d.Reason = federationSkipReason(fc, f, c.opts.CostPerKey)
		d.Streak = f.cross.streak
		return fc.Global, nil
	}
	if err := f.mgr.DeployCandidate(merged); err != nil {
		c.errors++
		d.Action = ActionError
		d.Reason = "federated deployment failed"
		d.Err = err.Error()
		// The merge was not deployed; reset the approving loops so the
		// next window re-confirms against fresh statistics.
		for _, id := range approvedIDs {
			f.local[id].reset()
		}
		f.cross.reset()
		return fc.Global, nil
	}

	c.deploys++
	c.version = merged.Plan.Version
	d.Action = ActionDeployed
	d.Version = merged.Plan.Version
	d.KeysToMigrate = merged.Impact.KeysToMigrate
	d.CandidateLocality = merged.Impact.CandidateLocality
	d.SavedTuplesPerPeriod = merged.Impact.SavedTuplesPerPeriod
	var parts []string
	for _, id := range approvedIDs {
		loop := f.local[id]
		loop.deploys++
		loop.fire()
		for _, cc := range fc.Clusters {
			if cc.Cluster == id {
				parts = append(parts, fmt.Sprintf("cluster %d: %d keys", id, cc.KeysMoved))
			}
		}
	}
	if approveCross {
		parts = append(parts, fmt.Sprintf("cross-cluster: %d keys", fc.Cross.KeysMoved))
	}
	d.Reason = fmt.Sprintf("deployed v%d federated (%s): locality %.3f → %.3f (est.)",
		merged.Plan.Version, strings.Join(parts, "; "),
		merged.Impact.CurrentLocality, merged.Impact.CandidateLocality)

	if approveCross {
		f.cross.fire()
		f.federated++
		f.crossKeysMoved += fc.Cross.KeysMoved
		extra = append(extra, Decision{
			Seq:     d.Seq,
			Time:    d.Time,
			Action:  ActionFederated,
			Version: merged.Plan.Version,
			Reason: fmt.Sprintf(
				"federated: migrated %d keys across clusters; saves %.1f inter-cluster tuples/period, clearing the %.0f× cost gate (threshold %.1f)",
				fc.Cross.KeysMoved, fc.Cross.SavedInterClusterPerPeriod, fc.Cross.CostMultiplier,
				c.opts.CostPerKey*fc.Cross.CostMultiplier*float64(fc.Cross.KeysMoved)),
			CurrentLocality:      fc.Global.Impact.CurrentLocality,
			CandidateLocality:    merged.Impact.CandidateLocality,
			SavedTuplesPerPeriod: fc.Cross.SavedInterClusterPerPeriod,
			KeysToMigrate:        fc.Cross.KeysMoved,
			Signals:              d.Signals,
		})
	}
	d.Streak = f.cross.streak
	return fc.Global, extra
}

// federationSkipReason summarizes why nothing deployed this window.
func federationSkipReason(fc *core.FederatedCandidate, f *federator, costPerKey float64) string {
	if len(fc.Clusters) == 0 && fc.Cross.KeysMoved == 0 {
		return "federation: no cluster proposed a move"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "federation: %d cluster(s) with local moves pending gates", len(fc.Clusters))
	if fc.Cross.KeysMoved > 0 {
		if fc.Cross.Worthwhile(costPerKey) {
			fmt.Fprintf(&b, "; %d cross-cluster keys awaiting confirmation (%d/%d)",
				fc.Cross.KeysMoved, f.cross.streak, f.opts.Confirm)
		} else {
			fmt.Fprintf(&b,
				"; %d cross-cluster keys held: saving %.1f inter-cluster tuples/period does not clear the %.0f× gate (threshold %.1f)",
				fc.Cross.KeysMoved, fc.Cross.SavedInterClusterPerPeriod, fc.Cross.CostMultiplier,
				costPerKey*fc.Cross.CostMultiplier*float64(fc.Cross.KeysMoved))
		}
	}
	return b.String()
}

// statusLocked snapshots the federation layer's state; caller holds the
// controller's mutex.
func (f *federator) statusLocked() *FederationStatus {
	st := &FederationStatus{
		Clusters:       f.opts.Clusters,
		Federated:      f.federated,
		CrossKeysMoved: f.crossKeysMoved,
		CrossStreak:    f.cross.streak,
		Confirm:        f.opts.Confirm,
		CooldownLeft:   f.cross.cooldownLeft,
		CostMultiplier: f.lastMult,
		LastCrossKeys:  f.lastCrossKeys,
		LastCrossSaved: f.lastCrossSaved,
	}
	ids := make([]int, 0, len(f.local))
	for id := range f.local {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		loop := f.local[id]
		st.Local = append(st.Local, ClusterLoopStatus{
			Cluster:      id,
			Deploys:      loop.deploys,
			Streak:       loop.streak,
			CooldownLeft: loop.cooldownLeft,
		})
	}
	return st
}
