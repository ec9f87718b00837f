package locastream

import (
	"fmt"
	"sort"
	"time"

	"github.com/locastream/locastream/internal/control"
)

// ScaleResult describes one completed elastic scale operation.
type ScaleResult = control.ScaleResult

// ScaleStatus is the elastic-scaling slice of the autopilot's status,
// served alone on GET /scale.
type ScaleStatus = control.ScaleStatus

// ScaleTo resizes the cluster to n active servers, online. Scaling up
// attaches parked servers (lowest-numbered first) and migrates a
// bounded set of keys onto them; scaling down first demotes any hot-key
// split with a replica on a leaving server, drains keyed state through
// the attached fault-tolerance subsystem's checkpoint, migrates every
// key off the leavers with the §3.4 protocol while they still
// participate — zero tuple loss — and only then detaches them
// (highest-numbered first, dead servers preferred). The repartition is
// minimal-movement: every key on a staying server is pinned in place.
//
// With WithAutoscale the target must lie in [min, max]; without it, in
// [1, Servers()]. Serialized with Reconfigure and autopilot ticks.
func (a *App) ScaleTo(n int) (ScaleResult, error) { return a.scaleTo(n, 0) }

// scaleTo is ScaleTo with the autopilot's voluntary-move cap threaded
// through (0 = unbounded; forced moves are never capped).
func (a *App) scaleTo(n, maxMoves int) (ScaleResult, error) {
	lo, hi := a.autoMin, a.autoMax
	if hi == 0 {
		lo, hi = 1, a.place.Servers()
	}
	if n < lo || n > hi {
		return ScaleResult{}, fmt.Errorf("locastream: scale target %d outside [%d, %d]", n, lo, hi)
	}
	// Drain keyed state to the checkpoint store BEFORE taking the
	// reconfiguration lock: the supervisor's recovery path locks in the
	// opposite order (its own mutex first, then reconfigMu), so a drain
	// taken under reconfigMu could deadlock against an in-flight
	// recovery. Scaling down needs the leavers' state durable before it
	// moves; scaling up has nothing to drain.
	if n < a.live.ActiveServers() {
		a.ftMu.Lock()
		ft := a.faultTol
		a.ftMu.Unlock()
		if ft != nil {
			if _, err := ft.Checkpoint(time.Now()); err != nil {
				return ScaleResult{}, fmt.Errorf("locastream: drain checkpoint before scale-down: %w", err)
			}
		}
	}

	a.reconfigMu.Lock()
	defer a.reconfigMu.Unlock()

	capacity := a.place.Servers()
	cur := a.live.ActiveServers()
	if n == cur {
		return ScaleResult{From: cur, To: cur}, nil
	}

	fromUsable := a.live.UsableServers()
	activeAfter := make([]bool, capacity)
	for s := 0; s < capacity; s++ {
		activeAfter[s] = a.live.ServerActive(s)
	}

	var joining, leaving []int
	if n > cur {
		for s := 0; s < capacity && len(joining) < n-cur; s++ {
			if !activeAfter[s] && a.live.ServerAlive(s) {
				joining = append(joining, s)
			}
		}
		if len(joining) < n-cur {
			return ScaleResult{}, fmt.Errorf(
				"locastream: cannot scale to %d servers: only %d available", n, cur+len(joining))
		}
		for _, s := range joining {
			activeAfter[s] = true
		}
	} else {
		candidates := make([]int, 0, cur)
		for s := 0; s < capacity; s++ {
			if activeAfter[s] {
				candidates = append(candidates, s)
			}
		}
		// Remove dead servers first (their keys were already repaired
		// away), then the highest-numbered, deterministically.
		sort.Slice(candidates, func(i, j int) bool {
			di, dj := !a.live.ServerAlive(candidates[i]), !a.live.ServerAlive(candidates[j])
			if di != dj {
				return di
			}
			return candidates[i] > candidates[j]
		})
		leaving = candidates[:cur-n]
		for _, s := range leaving {
			activeAfter[s] = false
		}
	}

	toUsable := make([]bool, capacity)
	anyUsable := false
	for s := 0; s < capacity; s++ {
		toUsable[s] = activeAfter[s] && a.live.ServerAlive(s)
		anyUsable = anyUsable || toUsable[s]
	}
	if !anyUsable {
		return ScaleResult{}, fmt.Errorf(
			"locastream: scaling to %d servers would leave no usable server", n)
	}

	if n > cur {
		for _, s := range joining {
			if err := a.live.AddServer(s); err != nil {
				return ScaleResult{}, fmt.Errorf("locastream: add server %d: %w", s, err)
			}
		}
	} else {
		// A split replica on a leaving server is merged back into its
		// owner before the server leaves: demotion runs the §3.4 barrier,
		// so the partial is folded in, not abandoned.
		leavingSet := make(map[int]bool, len(leaving))
		for _, s := range leaving {
			leavingSet[s] = true
		}
		for _, si := range a.live.SplitSnapshot() {
			for _, r := range si.Replicas {
				if leavingSet[a.place.ServerOf(si.Op, r)] {
					if err := a.live.DemoteSplit(si.Op, si.Key); err != nil {
						return ScaleResult{}, fmt.Errorf(
							"locastream: demote split %s[%s] before scale-down: %w", si.Op, si.Key, err)
					}
					break
				}
			}
		}
	}

	// The manager plans the minimal-movement repartition against the new
	// membership and migrates it while the leavers are still attached.
	plan, version, err := a.mgr.Rescale(fromUsable, toUsable, maxMoves)
	if err != nil {
		return ScaleResult{}, fmt.Errorf("locastream: rescale to %d servers: %w", n, err)
	}
	// Leavers participated in the migration above (still attached); only
	// now do they actually leave the membership.
	for _, s := range leaving {
		if err := a.live.DecommissionServer(s); err != nil {
			return ScaleResult{}, fmt.Errorf("locastream: decommission server %d: %w", s, err)
		}
	}
	return ScaleResult{
		From: cur, To: n,
		MovedKeys: plan.MovedKeys, MoveBound: plan.Bound,
		Version: version,
	}, nil
}

// scaleAdapter implements control.ScaleEngine over the App, carrying
// the autopilot's voluntary-move cap into each ScaleTo.
type scaleAdapter struct {
	app      *App
	maxMoves int
}

func (s scaleAdapter) ActiveServers() int  { return s.app.live.ActiveServers() }
func (s scaleAdapter) ServerCapacity() int { return s.app.live.ServerCapacity() }
func (s scaleAdapter) ScaleTo(n int) (control.ScaleResult, error) {
	return s.app.scaleTo(n, s.maxMoves)
}
