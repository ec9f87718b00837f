package control

import (
	"fmt"
	"sort"
	"time"

	"github.com/locastream/locastream/internal/core"
	"github.com/locastream/locastream/internal/engine"
)

// This file is the control-plane half of hot-key splitting: on every
// tick the splitter reads per-key heat from the candidate's statistics
// window, promotes keys whose load exceeds a threshold share of their
// operator's capacity to 2-choice replicated routing, and demotes keys
// that cooled down — both through the engine's split API, both under the
// same confirmation hysteresis the deployment decision uses, so one
// skewed window can neither split nor merge a key.

// SplitOptions tune the hot-key splitter, which runs once a split engine
// is attached (and needs engine.LiveConfig.KeySplitting).
type SplitOptions struct {
	// Threshold is the promotion threshold as a multiple of an
	// operator's fair per-instance share: a key routing more than
	// Threshold × (total/parallelism) tuples in one statistics window is
	// hot (default 1.5).
	Threshold float64
	// DemoteFraction scales the demotion threshold relative to the
	// promotion one; a split key whose share falls below
	// DemoteFraction × Threshold × fair is cold (default 0.5). Keeping
	// it well under 1 gives the two transitions a dead band.
	DemoteFraction float64
	// TopK bounds how many keys may be split per operator at once
	// (default 4).
	TopK int
	// Replicas is the number of instances a promoted key spreads over
	// (default 2 — the partial key grouping of Nasir et al.).
	Replicas int
	// Confirm is the number of consecutive windows a key must stay hot
	// (cold) before it promotes (demotes) — default 2.
	Confirm int
}

func (o *SplitOptions) defaults() {
	if o.Threshold <= 0 {
		o.Threshold = 1.5
	}
	if o.DemoteFraction <= 0 || o.DemoteFraction >= 1 {
		o.DemoteFraction = 0.5
	}
	if o.TopK <= 0 {
		o.TopK = 4
	}
	if o.Replicas < 2 {
		o.Replicas = 2
	}
	if o.Confirm < 1 {
		o.Confirm = 2
	}
}

// SplitEngine is the engine surface the splitter drives; *engine.Live
// implements it.
type SplitEngine interface {
	CanSplit(op string) bool
	Parallelism(op string) int
	PromoteSplit(op, key string, replicas int) ([]int, error)
	DemoteSplit(op, key string) error
	SplitSnapshot() []engine.SplitKeyInfo
}

// splitter holds the hysteresis state of the hot-key loop.
type splitter struct {
	opts SplitOptions
	eng  SplitEngine
	// gates count, per op+"\x00"+key, the consecutive windows an unsplit
	// key spent above the promote threshold (+1 each) or a split key
	// below the demote threshold (−1 each). A key holds a gate only while
	// its streak runs: a window in the dead band, or one the key is absent
	// from, drops it.
	gates map[string]*gate
}

func newSplitter(eng SplitEngine, opts SplitOptions) *splitter {
	opts.defaults()
	return &splitter{opts: opts, eng: eng, gates: map[string]*gate{}}
}

// observe feeds one window's direction for a key into its gate (created
// on first use) and reports whether the streak reached Confirm.
func (s *splitter) observe(id string, dir int) bool {
	g := s.gates[id]
	if g == nil {
		g = &gate{confirm: s.opts.Confirm}
		s.gates[id] = g
	}
	return g.observe(dir)
}

func splitID(op, key string) string { return op + "\x00" + key }

// keyHeat is one key's observed routing volume within one window.
type keyHeat struct {
	op    string
	key   string
	count uint64
}

// heatFromStats derives per-key heat for every splittable operator from
// the window's pair statistics. An operator observed as a routing target
// (ToOp) is measured by the Out-key marginals of its in-edges; the
// source operator — never a ToOp — by the In-key marginals of its
// out-edges. The sketches bound the error: marginals of top-k pair
// counters underestimate, which only delays a promotion, never forces a
// bogus one.
func heatFromStats(stats []engine.PairStat, splittable func(string) bool) map[string]map[string]uint64 {
	heat := make(map[string]map[string]uint64)
	isTarget := make(map[string]bool)
	for _, st := range stats {
		isTarget[st.ToOp] = true
	}
	add := func(op, key string, n uint64) {
		if key == "" || !splittable(op) {
			return
		}
		m := heat[op]
		if m == nil {
			m = make(map[string]uint64)
			heat[op] = m
		}
		m[key] += n
	}
	for _, st := range stats {
		for _, p := range st.Pairs {
			add(st.ToOp, p.Out, p.Count)
			if !isTarget[st.FromOp] {
				add(st.FromOp, p.In, p.Count)
			}
		}
	}
	return heat
}

// run evaluates one statistics window and performs the confirmed
// transitions. It returns journal entries describing each promotion and
// demotion (empty most ticks).
func (s *splitter) run(cand *core.Candidate, now time.Time, seq int, version uint64) []Decision {
	heat := heatFromStats(cand.Stats, s.eng.CanSplit)

	split := make(map[string]bool, len(cand.Splits))
	perOp := make(map[string]int)
	for _, si := range cand.Splits {
		split[splitID(si.Op, si.Key)] = true
		perOp[si.Op]++
	}

	var out []Decision
	record := func(action Action, op, key, reason string) {
		out = append(out, Decision{
			Seq: seq, Time: now, Action: action, Version: version,
			Reason: fmt.Sprintf("%s %s/%q: %s", action, op, key, reason),
		})
	}

	ops := make([]string, 0, len(heat))
	for op := range heat {
		ops = append(ops, op)
	}
	sort.Strings(ops)

	seen := make(map[string]bool)
	for _, op := range ops {
		keys := heat[op]
		var total uint64
		for _, n := range keys {
			total += n
		}
		n := s.eng.Parallelism(op)
		if total == 0 || n < 2 {
			continue
		}
		fair := float64(total) / float64(n)
		promoteAt := s.opts.Threshold * fair
		demoteAt := s.opts.DemoteFraction * promoteAt

		// Hottest first so TopK keeps the heaviest hitters.
		ranked := make([]keyHeat, 0, len(keys))
		for k, c := range keys {
			ranked = append(ranked, keyHeat{op: op, key: k, count: c})
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].count != ranked[j].count {
				return ranked[i].count > ranked[j].count
			}
			return ranked[i].key < ranked[j].key
		})

		for _, kh := range ranked {
			id := splitID(op, kh.key)
			seen[id] = true
			switch {
			case !split[id] && float64(kh.count) > promoteAt:
				// A confirmed key over the TopK cap stays ready.
				if !s.observe(id, +1) || perOp[op] >= s.opts.TopK {
					continue
				}
				replicas, err := s.eng.PromoteSplit(op, kh.key, s.opts.Replicas)
				delete(s.gates, id)
				if err != nil {
					record(ActionError, op, kh.key, "promotion failed: "+err.Error())
					continue
				}
				perOp[op]++
				record(ActionPromoted, op, kh.key,
					fmt.Sprintf("%d tuples/window > %.0f (%.1fx fair share), replicas %v",
						kh.count, promoteAt, s.opts.Threshold, replicas))
			case split[id] && float64(kh.count) < demoteAt:
				if !s.observe(id, -1) {
					continue
				}
				s.demote(op, kh.key, id, record,
					fmt.Sprintf("%d tuples/window < %.0f for %d windows", kh.count, demoteAt, s.opts.Confirm))
				perOp[op]--
			default:
				// Dead band or below threshold: the streak, if any, ends.
				delete(s.gates, id)
			}
		}
	}

	// Split keys that vanished from the window entirely are the coldest
	// of all: no sketch counter survived for them.
	for _, si := range cand.Splits {
		id := splitID(si.Op, si.Key)
		if seen[id] {
			continue
		}
		seen[id] = true
		if s.observe(id, -1) {
			s.demote(si.Op, si.Key, id, record,
				fmt.Sprintf("absent from %d consecutive statistics windows", s.opts.Confirm))
		}
	}
	// Windows are consecutive or they do not count: a key missing from
	// this window's sketch loses its streak like one seen below threshold.
	for id := range s.gates {
		if !seen[id] {
			delete(s.gates, id)
		}
	}
	return out
}

func (s *splitter) demote(op, key, id string, record func(Action, string, string, string), reason string) {
	delete(s.gates, id)
	if err := s.eng.DemoteSplit(op, key); err != nil {
		record(ActionError, op, key, "demotion failed: "+err.Error())
		return
	}
	record(ActionDemoted, op, key, reason)
}
