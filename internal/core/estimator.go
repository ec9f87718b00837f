package core

import (
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/routing"
)

// Impact estimates what deploying a candidate configuration would gain
// and cost. It implements the estimator the paper leaves as future work
// ("design estimators able to predict the impact of a reconfiguration to
// provide more fine-grained information to the manager", §6): when the
// workload is volatile, reconfiguring for ephemeral correlations costs
// more (state migration) than it saves (network traffic).
type Impact struct {
	// CurrentLocality is the expected locality of keeping the deployed
	// tables, evaluated on the fresh statistics.
	CurrentLocality float64
	// CandidateLocality is the expected locality of the candidate
	// tables on the same statistics.
	CandidateLocality float64
	// TrafficPerPeriod is the fields-grouped tuple volume observed over
	// the statistics window (the sketch totals).
	TrafficPerPeriod uint64
	// SavedTuplesPerPeriod estimates how many tuple transfers per
	// statistics period would move off the network.
	SavedTuplesPerPeriod float64
	// KeysToMigrate is the number of keys whose owner changes.
	KeysToMigrate int
}

// Worthwhile reports whether the estimated steady-state saving justifies
// the migration: the locality gain must save at least costPerKey tuple
// transfers per migrated key over one statistics period. costPerKey
// amortizes the migration (state transfer, buffering, coordination); the
// paper's observation that "deploying an updated configuration ... is
// extremely fast" (§4.4) argues for small values.
func (im Impact) Worthwhile(costPerKey float64) bool {
	if im.KeysToMigrate == 0 {
		return im.CandidateLocality > im.CurrentLocality
	}
	return im.SavedTuplesPerPeriod >= costPerKey*float64(im.KeysToMigrate)
}

// EstimateImpact evaluates candidate tables against the deployed ones
// over the given pair statistics. Both configurations are scored by
// summing, over every observed key pair, the pair's weight when the two
// keys resolve to the same server — the exact objective the partitioner
// optimizes, but evaluated with hash fallback and on whichever tables are
// provided.
func (o *Optimizer) EstimateImpact(stats []engine.PairStat, current, candidate map[string]*routing.Table) Impact {
	total, curLocal, candLocal, moved := o.scoreTables(stats, current, candidate,
		func(from, to int) bool { return from == to })
	im := Impact{TrafficPerPeriod: total, KeysToMigrate: moved}
	if total > 0 {
		im.CurrentLocality = curLocal / float64(total)
		im.CandidateLocality = candLocal / float64(total)
		im.SavedTuplesPerPeriod = candLocal - curLocal
	}
	return im
}

// EstimateInterCluster scores two configurations by the pair weight
// that crosses clusters per statistics period — the volume the
// federation layer's cost gate prices. Both are evaluated with hash
// fallback, exactly like EstimateImpact scores same-server weight.
func (o *Optimizer) EstimateInterCluster(stats []engine.PairStat, a, b map[string]*routing.Table) (aCross, bCross float64) {
	total, aWithin, bWithin, _ := o.scoreTables(stats, a, b,
		func(from, to int) bool { return o.place.ClusterOf(from) == o.place.ClusterOf(to) })
	return float64(total) - aWithin, float64(total) - bWithin
}

// scoreTables is the one walk over the pair statistics that scores two
// configurations side by side: total is the observed pair weight, aKept
// and bKept the weight of the pairs whose two endpoint servers satisfy
// together under each configuration (sums of integer counts, exact in a
// float64), and moved the number of distinct endpoint keys whose owner
// differs between a and b. Operators unknown to the placement are skipped.
func (o *Optimizer) scoreTables(stats []engine.PairStat, a, b map[string]*routing.Table,
	together func(fromServer, toServer int) bool) (total uint64, aKept, bKept float64, moved int) {
	movedKeys := make(map[[2]string]bool)
	for _, st := range stats {
		if o.place.Parallelism(st.FromOp) == 0 || o.place.Parallelism(st.ToOp) == 0 {
			continue
		}
		for _, p := range st.Pairs {
			total += p.Count
			aFrom, aFromS := o.endpoint(a, st.FromOp, p.In)
			aTo, aToS := o.endpoint(a, st.ToOp, p.Out)
			bFrom, bFromS := o.endpoint(b, st.FromOp, p.In)
			bTo, bToS := o.endpoint(b, st.ToOp, p.Out)
			if together(aFromS, aToS) {
				aKept += float64(p.Count)
			}
			if together(bFromS, bToS) {
				bKept += float64(p.Count)
			}
			if aFrom != bFrom {
				movedKeys[[2]string{st.FromOp, p.In}] = true
			}
			if aTo != bTo {
				movedKeys[[2]string{st.ToOp, p.Out}] = true
			}
		}
	}
	return total, aKept, bKept, len(movedKeys)
}

// endpoint resolves one side of an observed pair under a configuration:
// the instance owning key of op (nil tables, or no table for op: pure
// hashing) and the server hosting it.
func (o *Optimizer) endpoint(tables map[string]*routing.Table, op, key string) (inst, server int) {
	inst = Owner(tables[op], op, key, o.place.Parallelism(op))
	return inst, o.place.ServerOf(op, inst)
}
