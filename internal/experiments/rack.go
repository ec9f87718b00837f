package experiments

import (
	"github.com/locastream/locastream/internal/core"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/metrics"
	"github.com/locastream/locastream/internal/simnet"
	"github.com/locastream/locastream/internal/topology"
	"github.com/locastream/locastream/internal/workload"
)

// AblationRackAware evaluates the hierarchical-locality extension from
// the paper's conclusion: 6 servers in 2 racks with an oversubscribed
// inter-rack link (4x slower per byte). It compares flat partitioning
// against rack-aware two-level partitioning on the Twitter workload,
// reporting throughput, server locality, and rack locality.
func AblationRackAware(scale Scale) (Figure, error) {
	const (
		parallelism     = 6
		interRackFactor = 4.0
	)
	weekTuples := scale.tuples(50000, 2500)
	rackOf := []int{0, 0, 0, 1, 1, 1}

	fig := Figure{
		ID:     "ablation-rack",
		Title:  "flat vs rack-aware partitioning (6 servers, 2 racks, 4x inter-rack cost)",
		XLabel: "metric", // 1 = Ktuples/s, 2 = locality, 3 = rack locality
		YLabel: "value",
	}

	run := func(flat bool) (tp, loc, rackLoc float64, err error) {
		topo, place, err := evalApp(parallelism)
		if err != nil {
			return 0, 0, 0, err
		}
		if err := place.AssignTiers(rackOf, nil); err != nil {
			return 0, 0, 0, err
		}
		model := simnet.Default10G()
		model.InterRackFactor = interRackFactor
		policies, err := engine.NewPolicies(topo, place, engine.FieldsTable)
		if err != nil {
			return 0, 0, 0, err
		}
		src, err := engine.NewSourcePolicy(topo, place, topology.Fields, engine.FieldsTable)
		if err != nil {
			return 0, 0, 0, err
		}
		sim, err := engine.NewSim(engine.SimConfig{
			Topology: topo, Placement: place, Model: model,
			Policies: policies, SourcePolicy: src,
			SketchCapacity: twitterSketchCapacity,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		opt, err := core.NewOptimizer(topo, place, core.OptimizerOptions{
			Seed: 31, MaxEdges: 1 << 20, Flat: flat,
		})
		if err != nil {
			return 0, 0, 0, err
		}

		// Week 1 under hash fallback collects statistics; week 2 runs on
		// the optimized tables with a heavier payload so the inter-rack
		// penalty matters.
		gen := workload.NewTwitter(workload.DefaultTwitterConfig())
		sim.InjectAll(workload.Take(gen, weekTuples))
		tables, _, err := opt.ComputeTables(sim.PairStats(true))
		if err != nil {
			return 0, 0, 0, err
		}
		sim.ApplyTables(tables)
		sim.ResetWindow()
		gen.NextWeek()
		padded := func() (topology.Tuple, bool) {
			t := gen.Next()
			t.Padding = 8192
			return t, true
		}
		for i := 0; i < weekTuples; i++ {
			t, _ := padded()
			sim.Inject(t)
		}
		tr := sim.FieldsTraffic()
		return sim.ThroughputPerSec() / 1000, tr.Locality(), tr.RackLocality(), nil
	}

	flat := metrics.Series{Label: "flat"}
	aware := metrics.Series{Label: "rack-aware"}
	for _, s := range []*metrics.Series{&flat, &aware} {
		tp, loc, rackLoc, err := run(s == &flat)
		if err != nil {
			return Figure{}, err
		}
		s.Append(1, tp)
		s.Append(2, loc)
		s.Append(3, rackLoc)
	}
	fig.Series = append(fig.Series, flat, aware)
	return fig, nil
}
