package experiments

import (
	"fmt"

	"github.com/locastream/locastream/internal/core"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/metrics"
	"github.com/locastream/locastream/internal/simnet"
	"github.com/locastream/locastream/internal/workload"
)

// twitterLocalityWith measures achieved locality on week-2 Twitter data
// for tables computed from week-1 statistics under the given optimizer
// options and sketch capacity.
func twitterLocalityWith(parallelism, sketchCap, weekTuples int, opts core.OptimizerOptions) (achieved float64, plan *core.Plan, err error) {
	statsSim, err := newEvalSim(parallelism, engine.FieldsHash, simnet.Default10G(), sketchCap)
	if err != nil {
		return 0, nil, err
	}
	gen := workload.NewTwitter(workload.DefaultTwitterConfig())
	statsSim.InjectAll(workload.Take(gen, weekTuples))

	opt, _, err := newEvalOptimizer(parallelism, opts)
	if err != nil {
		return 0, nil, err
	}
	tables, plan, err := opt.ComputeTables(statsSim.PairStats(false))
	if err != nil {
		return 0, nil, err
	}

	measure, err := newEvalSim(parallelism, engine.FieldsTable, simnet.Default10G(), 0)
	if err != nil {
		return 0, nil, err
	}
	measure.ApplyTables(tables)
	gen.NextWeek()
	measure.InjectAll(workload.Take(gen, weekTuples))
	return measure.FieldsTraffic().Locality(), plan, nil
}

// AblationRefinement quantifies what the Fiduccia–Mattheyses refinement
// contributes: expected and achieved locality with refinement enabled vs
// disabled (greedy initial partition only).
func AblationRefinement(scale Scale) (Figure, error) {
	weekTuples := scale.tuples(50000, 2500)
	fig := Figure{
		ID:     "ablation-refinement",
		Title:  "partitioner refinement: achieved locality with vs without FM passes",
		XLabel: "parallelism",
		YLabel: "locality",
	}
	withRef := metrics.Series{Label: "multilevel+FM"}
	withoutRef := metrics.Series{Label: "greedy-only"}
	for parallelism := 2; parallelism <= 6; parallelism += 2 {
		loc, _, err := twitterLocalityWith(parallelism, twitterSketchCapacity, weekTuples,
			core.OptimizerOptions{Seed: 21, MaxEdges: 1 << 20})
		if err != nil {
			return Figure{}, err
		}
		withRef.Append(float64(parallelism), loc)

		loc, _, err = twitterLocalityWith(parallelism, twitterSketchCapacity, weekTuples,
			core.OptimizerOptions{Seed: 21, MaxEdges: 1 << 20, RefinePasses: -1})
		if err != nil {
			return Figure{}, err
		}
		withoutRef.Append(float64(parallelism), loc)
	}
	fig.Series = append(fig.Series, withRef, withoutRef)
	return fig, nil
}

// AblationSketchCapacity complements Fig. 12: instead of truncating exact
// statistics, it bounds the SpaceSaving sketches themselves and reports
// the achieved locality, validating the paper's "1 MB of memory per POI
// is sufficient" claim.
func AblationSketchCapacity(scale Scale) (Figure, error) {
	weekTuples := scale.tuples(50000, 2500)
	const parallelism = 6
	fig := Figure{
		ID:     "ablation-sketch",
		Title:  "achieved locality vs SpaceSaving sketch capacity (parallelism=6)",
		XLabel: "sketch-capacity",
		YLabel: "locality",
	}
	s := metrics.Series{Label: "locality"}
	for _, capacity := range []int{64, 256, 1024, 4096, 16384, 65536} {
		loc, _, err := twitterLocalityWith(parallelism, capacity, weekTuples,
			core.OptimizerOptions{Seed: 22, MaxEdges: 1 << 20})
		if err != nil {
			return Figure{}, err
		}
		s.Append(float64(capacity), loc)
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// AblationAlpha sweeps the imbalance bound α of §3.1: tighter bounds
// trade locality for balance.
func AblationAlpha(scale Scale) (Figure, error) {
	weekTuples := scale.tuples(50000, 2500)
	const parallelism = 6
	fig := Figure{
		ID:     "ablation-alpha",
		Title:  "locality and imbalance vs balance bound alpha (parallelism=6)",
		XLabel: "alpha",
		YLabel: "value",
	}
	locS := metrics.Series{Label: "achieved-locality"}
	imbS := metrics.Series{Label: "plan-imbalance"}
	for _, alpha := range []float64{1.0, 1.03, 1.1, 1.3, 2.0} {
		loc, plan, err := twitterLocalityWith(parallelism, twitterSketchCapacity, weekTuples,
			core.OptimizerOptions{Seed: 23, MaxEdges: 1 << 20, Alpha: alpha})
		if err != nil {
			return Figure{}, err
		}
		locS.Append(alpha, loc)
		imbS.Append(alpha, plan.Imbalance)
	}
	fig.Series = append(fig.Series, locS, imbS)
	return fig, nil
}

// AblationPeriod varies the reconfiguration period (§4.3 discusses that
// frequent reconfiguration is cheap and tracks drift better): average
// locality over 24 weeks when reconfiguring every 1, 2, 4 or 8 weeks.
func AblationPeriod(scale Scale) (Figure, error) {
	fig := Figure{
		ID:     "ablation-period",
		Title:  "average locality vs reconfiguration period (parallelism=6)",
		XLabel: "period-weeks",
		YLabel: "avg-locality",
	}
	s := metrics.Series{Label: "online"}
	for _, period := range []int{1, 2, 4, 8} {
		figs, err := figure11WithPeriod(scale, 24, period)
		if err != nil {
			return Figure{}, err
		}
		// Series 0 of fig11a is the online strategy; skip the warm-up
		// week (no tables yet).
		pts := figs[0].Series[0].Sorted()
		sum, n := 0.0, 0
		for _, p := range pts {
			if p.X >= 1 {
				sum += p.Y
				n++
			}
		}
		s.Append(float64(period), sum/float64(n))
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// AllFigures runs every paper figure at the given scale, in paper order.
func AllFigures(scale Scale) ([]Figure, error) {
	var out []Figure
	add := func(figs []Figure, err error) error {
		if err != nil {
			return err
		}
		out = append(out, figs...)
		return nil
	}
	if err := add(Figure7(scale)); err != nil {
		return nil, err
	}
	if err := add(Figure8(scale)); err != nil {
		return nil, err
	}
	if err := add(Figure9(scale)); err != nil {
		return nil, err
	}
	f10, err := Figure10(scale)
	if err != nil {
		return nil, err
	}
	out = append(out, f10)
	if err := add(Figure11(scale)); err != nil {
		return nil, err
	}
	f12, err := Figure12(scale)
	if err != nil {
		return nil, err
	}
	out = append(out, f12)
	if err := add(Figure13(scale)); err != nil {
		return nil, err
	}
	f14, err := Figure14(scale)
	if err != nil {
		return nil, err
	}
	out = append(out, f14)
	return out, nil
}

// ablationIDs names every ablation, in the order AllAblations runs them.
var ablationIDs = []string{
	"ablation-refinement", "ablation-sketch", "ablation-alpha",
	"ablation-period", "ablation-rack",
}

// AllAblations runs every ablation at the given scale.
func AllAblations(scale Scale) ([]Figure, error) {
	var out []Figure
	for _, id := range ablationIDs {
		figs, err := FigureByID(id, scale)
		if err != nil {
			return nil, err
		}
		out = append(out, figs...)
	}
	return out, nil
}

// FigureByID runs one figure or ablation by its identifier prefix
// ("fig7", "fig11", "ablation-alpha", ...).
func FigureByID(id string, scale Scale) ([]Figure, error) {
	switch id {
	case "fig7":
		return Figure7(scale)
	case "fig8":
		return Figure8(scale)
	case "fig9":
		return Figure9(scale)
	case "fig10":
		f, err := Figure10(scale)
		return []Figure{f}, err
	case "fig11":
		return Figure11(scale)
	case "fig12":
		f, err := Figure12(scale)
		return []Figure{f}, err
	case "fig13":
		return Figure13(scale)
	case "fig14":
		f, err := Figure14(scale)
		return []Figure{f}, err
	case "ablation-refinement":
		f, err := AblationRefinement(scale)
		return []Figure{f}, err
	case "ablation-sketch":
		f, err := AblationSketchCapacity(scale)
		return []Figure{f}, err
	case "ablation-alpha":
		f, err := AblationAlpha(scale)
		return []Figure{f}, err
	case "ablation-period":
		f, err := AblationPeriod(scale)
		return []Figure{f}, err
	case "ablation-rack":
		f, err := AblationRackAware(scale)
		return []Figure{f}, err
	default:
		return nil, fmt.Errorf("experiments: unknown figure %q", id)
	}
}
