// Benchmarks regenerating every figure of the paper's evaluation plus the
// ablation studies of DESIGN.md. Each benchmark runs the corresponding
// experiment driver at a reduced scale per iteration; run
// cmd/benchpaper for full-scale series output.
package locastream_test

import (
	"testing"

	locastream "github.com/locastream/locastream"
	"github.com/locastream/locastream/internal/experiments"
	"github.com/locastream/locastream/internal/workload"
)

// benchScale keeps one benchmark iteration around a second.
const benchScale = experiments.Scale(0.05)

func benchFigure(b *testing.B, fn func(experiments.Scale) ([]experiments.Figure, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		figs, err := fn(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) == 0 {
			b.Fatal("no figures produced")
		}
	}
}

func one(fn func(experiments.Scale) (experiments.Figure, error)) func(experiments.Scale) ([]experiments.Figure, error) {
	return func(s experiments.Scale) ([]experiments.Figure, error) {
		f, err := fn(s)
		return []experiments.Figure{f}, err
	}
}

// BenchmarkFigure7 regenerates Fig. 7: throughput vs parallelism for
// three routing variants at two locality levels and three tuple sizes.
func BenchmarkFigure7(b *testing.B) { benchFigure(b, experiments.Figure7) }

// BenchmarkFigure8 regenerates Fig. 8: throughput vs workload locality.
func BenchmarkFigure8(b *testing.B) { benchFigure(b, experiments.Figure8) }

// BenchmarkFigure9 regenerates Fig. 9: throughput vs tuple size.
func BenchmarkFigure9(b *testing.B) { benchFigure(b, experiments.Figure9) }

// BenchmarkFigure10 regenerates Fig. 10: one hashtag's moving
// correlation across states.
func BenchmarkFigure10(b *testing.B) { benchFigure(b, one(experiments.Figure10)) }

// BenchmarkFigure11 regenerates Fig. 11: locality and load balance over
// 25 weeks for online/offline/hash strategies.
func BenchmarkFigure11(b *testing.B) { benchFigure(b, experiments.Figure11) }

// BenchmarkFigure12 regenerates Fig. 12: locality vs number of key-pair
// edges considered.
func BenchmarkFigure12(b *testing.B) { benchFigure(b, one(experiments.Figure12)) }

// BenchmarkFigure13 regenerates Fig. 13: throughput over 30 minutes with
// and without reconfiguration on the stable Flickr-like workload.
func BenchmarkFigure13(b *testing.B) { benchFigure(b, experiments.Figure13) }

// BenchmarkFigure14 regenerates Fig. 14: average throughput vs
// parallelism with and without reconfiguration.
func BenchmarkFigure14(b *testing.B) { benchFigure(b, one(experiments.Figure14)) }

// BenchmarkAblationRefinement measures the partitioner's FM refinement
// contribution.
func BenchmarkAblationRefinement(b *testing.B) {
	benchFigure(b, one(experiments.AblationRefinement))
}

// BenchmarkAblationSketchCapacity bounds SpaceSaving sketches and
// measures achieved locality.
func BenchmarkAblationSketchCapacity(b *testing.B) {
	benchFigure(b, one(experiments.AblationSketchCapacity))
}

// BenchmarkAblationAlpha sweeps the load-imbalance bound.
func BenchmarkAblationAlpha(b *testing.B) {
	benchFigure(b, one(experiments.AblationAlpha))
}

// BenchmarkAblationPeriod sweeps the reconfiguration period.
func BenchmarkAblationPeriod(b *testing.B) {
	benchFigure(b, one(experiments.AblationPeriod))
}

// BenchmarkAblationRackAware compares flat vs hierarchical partitioning
// on a two-rack cluster with an oversubscribed inter-rack link.
func BenchmarkAblationRackAware(b *testing.B) {
	benchFigure(b, one(experiments.AblationRackAware))
}

// BenchmarkSimThroughput measures the raw simulator speed (simulated
// tuples per wall second), the cost floor of all experiments above.
func BenchmarkSimThroughput(b *testing.B) {
	topo, err := locastream.NewTopology("eval").
		AddOperator(locastream.Operator{
			Name: "A", Parallelism: 6, Stateful: true,
			New: func() locastream.Processor { return locastream.NewCounter(0) },
		}).
		AddOperator(locastream.Operator{
			Name: "B", Parallelism: 6, Stateful: true,
			New: func() locastream.Processor { return locastream.NewCounter(1) },
		}).
		Connect("A", "B", locastream.Fields, 1).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	sim, err := locastream.NewSimulation(topo, locastream.WithServers(6))
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewSynthetic(6, 0.8, 1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Inject(gen.Next())
	}
}
