// Rackaware: the hierarchical-locality extension from the paper's
// conclusion ("distances between servers can be taken into account to
// leverage rack locality"). Six simulated servers sit in two racks with
// an oversubscribed inter-rack link; the program compares flat
// partitioning against rack-aware two-level partitioning on the drifting
// Twitter workload.
//
//	go run ./examples/rackaware
package main

import (
	"fmt"
	"log"

	locastream "github.com/locastream/locastream"
	"github.com/locastream/locastream/internal/workload"
)

const (
	parallelism = 6
	weekTuples  = 40000
	padding     = 8192
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func buildSim(rackAware bool) (*locastream.Simulation, error) {
	topo, err := locastream.NewTopology("rack-demo").
		AddOperator(locastream.Operator{
			Name: "regions", Parallelism: parallelism, Stateful: true,
			New: func() locastream.Processor { return locastream.NewCounter(0) },
		}).
		AddOperator(locastream.Operator{
			Name: "hashtags", Parallelism: parallelism, Stateful: true,
			New: func() locastream.Processor { return locastream.NewCounter(1) },
		}).
		Connect("regions", "hashtags", locastream.Fields, 1).
		Build()
	if err != nil {
		return nil, err
	}

	model := locastream.Model10G()
	model.InterRackFactor = 4 // the inter-rack link is 4x slower per byte

	opts := []locastream.Option{
		locastream.WithServers(parallelism),
		locastream.WithRacks([]int{0, 0, 0, 1, 1, 1}),
		locastream.WithCostModel(model),
		locastream.WithOptimizer(1.03, 1<<20, 1),
	}
	if !rackAware {
		opts = append(opts, locastream.WithFlatOptimizer())
	}
	return locastream.NewSimulation(topo, opts...)
}

func run() error {
	fmt.Printf("%-12s %14s %10s %14s\n", "partitioner", "Ktuples/s", "locality", "rack-locality")
	for _, rackAware := range []bool{false, true} {
		sim, err := buildSim(rackAware)
		if err != nil {
			return err
		}

		// Week 1 collects statistics under hash fallback, then the
		// optimizer runs and week 2 measures.
		gen := workload.NewTwitter(workload.DefaultTwitterConfig())
		for i := 0; i < weekTuples; i++ {
			sim.Inject(gen.Next())
		}
		if _, err := sim.Reoptimize(); err != nil {
			return err
		}
		sim.NextWindow()
		gen.NextWeek()
		for i := 0; i < weekTuples; i++ {
			t := gen.Next()
			t.Padding = padding
			sim.Inject(t)
		}

		name := "flat"
		if rackAware {
			name = "rack-aware"
		}
		fmt.Printf("%-12s %14.1f %10.3f %14.3f\n",
			name, sim.ThroughputPerSec()/1000, sim.Locality(), sim.RackLocality())
	}
	return nil
}
