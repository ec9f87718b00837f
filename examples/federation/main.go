// Federation: hierarchical locality across clusters. Six simulated
// servers sit in two clusters of two racks each, with an inter-cluster
// link far more expensive than an inter-rack hop; the program compares
// flat partitioning against the two-level cluster partition
// (WithClusters) on a cross-region workload whose users migrate between
// regions over epochs.
//
//	go run ./examples/federation
package main

import (
	"fmt"
	"log"

	locastream "github.com/locastream/locastream"
	"github.com/locastream/locastream/internal/workload"
)

const (
	parallelism = 6
	epochTuples = 40000
	padding     = 8192
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func buildSim(clustered bool) (*locastream.Simulation, error) {
	topo, err := locastream.NewTopology("federation-demo").
		AddOperator(locastream.Operator{
			Name: "users", Parallelism: parallelism, Stateful: true,
			New: func() locastream.Processor { return locastream.NewCounter(0) },
		}).
		AddOperator(locastream.Operator{
			Name: "topics", Parallelism: parallelism, Stateful: true,
			New: func() locastream.Processor { return locastream.NewCounter(1) },
		}).
		Connect("users", "topics", locastream.Fields, 1).
		Build()
	if err != nil {
		return nil, err
	}

	model := locastream.Model10G()
	model.InterRackFactor = 4
	model.InterClusterFactor = 20 // the inter-cluster link is 20x slower per byte

	opts := []locastream.Option{
		locastream.WithServers(parallelism),
		locastream.WithCostModel(model),
		locastream.WithOptimizer(1.03, 1<<20, 1),
		// Three servers per cluster, split into a two-server and a
		// one-server rack; racks nest inside clusters. Both variants run
		// on this topology — only the partitioner differs.
		locastream.WithRacks([]int{0, 0, 1, 2, 2, 3}),
		locastream.WithClusters([]int{0, 0, 0, 1, 1, 1}),
	}
	if !clustered {
		opts = append(opts, locastream.WithFlatOptimizer())
	}
	return locastream.NewSimulation(topo, opts...)
}

func run() error {
	fmt.Printf("%-12s %14s %10s %18s\n", "partitioner", "Ktuples/s", "locality", "cluster-locality")
	for _, clustered := range []bool{false, true} {
		sim, err := buildSim(clustered)
		if err != nil {
			return err
		}

		// Epoch 1 collects statistics under hash fallback, then the
		// optimizer runs and epoch 2 measures after a migration wave.
		gen := workload.NewCrossRegion(workload.DefaultCrossRegionConfig())
		for i := 0; i < epochTuples; i++ {
			sim.Inject(gen.Next())
		}
		if _, err := sim.Reoptimize(); err != nil {
			return err
		}
		sim.NextWindow()
		gen.NextEpoch()
		for i := 0; i < epochTuples; i++ {
			t := gen.Next()
			t.Padding = padding
			sim.Inject(t)
		}

		name := "flat"
		if clustered {
			name = "two-level"
		}
		fmt.Printf("%-12s %14.1f %10.3f %18.3f\n",
			name, sim.ThroughputPerSec()/1000, sim.Locality(), sim.ClusterLocality())
	}
	return nil
}
