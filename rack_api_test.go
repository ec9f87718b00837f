package locastream_test

import (
	"strconv"
	"testing"

	locastream "github.com/locastream/locastream"
)

func TestAppWithRacksAndRackAwareOptimizer(t *testing.T) {
	topo := geoTopology(t, 4)
	app, err := locastream.NewApp(topo,
		locastream.WithServers(4),
		locastream.WithRacks([]int{0, 0, 1, 1}),
		locastream.WithOptimizer(1.03, 0, 17),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()

	for i := 0; i < 2000; i++ {
		k := strconv.Itoa(i % 16)
		if err := app.Inject(locastream.Tuple{Values: []string{"r" + k, "#" + k}}); err != nil {
			t.Fatal(err)
		}
	}
	app.Drain()
	if _, err := app.Reconfigure(); err != nil {
		t.Fatal(err)
	}

	pre := app.FieldsTraffic()
	for i := 0; i < 2000; i++ {
		k := strconv.Itoa(i % 16)
		_ = app.Inject(locastream.Tuple{Values: []string{"r" + k, "#" + k}})
	}
	app.Drain()
	post := app.FieldsTraffic()
	post.LocalTuples -= pre.LocalTuples
	post.RemoteTuples -= pre.RemoteTuples
	post.RackTuples -= pre.RackTuples

	if post.Locality() != 1.0 {
		t.Fatalf("post-reconfiguration locality = %f", post.Locality())
	}
	if got := post.RackLocality(); got < post.Locality() {
		t.Fatalf("rack locality %f below server locality %f", got, post.Locality())
	}
	if app.RackLocality() <= 0 {
		t.Fatal("cumulative rack locality not reported")
	}
}

func TestAppWithRacksValidation(t *testing.T) {
	for name, tiers := range map[string][]locastream.Option{
		"wrong rack length":    {locastream.WithRacks([]int{0})},
		"wrong cluster length": {locastream.WithClusters([]int{0, 0, 1})},
		"negative rack":        {locastream.WithRacks([]int{0, -1})},
		"negative cluster":     {locastream.WithClusters([]int{-1, 0})},
		"rack straddling clusters": {
			locastream.WithRacks([]int{0, 0}), locastream.WithClusters([]int{0, 1}),
		},
	} {
		opts := append([]locastream.Option{locastream.WithServers(2)}, tiers...)
		if app, err := locastream.NewApp(geoTopology(t, 2), opts...); err == nil {
			app.Stop()
			t.Errorf("%s accepted", name)
		}
	}
}

// TestAppWithRacksSparseIDs: rack and cluster ids are labels, not
// indices. A deployment numbered with gaps must reconfigure — an id
// nobody uses is not an empty rack — and account every transfer exactly
// as the densely numbered deployment does.
func TestAppWithRacksSparseIDs(t *testing.T) {
	run := func(t *testing.T, tiers ...locastream.Option) locastream.Traffic {
		opts := append([]locastream.Option{
			locastream.WithServers(4), locastream.WithOptimizer(1.03, 0, 17),
		}, tiers...)
		app, err := locastream.NewApp(geoTopology(t, 4), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer app.Stop()
		for round := 0; round < 2; round++ {
			for i := 0; i < 2000; i++ {
				k := strconv.Itoa(i % 16)
				if err := app.Inject(locastream.Tuple{Values: []string{"r" + k, "#" + strconv.Itoa(i%24)}}); err != nil {
					t.Fatal(err)
				}
			}
			app.Drain()
			if round == 0 {
				if _, err := app.Reconfigure(); err != nil {
					t.Fatalf("Reconfigure: %v", err)
				}
			}
		}
		return app.FieldsTraffic()
	}
	for name, c := range map[string]struct{ sparse, dense []locastream.Option }{
		"racks": {
			[]locastream.Option{locastream.WithRacks([]int{0, 0, 2, 2})},
			[]locastream.Option{locastream.WithRacks([]int{0, 0, 1, 1})},
		},
		"clusters": {
			[]locastream.Option{locastream.WithClusters([]int{0, 0, 3, 3})},
			[]locastream.Option{locastream.WithClusters([]int{0, 0, 1, 1})},
		},
		"racks in clusters": {
			[]locastream.Option{locastream.WithRacks([]int{1, 4, 9, 9}), locastream.WithClusters([]int{2, 2, 7, 7})},
			[]locastream.Option{locastream.WithRacks([]int{0, 1, 2, 2}), locastream.WithClusters([]int{0, 0, 1, 1})},
		},
	} {
		t.Run(name, func(t *testing.T) {
			sparse, dense := run(t, c.sparse...), run(t, c.dense...)
			if sparse != dense {
				t.Fatalf("sparse ids: traffic %+v, want %+v as with dense ids", sparse, dense)
			}
			if sparse.RemoteTuples == 0 || sparse.InterClusterTuples() > sparse.RemoteTuples {
				t.Fatalf("degenerate run: %+v", sparse)
			}
		})
	}
}

func TestAppReconfigureIfWorthwhile(t *testing.T) {
	topo := geoTopology(t, 3)
	app, err := locastream.NewApp(topo,
		locastream.WithServers(3),
		locastream.WithOptimizer(0, 0, 5),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()

	for i := 0; i < 3000; i++ {
		k := strconv.Itoa(i % 12)
		_ = app.Inject(locastream.Tuple{Values: []string{"r" + k, "#" + k}})
	}
	app.Drain()

	plan, impact, deployed, err := app.ReconfigureIfWorthwhile(1)
	if err != nil {
		t.Fatal(err)
	}
	if !deployed {
		t.Fatalf("correlated workload not deployed: %+v", impact)
	}
	if plan.ExpectedLocality < 0.99 {
		t.Fatalf("plan locality %f", plan.ExpectedLocality)
	}
	if impact.CandidateLocality <= impact.CurrentLocality {
		t.Fatalf("impact did not predict improvement: %+v", impact)
	}

	// An empty statistics window must be skipped.
	_, impact, deployed, err = app.ReconfigureIfWorthwhile(1)
	if err != nil {
		t.Fatal(err)
	}
	if deployed {
		t.Fatalf("empty window deployed: %+v", impact)
	}
}

func TestAppWithTCPTransport(t *testing.T) {
	topo := geoTopology(t, 3)
	app, err := locastream.NewApp(topo,
		locastream.WithServers(3),
		locastream.WithTCPTransport(),
		locastream.WithOptimizer(0, 0, 7),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()

	for i := 0; i < 1500; i++ {
		k := strconv.Itoa(i % 9)
		if err := app.Inject(locastream.Tuple{Values: []string{"r" + k, "#" + k}, Padding: 128}); err != nil {
			t.Fatal(err)
		}
	}
	app.Drain()
	if _, err := app.Reconfigure(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for i := 0; i < 3; i++ {
		_ = app.ProcessorState("hashtags", i, func(p locastream.Processor) {
			total += p.(interface{ TotalCount() uint64 }).TotalCount()
		})
	}
	if total != 1500 {
		t.Fatalf("hashtags total over TCP = %d, want 1500", total)
	}
}
