package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/locastream/locastream"
	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/spacesaving"
	"github.com/locastream/locastream/internal/state"
	"github.com/locastream/locastream/internal/transport"
)

// microTuples bounds how many pool tuples each single-layer timer below
// replays; every timer is a loop over calls into one module's public
// functions, timed from here.
const microTuples = 1 << 16

// perCall times fn over the pool and returns nanoseconds per call.
func perCall(pool []locastream.Tuple, fn func(t locastream.Tuple)) float64 {
	t0 := time.Now()
	for _, t := range pool {
		fn(t)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(pool))
}

// microMetrics times single layers on the workload's own tuples, with
// nothing else running.
func microMetrics(pool []locastream.Tuple) (map[string]float64, error) {
	if len(pool) > microTuples {
		pool = pool[:microTuples]
	}
	m := make(map[string]float64)

	// routing: a table that holds every B key against an empty one.
	full := &routing.Table{Assign: make(map[string]int)}
	for _, t := range pool {
		full.Assign[t.Values[fieldB]] = routing.HashKey(t.Values[fieldB], parallelism)
	}
	table := routing.NewTableFields(parallelism, opB)
	table.Update(full)
	var sink int
	m["routing.route_table_ns"] = perCall(pool, func(t locastream.Tuple) { sink += table.Route(t.Values[fieldB], 0, 0) })
	fallback := routing.NewTableFields(parallelism, opB)
	m["routing.route_fallback_ns"] = perCall(pool, func(t locastream.Tuple) { sink += fallback.Route(t.Values[fieldB], 0, 0) })
	_ = sink

	// spacesaving: the per-tuple pair sketch update of a fields edge, at
	// the engine's default capacity.
	sketch := spacesaving.NewPairs(sketchCapacity)
	m["spacesaving.pair_add_ns"] = perCall(pool, func(t locastream.Tuple) { sketch.Add(t.Values[fieldA], t.Values[fieldB]) })

	// topology: the operator logic alone.
	cnt := locastream.NewCounter(fieldA)
	m["topology.process_ns"] = perCall(pool, func(t locastream.Tuple) { cnt.Process(t, func(locastream.Tuple) {}) })

	// state: extract every key of a loaded counter and install it in an
	// empty one, as the migration wave does per moved key.
	keys := cnt.StateKeys()
	t0 := time.Now()
	err := state.Install(locastream.NewCounter(fieldA), state.Extract(cnt, keys))
	if err != nil {
		return nil, fmt.Errorf("state install: %w", err)
	}
	m["state.extract_install_us_per_key"] = micros(float64(time.Since(t0).Nanoseconds())) / float64(len(keys))

	// transport: a 2-node fabric driven directly.
	if err := fabricMetrics(pool, m); err != nil {
		return nil, err
	}

	// engine: the same job at parallelism 1 on one server.
	ns, err := singlePipeline(pool)
	if err != nil {
		return nil, err
	}
	m["engine.single_pipeline_ns"] = ns
	return m, nil
}

// fabricMetrics measures the transport alone: the sustained cost per
// tuple from Send on one node to the handler on the other, and the time
// one tuple takes over a quiescent connection (which waits for the
// flush timer).
func fabricMetrics(pool []locastream.Tuple, m map[string]float64) error {
	var received atomic.Int64
	arrived := make(chan struct{}, 1)
	fabric, err := transport.NewFabricWith(2, func(int, transport.Message) {}, transport.NodeOptions{
		BatchHandler: func(_ int, msgs []transport.Message) {
			received.Add(int64(len(msgs)))
			select {
			case arrived <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		return fmt.Errorf("start 2-node fabric: %w", err)
	}
	defer fabric.Close()
	send := func(t locastream.Tuple) error {
		return fabric.Send(0, 1, transport.Message{
			Kind: transport.KindData, To: transport.Addr{Op: opB, Instance: 1},
			Values: t.Values, KeyOp: opB, Key: t.Values[fieldB],
		})
	}
	awaitTotal := func(n int64) error {
		deadline := time.After(30 * time.Second)
		for received.Load() < n {
			select {
			case <-arrived:
			case <-deadline:
				return fmt.Errorf("2-node fabric delivered %d of %d tuples", received.Load(), n)
			}
		}
		return nil
	}

	var sendErr error
	var sent int64
	ns := perCall(pool, func(t locastream.Tuple) {
		if err := send(t); err != nil {
			sendErr = err
		}
		sent++
	})
	if sendErr != nil {
		return fmt.Errorf("fabric send: %w", sendErr)
	}
	t0 := time.Now()
	if err := awaitTotal(sent); err != nil {
		return err
	}
	// The tail that was still in flight when the send loop ended is part
	// of the cost of forwarding the batch.
	m["transport.forward_ns"] = ns + float64(time.Since(t0).Nanoseconds())/float64(sent)

	const probes = 41
	rtt := make([]float64, probes)
	for i := range rtt {
		t0 := time.Now()
		if err := send(pool[i%len(pool)]); err != nil {
			return fmt.Errorf("fabric send: %w", err)
		}
		sent++
		if err := awaitTotal(sent); err != nil {
			return err
		}
		rtt[i] = micros(float64(time.Since(t0).Nanoseconds()))
	}
	sort.Float64s(rtt)
	m["transport.rtt_us"] = rtt[probes/2]
	return nil
}

// singlePipeline runs the A -> B job at parallelism 1 on one server and
// returns nanoseconds per tuple: the single-threaded baseline that
// throughput at parallelism 4 is compared with.
func singlePipeline(pool []locastream.Tuple) (float64, error) {
	topo, err := buildTopology(1,
		func() locastream.Processor { return locastream.NewCounter(fieldA) },
		func() locastream.Processor { return locastream.NewCounter(fieldB) })
	if err != nil {
		return 0, err
	}
	app, err := locastream.NewApp(topo,
		locastream.WithServers(1),
		locastream.WithMaxInFlight(maxInFlight),
		locastream.WithSourceGrouping(locastream.Fields, fieldA))
	if err != nil {
		return 0, err
	}
	defer app.Stop()
	var injectErr error
	feed := func(t locastream.Tuple) {
		if err := app.Inject(t); err != nil {
			injectErr = err
		}
	}
	perCall(pool, feed) // warm the maps
	app.Drain()
	t0 := time.Now()
	perCall(pool, feed)
	app.Drain()
	if injectErr != nil {
		return 0, fmt.Errorf("single pipeline inject: %w", injectErr)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(pool)), nil
}
