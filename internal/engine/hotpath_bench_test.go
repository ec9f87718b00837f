package engine

import (
	"strconv"
	"sync/atomic"
	"testing"

	"github.com/locastream/locastream/internal/topology"
)

// benchTuples pre-builds the injection workload so the timed loop measures
// only the engine's forward path, not tuple construction.
func benchTuples(keys int) []topology.Tuple {
	out := make([]topology.Tuple, keys)
	for i := range out {
		k := strconv.Itoa(i)
		out[i] = topology.Tuple{Values: []string{k, k + "'"}}
	}
	return out
}

// BenchmarkLiveForward measures the per-tuple cost of the live engine's
// full path — Inject, source routing, A's processing, the A->B forward
// (policy lookup, traffic accounting, mailbox hand-off) and B's
// processing — with a single injector and 4 instances per operator.
func BenchmarkLiveForward(b *testing.B) {
	live := newLive(b, 4, FieldsHash, 4096)
	tuples := benchTuples(64)
	// Warm up every executor, sketch and mailbox buffer.
	for i := 0; i < 4096; i++ {
		if err := live.Inject(tuples[i%len(tuples)]); err != nil {
			b.Fatal(err)
		}
	}
	live.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := live.Inject(tuples[i%len(tuples)]); err != nil {
			b.Fatal(err)
		}
	}
	live.Drain()
}

// BenchmarkLiveForwardParallel is BenchmarkLiveForward with concurrent
// injectors; it exposes cross-executor contention (the seed serialized
// every forward through one engine-global traffic mutex).
func BenchmarkLiveForwardParallel(b *testing.B) {
	live := newLive(b, 4, FieldsHash, 8192)
	tuples := benchTuples(64)
	for i := 0; i < 4096; i++ {
		if err := live.Inject(tuples[i%len(tuples)]); err != nil {
			b.Fatal(err)
		}
	}
	live.Drain()
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			if err := live.Inject(tuples[i%uint64(len(tuples))]); err != nil {
				b.Fatal(err)
			}
		}
	})
	live.Drain()
}

// BenchmarkSplitForward measures the per-tuple cost of the forward path
// with hot-key splitting active on a skewed workload: a table-routed
// engine with depth tracking on, one promoted hot key taking half the
// stream through the 2-choice step, the tail through the normal table
// path. Comparing against BenchmarkLiveForward bounds the overhead the
// splitting machinery adds per tuple.
func BenchmarkSplitForward(b *testing.B) {
	live := newFaultLive(b, 4, func(cfg *LiveConfig) {
		cfg.KeySplitting = true
		cfg.MaxInFlight = 4096
	})
	if _, err := live.PromoteSplit("B", "hot", 2); err != nil {
		b.Fatal(err)
	}
	tuples := make([]topology.Tuple, 64)
	for i := range tuples {
		k := "hot"
		if i%2 == 1 {
			k = strconv.Itoa(i)
		}
		tuples[i] = topology.Tuple{Values: []string{k, k}}
	}
	for i := 0; i < 4096; i++ {
		if err := live.Inject(tuples[i%len(tuples)]); err != nil {
			b.Fatal(err)
		}
	}
	live.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := live.Inject(tuples[i%len(tuples)]); err != nil {
			b.Fatal(err)
		}
	}
	live.Drain()
}

// BenchmarkMailbox measures the raw producer/consumer hand-off of one
// executor mailbox under concurrent producers.
func BenchmarkMailbox(b *testing.B) {
	mb := newMailbox()
	done := make(chan uint64)
	go func() {
		var count uint64
		var buf []message
		for {
			batch, ok := mb.getBatch(buf)
			if !ok {
				done <- count
				return
			}
			count += uint64(len(batch))
			buf = batch
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mb.put(message{kind: msgData})
		}
	})
	mb.close()
	<-done
}

// BenchmarkInflightCounter measures the inc/dec pair every forwarded
// tuple pays for in-flight accounting.
func BenchmarkInflightCounter(b *testing.B) {
	c := newInflightCounter(0)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.incInternal()
			c.dec()
		}
	})
}
