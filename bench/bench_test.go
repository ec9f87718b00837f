package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/locastream/locastream"
)

func TestHistQuantileWithinTwoPercent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	ref := make([]float64, 200_000)
	for i := range ref {
		// Log-normal around 1 ms with a long tail, like the latencies
		// the recorder sees.
		d := time.Duration(math.Exp(rng.NormFloat64()*1.5+13.8)) + 1
		ref[i] = float64(d)
		h.record(d)
	}
	sort.Float64s(ref)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := ref[int(q*float64(len(ref)-1))]
		got := h.quantile(q)
		if err := math.Abs(got-want) / want; err > 0.02 {
			t.Errorf("q%.3f: histogram %.0f, sorted reference %.0f, error %.2f%%", q, got, want, 100*err)
		}
	}
	if got, want := h.above(time.Millisecond), 0.0; got <= want || got >= 1 {
		t.Errorf("above(1ms) = %v, want a share strictly between 0 and 1", got)
	}
}

func TestHistBucketsPartitionTheRange(t *testing.T) {
	prevEnd := uint64(0)
	for i := 0; i < histBuckets; i++ {
		lo, width := histBounds(i)
		if lo != prevEnd {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, prevEnd)
		}
		if histBucket(lo) != i || histBucket(lo+width-1) != i {
			t.Fatalf("bucket %d [%d,+%d) does not hold its own bounds", i, lo, width)
		}
		prevEnd = lo + width
	}
}

func TestRecorderDoesNotAllocate(t *testing.T) {
	var h hist
	if n := testing.AllocsPerRun(1000, func() { h.record(1234 * time.Microsecond) }); n != 0 {
		t.Errorf("hist.record allocates %v times", n)
	}
	base := time.Now()
	s := &sinkB{counter: locastream.NewCounter(fieldB), base: base}
	emit := func(locastream.Tuple) {}
	plain := locastream.Tuple{Values: []string{"a", "b", ""}}
	tagged := locastream.Tuple{Values: []string{"a", "b", encodeTag(9, time.Millisecond, phLo)}}
	s.Process(plain, emit) // create the key's map entry
	if n := testing.AllocsPerRun(1000, func() { s.Process(plain, emit) }); n != 0 {
		t.Errorf("unsampled path allocates %v times", n)
	}
	if n := testing.AllocsPerRun(1000, func() { s.Process(tagged, emit) }); n != 0 {
		t.Errorf("sampled path allocates %v times", n)
	}
	if s.lat[phLo].n != 1001 {
		t.Errorf("sampled tuples recorded in window phLo: %d, want 1001", s.lat[phLo].n)
	}
}

func TestTagRoundTrip(t *testing.T) {
	seq, due, ph, ok := decodeTag(encodeTag(0xdeadbeef, 123456789*time.Nanosecond, phHi+3))
	if !ok || seq != 0xdeadbeef || due != 123456789 || ph != phHi+3 {
		t.Errorf("decoded %x %v %d %v", seq, due, ph, ok)
	}
	for _, bad := range []string{"", "short", strings.Repeat("x", tagLen)} {
		if _, _, _, ok := decodeTag(bad); ok {
			t.Errorf("decodeTag(%q) accepted", bad)
		}
	}
}

func TestPoolsAreDeterministicPerSeed(t *testing.T) {
	for _, sp := range specs {
		a, b, c := sp.pool(3, 2048), sp.pool(3, 2048), sp.pool(4, 2048)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different pools", sp.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same pool", sp.name)
		}
		for _, tu := range a {
			if tu.Values[fieldTag] != "" {
				t.Fatalf("%s: pool tuple carries a tag", sp.name)
			}
		}
	}
	// No two remote-sat tuples share a payload, or the wire dictionary
	// would remove it.
	seen := make(map[string]bool)
	for _, tu := range pairsPool(1, 1<<15, payloadBytes) {
		if p := tu.Values[3]; len(p) != payloadBytes || seen[p] {
			t.Fatalf("payload of %d bytes, repeated %v", len(p), seen[p])
		}
		seen[tu.Values[3]] = true
	}
}

// fakeClock advances only when the generator sleeps or when the fake
// system takes time to accept a tuple.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

// The open-loop schedule must not slow down with the system: the due
// times stamped into the tuples are the same whether Inject returns at
// once or takes three burst intervals per tuple.
func TestOpenLoopDueTimesIgnoreSystemSpeed(t *testing.T) {
	dueTimes := func(costPerTuple time.Duration) []time.Duration {
		clk := &fakeClock{t: 5 * time.Second}
		var dues []time.Duration
		g := &generator{pool: pairsPool(1, 64, 0), clk: clk}
		g.sink = func(tu locastream.Tuple) error {
			clk.t += costPerTuple
			if _, due, ph, ok := decodeTag(tu.Values[fieldTag]); ok {
				if ph != phLo {
					t.Errorf("phase %d, want %d", ph, phLo)
				}
				dues = append(dues, due)
			}
			return nil
		}
		g.setPhase(phLo)
		g.openLoop(32_000, 50*time.Millisecond)
		if g.injected != 32*50 {
			t.Errorf("injected %d tuples, want %d", g.injected, 32*50)
		}
		return dues
	}
	fast, slow := dueTimes(0), dueTimes(3*burstInterval)
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("due times depend on system speed:\nfast %v\nslow %v", fast[:6], slow[:6])
	}
	// 32 tuples per burst, one in 16 sampled: two samples per burst.
	for i, due := range fast {
		if want := 5*time.Second + time.Duration(i/2)*burstInterval; due != want {
			t.Fatalf("sample %d due at %v, want %v", i, due, want)
		}
	}
}

// Reconfigure rounds are started by tuple count, not by time: a mark is
// offered every N injected tuples whatever an Inject costs, and a mark
// nobody takes does not hold the generator up.
func TestMarksFollowTupleCount(t *testing.T) {
	for _, cost := range []time.Duration{0, 3 * burstInterval} {
		clk := &fakeClock{}
		g := &generator{pool: pairsPool(1, 64, 0), clk: clk}
		g.sink = func(locastream.Tuple) error {
			clk.t += cost
			return nil
		}
		taken := make(chan struct{}, 16)
		g.markEvery(320, taken)
		g.openLoop(32_000, 50*time.Millisecond) // 1600 tuples in bursts of 32
		if len(taken) != 4 {
			t.Errorf("cost %v: %d marks in 1600 tuples, want one at 320, 640, 960 and 1280", cost, len(taken))
		}
		g.markEvery(320, make(chan struct{}))
		g.openLoop(32_000, 50*time.Millisecond)
		if g.injected != 3200 {
			t.Errorf("cost %v: injected %d tuples, want 3200", cost, g.injected)
		}
	}
}

func TestCheckerTripsOnWrongReference(t *testing.T) {
	sp, _ := specByName("flickr-rate")
	sys, err := newAppSystem(sp, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	pool := sp.pool(1, 512)
	g := &generator{sink: sys.Inject, pool: pool, clk: wallClock{time.Now()}}
	g.warm(1300) // two and a half turns of the pool
	sys.Drain()
	if n, err := countMismatches(sys, pool, g.injected, nil); err != nil || n != 0 {
		t.Fatalf("correct reference: %d mismatches, err %v", n, err)
	}
	// One tuple more in the reference is one key of A and one of B off.
	if n, err := countMismatches(sys, pool, g.injected+1, nil); err != nil || n != 2 {
		t.Fatalf("wrong reference: %d mismatches (want 2), err %v", n, err)
	}
	o := &outcome{mismatched: 2, attempted: g.injected}
	if o.correct() || o.failed() != 2 {
		t.Errorf("an outcome with mismatches counts as correct")
	}
}

// A reduced-size, one-second run of every workload, end to end, and one
// traced: every metric is produced and no output is wrong.
func TestSmoke(t *testing.T) {
	small := sizes{pool: 1 << 12, warm: 1 << 12, setups: 1, ringCap: 1 << 14}
	for _, sp := range specs {
		o, err := runWorkload(sp, 1, 1, small, false)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if o.failed() != 0 || o.attempted == 0 {
			t.Errorf("%s: %d failed of %d attempted", sp.name, o.failed(), o.attempted)
		}
		values := endToEndMetrics(o)
		for _, d := range endToEnd {
			if v, ok := values[d.name]; !ok || v <= 0 || math.IsNaN(v) {
				t.Errorf("%s: %s = %v", sp.name, d.name, v)
			}
		}
	}
	sp, _ := specByName("flickr-reconf")
	o, err := runWorkload(sp, 1, 1, small, true)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed() != 0 {
		t.Errorf("traced: %d failed", o.failed())
	}
	micro, err := microMetrics(sp.pool(1, small.pool))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		_, traced := o.tr.metrics[d.name]
		_, timed := micro[d.name]
		if !traced && !timed {
			t.Errorf("per-layer metric %s is not produced", d.name)
		}
	}
	if r := o.tr.metrics["trace.budget_residual_share"]; r >= 0.05 {
		t.Errorf("trace budget residual %v", r)
	}
	if len(o.tr.spans) == 0 {
		t.Error("no spans")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two values = %v, %v", q1, q3)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{name: "latency", better: "lower", bound: 0.10}
	higher := metricDef{name: "rate", better: "higher", bound: 0.10}
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center}
	}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(103), "unchanged"},
		{lower, steady(100), steady(120), "worse"},
		{lower, steady(100), steady(80), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, steady(100), []float64{60, 100, 140, 180, 120}, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.better, median(c.a), median(c.b), got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, version int, tps float64) string {
		file := resultFile{BenchVersion: version}
		for i := 0; i < 5; i++ {
			file.Runs = append(file.Runs, runRecord{
				Workload: "local-sat", Seed: int64(i), Correct: true,
				Metrics: map[string]metricValue{"throughput_tps": {tps * (1 + float64(i)/1000), "1/s"}},
			})
		}
		data, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slow, other := write("a.json", benchVersion, 1000), write("b.json", benchVersion, 500), write("c.json", benchVersion+1, 1000)
	var out, errs bytes.Buffer
	if code := compareFiles(base, base, &out, &errs); code != 0 || !strings.Contains(out.String(), "unchanged") {
		t.Errorf("same file: code %d, output %q", code, out.String())
	}
	out.Reset()
	if code := compareFiles(base, slow, &out, &errs); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("halved throughput: code %d, output %q", code, out.String())
	}
	if code := compareFiles(base, other, &out, &errs); code != 2 || !strings.Contains(errs.String(), "bench_version") {
		t.Errorf("other bench_version: code %d, stderr %q", code, errs.String())
	}
}

// BENCHMARK.json repeats the workload and metric tables for the driver;
// the two must not drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, schedule is quoted for %d", file.RunSeconds, nominalSeconds)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(file.Workloads), len(specs))
	}
	for i, w := range file.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q / %q differs from the spec", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: %+v differs from %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s %s: bound differs", kind, d.name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}
