package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestTrafficRecordAndLocality(t *testing.T) {
	var tr Traffic
	if tr.Locality() != 0 {
		t.Fatal("empty traffic locality should be 0")
	}
	tr.Record(TierServer, 100)
	tr.Record(TierServer, 50)
	tr.Record(TierRegion, 200)
	if tr.LocalTuples != 2 || tr.RemoteTuples != 1 {
		t.Fatalf("tuples = %d/%d", tr.LocalTuples, tr.RemoteTuples)
	}
	if tr.LocalBytes != 150 || tr.RemoteBytes != 200 {
		t.Fatalf("bytes = %d/%d", tr.LocalBytes, tr.RemoteBytes)
	}
	if got := tr.Locality(); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("Locality() = %f", got)
	}
	if tr.Total() != 3 {
		t.Fatalf("Total() = %d", tr.Total())
	}
	if !strings.Contains(tr.String(), "locality=0.667") {
		t.Fatalf("String() = %q", tr.String())
	}
}

// TestRecordLevelRackAccounting walks one transfer through every tier:
// each lands in exactly one per-tier counter, and the cumulative
// localities nest.
func TestRecordLevelRackAccounting(t *testing.T) {
	var tr Traffic
	tr.Record(TierServer, 10)
	tr.Record(TierRack, 20)
	tr.Record(TierCluster, 30)
	tr.Record(TierRegion, 40)
	tr.Record(NumTiers+3, 50) // unknown tier: counted as cross-region

	want := Traffic{
		LocalTuples: 1, LocalBytes: 10,
		RemoteTuples: 4, RemoteBytes: 140,
		RackTuples: 1, RackBytes: 20,
		ClusterTuples: 1, ClusterBytes: 30,
	}
	if tr != want {
		t.Fatalf("traffic = %+v, want %+v", tr, want)
	}
	if tr.InterClusterTuples() != 2 || tr.InterClusterBytes() != 90 {
		t.Fatalf("inter-cluster = %d tuples / %d bytes, want 2 / 90",
			tr.InterClusterTuples(), tr.InterClusterBytes())
	}
	for name, c := range map[string]struct{ got, want float64 }{
		"Locality":        {tr.Locality(), 1.0 / 5},
		"RackLocality":    {tr.RackLocality(), 2.0 / 5},
		"ClusterLocality": {tr.ClusterLocality(), 3.0 / 5},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s() = %f, want %f", name, c.got, c.want)
		}
	}
}

// Whatever the tier sequence, the per-tier counters partition the total
// and the derived inter-cluster volume never underflows.
func TestPropertyRecordPartitionsTotal(t *testing.T) {
	f := func(tiers []uint8) bool {
		var tr Traffic
		for i, tier := range tiers {
			tr.Record(int(tier%(NumTiers+1)), i)
		}
		perTier := tr.LocalTuples + tr.RackTuples + tr.ClusterTuples + tr.InterClusterTuples()
		return perTier == tr.Total() && tr.Total() == uint64(len(tiers)) &&
			tr.InterClusterTuples() <= tr.RemoteTuples && tr.InterClusterBytes() <= tr.RemoteBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRackLocalityEmpty(t *testing.T) {
	var tr Traffic
	if tr.RackLocality() != 0 || tr.ClusterLocality() != 0 {
		t.Fatal("empty traffic rack and cluster locality should be 0")
	}
}

func TestAddIncludesRackFields(t *testing.T) {
	a := Traffic{RackTuples: 1, RackBytes: 10, ClusterTuples: 4, ClusterBytes: 40}
	a.Add(Traffic{RackTuples: 2, RackBytes: 20, ClusterTuples: 5, ClusterBytes: 50})
	want := Traffic{RackTuples: 3, RackBytes: 30, ClusterTuples: 9, ClusterBytes: 90}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

func TestTrafficAdd(t *testing.T) {
	a := Traffic{LocalTuples: 1, RemoteTuples: 2, LocalBytes: 10, RemoteBytes: 20}
	b := Traffic{LocalTuples: 3, RemoteTuples: 4, LocalBytes: 30, RemoteBytes: 40}
	a.Add(b)
	if a.LocalTuples != 4 || a.RemoteTuples != 6 || a.LocalBytes != 40 || a.RemoteBytes != 60 {
		t.Fatalf("Add result %+v", a)
	}
}

func TestImbalance(t *testing.T) {
	tests := []struct {
		name  string
		loads []uint64
		want  float64
	}{
		{"empty", nil, 1},
		{"all zero", []uint64{0, 0}, 1},
		{"perfect", []uint64{5, 5, 5}, 1},
		{"skewed", []uint64{9, 1, 2}, 9.0 / 4.0},
		{"single", []uint64{7}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Imbalance(tt.loads); math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("Imbalance(%v) = %f, want %f", tt.loads, got, tt.want)
			}
		})
	}
}

func TestPropertyImbalanceAtLeastOne(t *testing.T) {
	f := func(loads []uint64) bool {
		return Imbalance(loads) >= 1.0-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesSorted(t *testing.T) {
	s := Series{Label: "x"}
	s.Append(3, 30)
	s.Append(1, 10)
	s.Append(2, 20)
	pts := s.Sorted()
	if pts[0].X != 1 || pts[1].X != 2 || pts[2].X != 3 {
		t.Fatalf("Sorted() = %v", pts)
	}
	// Original order preserved in Points.
	if s.Points[0].X != 3 {
		t.Fatal("Sorted mutated the series")
	}
}

func TestThroughputMeter(t *testing.T) {
	var m ThroughputMeter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.Inc(1)
			}
		}()
	}
	wg.Wait()
	if got := m.Snapshot(); got != 800 {
		t.Fatalf("Snapshot() = %d, want 800", got)
	}
	if got := m.Snapshot(); got != 0 {
		t.Fatalf("second Snapshot() = %d, want 0", got)
	}
}

func TestEWMA(t *testing.T) {
	var e EWMA
	e.Alpha = 0.5
	if e.Ready() || e.Value() != 0 {
		t.Fatalf("zero EWMA: ready=%v value=%f", e.Ready(), e.Value())
	}
	if got := e.Observe(10); got != 10 {
		t.Fatalf("first observation = %f, want 10 (initializes)", got)
	}
	if got := e.Observe(0); got != 5 {
		t.Fatalf("second observation = %f, want 5", got)
	}
	if got := e.Observe(5); got != 5 {
		t.Fatalf("third observation = %f, want 5", got)
	}
	if !e.Ready() {
		t.Fatal("not ready after observations")
	}
}

func TestEWMANoSmoothingDefaults(t *testing.T) {
	for _, alpha := range []float64{0, 1, 2, -0.5} {
		e := EWMA{Alpha: alpha}
		e.Observe(3)
		if got := e.Observe(7); got != 7 {
			t.Fatalf("alpha=%f: Observe = %f, want 7 (treated as alpha 1)", alpha, got)
		}
	}
}
