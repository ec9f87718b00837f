package partition_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/locastream/locastream/internal/keygraph"
	"github.com/locastream/locastream/internal/partition"
	"github.com/locastream/locastream/internal/spacesaving"
	"github.com/locastream/locastream/internal/workload"
)

// flickrGraphs caches the key graphs below: building one walks up to
// 262 144 generated tuples.
var flickrGraphs = map[[3]int64]*partition.Graph{}

// flickrGraph is the key graph the optimizer partitions for a Flickr
// stream: tuples of workload.Flickr with the given tag vocabulary and
// seed, counted exactly as tag -> country pairs, folded through
// keygraph.AddPairs and handed over by CSR, as core does.
func flickrGraph(tags, tuples int, seed int64) *partition.Graph {
	key := [3]int64{int64(tags), int64(tuples), seed}
	if g, ok := flickrGraphs[key]; ok {
		return g
	}
	cfg := workload.DefaultFlickrConfig()
	cfg.Tags = tags
	cfg.Seed = seed
	gen := workload.NewFlickr(cfg)
	counts := make(map[[2]string]uint64)
	for i := 0; i < tuples; i++ {
		t := gen.Next()
		counts[[2]string{t.Values[0], t.Values[1]}]++
	}
	pairs := make([]spacesaving.PairCounter, 0, len(counts))
	for p, c := range counts {
		pairs = append(pairs, spacesaving.PairCounter{In: p[0], Out: p[1], Count: c})
	}
	kg := keygraph.New()
	kg.AddPairs("tag", "country", pairs, 0)
	_, weights, adj := kg.CSR()
	g := &partition.Graph{Weights: weights, Adj: adj}
	flickrGraphs[key] = g
	return g
}

// TestPartitionFlickrGolden pins the flat partitioner on the graph shape
// the Flickr workloads hand it: a few hundred-edge country vertices
// against a thousand tag vertices. The digests (FNV-1a over Result.Parts)
// and cuts move only when the partitioner's decisions do.
func TestPartitionFlickrGolden(t *testing.T) {
	golden := []struct {
		seed   int64
		digest uint64
		cut    uint64
	}{
		{1, 0xadfc95518515ba9c, 46787},
		{2, 0xf1b101f4edf31981, 42760},
		{3, 0x1be6ba36fefa6861, 48982},
	}
	for _, want := range golden {
		g := flickrGraph(1000, 131072, want.seed)
		res, err := partition.Partition(g, partition.Options{K: 4, Alpha: partition.DefaultAlpha, Seed: want.seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := partition.PartsDigest(res.Parts); got != want.digest || res.CutWeight != want.cut {
			t.Errorf("seed %d: digest %#x cut %d, want %#x cut %d",
				want.seed, got, res.CutWeight, want.digest, want.cut)
		}
	}
}

// TestPartitionQualityNoWorse holds the partitioner's cut to what the
// full, unbounded FM refinement reached: the cut summed over seeds 1-8
// may not rise above the recorded sum on any graph family. That
// refinement met the balance bound on every seed of every family, so
// every result must meet it too.
func TestPartitionQualityNoWorse(t *testing.T) {
	const seeds = 8
	random := func(s int64) *partition.Graph { return partition.RandomGraph(rand.New(rand.NewSource(s)), 2000) }
	families := []struct {
		name  string
		k     int
		graph func(seed int64) *partition.Graph
		cut   uint64 // summed over the seeds
	}{
		{"flickr 1000x131072", 4, func(s int64) *partition.Graph { return flickrGraph(1000, 131072, s) }, 375657},
		{"flickr 1000x262144", 4, func(s int64) *partition.Graph { return flickrGraph(1000, 262144, s) }, 768778},
		{"random n=2000 K=4", 4, random, 165588},
		{"random n=2000 K=8", 8, random, 207270},
	}
	for _, f := range families {
		var cut uint64
		for s := int64(1); s <= seeds; s++ {
			res, err := partition.Partition(f.graph(s), partition.Options{K: f.k, Alpha: partition.DefaultAlpha, Seed: s})
			if err != nil {
				t.Fatal(err)
			}
			cut += res.CutWeight
			if res.Imbalance > partition.DefaultAlpha {
				t.Errorf("%s seed %d: imbalance %.4f over the bound", f.name, s, res.Imbalance)
			}
		}
		t.Logf("%s: summed cut %d, recorded %d (%+.2f%%)", f.name, cut, f.cut,
			100*(float64(cut)/float64(f.cut)-1))
		if cut > f.cut {
			t.Errorf("%s: summed cut %d, recorded %d", f.name, cut, f.cut)
		}
	}
}

// BenchmarkPartitionFlickr partitions the Flickr key graph 4 ways at the
// benchmark workload's vocabulary and at the generator's default. cut is
// the same on every iteration (one graph, one seed), so it gates the
// partition's quality beside its time.
func BenchmarkPartitionFlickr(b *testing.B) {
	for _, tags := range []int{1000, 5000} {
		g := flickrGraph(tags, 131072, 1)
		b.Run(fmt.Sprintf("tags=%d", tags), func(b *testing.B) {
			b.ReportAllocs()
			var cut uint64
			for i := 0; i < b.N; i++ {
				res, err := partition.Partition(g, partition.Options{K: 4, Alpha: partition.DefaultAlpha, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				cut = res.CutWeight
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}
