package main

import (
	"fmt"
	"math/rand"

	"github.com/locastream/locastream"
	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/workload"
)

// Tuple layout shared by every workload: field 0 keys operator A, field 1
// keys operator B, field 2 is the sample tag (empty on unsampled tuples)
// and remote-sat carries its payload in field 3.
const (
	fieldA   = 0
	fieldB   = 1
	fieldTag = 2
)

// spec is one named workload: a tuple stream, a routing mode and the two
// open-loop rates. Every workload runs the same phase schedule (see
// schedule), so every end-to-end metric exists on every workload.
type spec struct {
	name string
	why  string
	// mode is how fields-grouped edges route.
	mode engine.FieldsMode
	// learnInSetup runs one App.Reconfigure() during set-up, so the
	// measured phases start on learned tables.
	learnInSetup bool
	// loRate and hiRate are the open-loop rates in tuples/s, about 20 % and
	// 40 % of the workload's closed-loop rate on a 2-core box: high enough
	// to queue, low enough that no backlog grows.
	loRate, hiRate int
	// roundsPerPass sets how often a Reconfigure round starts: that many
	// times, evenly spaced, per pass of the replayed pool. The tuples
	// between two starts are the round's statistics window, and the time
	// of a round follows the key graph in that window. On the pairs
	// streams any window of some thousand tuples holds the same graph. On
	// the Flickr streams the graph grows with the window, so a round
	// starts once per pass: every round of a run then sees the same
	// pairs equally often.
	roundsPerPass int
	// quietRounds pauses the open loop while a round runs. A round on the
	// pairs streams is 12 ms of short messages between the manager and
	// the executors, which queue behind whatever tuples the executors
	// hold: beside the load its time followed the speed of the machine
	// twice as strongly as throughput does, paused less than throughput.
	// A round on the Flickr streams is a third of a second of
	// partitioning and runs beside the load.
	quietRounds bool
	// locality is the validity window of the fields-edge locality over
	// the measured open-loop phases; a run outside it did not exercise
	// the layers the workload is meant to.
	minLocality, maxLocality float64
	// pool builds n tuples from the seed.
	pool func(seed int64, n int) []locastream.Tuple
}

// pairsKeys is the key count per field of the pairs stream.
const pairsKeys = 1024

// payloadBytes is remote-sat's per-tuple payload, cut from a random
// buffer of noiseBytes at multiples of noiseStride (a prime above the
// payload size, so windows realign only after the buffer has wrapped
// many times).
const (
	payloadBytes = 512
	noiseBytes   = 8 << 20
	noiseStride  = 521
)

var specs = []spec{
	{
		name:         "local-sat",
		why:          "pairs stream on learned tables: every hop stays in memory, so engine, routing, spacesaving and topology do all the work and transport none; a transport change must not move it",
		mode:         engine.FieldsTable,
		learnInSetup: true,
		loRate:       300_000, hiRate: 600_000,
		roundsPerPass: 8, quietRounds: true,
		minLocality: 0.98, maxLocality: 1,
		pool: func(seed int64, n int) []locastream.Tuple { return pairsPool(seed, n, 0) },
	},
	{
		name:   "remote-sat",
		why:    "pairs stream with a 512 B incompressible payload on worst-case routing: every A-to-B hop crosses TCP, so transport does most of the work (Fig. 9's tuple-size axis)",
		mode:   engine.FieldsWorstCase,
		loRate: 90_000, hiRate: 180_000,
		// The low rate is under a third of local-sat's, so rounds that
		// start about as often have half the window.
		roundsPerPass: 16, quietRounds: true,
		minLocality: 0, maxLocality: 0,
		pool: func(seed int64, n int) []locastream.Tuple { return pairsPool(seed, n, payloadBytes) },
	},
	{
		name:   "flickr-rate",
		why:    "Zipf tag/country stream on hash routing: skewed keys, mixed local and remote hops, frames flushed by the 1 ms timer; the hash baseline of Figs. 13/14",
		mode:   engine.FieldsHash,
		loRate: 200_000, hiRate: 400_000,
		roundsPerPass: 1,
		minLocality:   0.1, maxLocality: 0.5,
		pool: flickrPool,
	},
	{
		name:   "flickr-reconf",
		why:    "same Zipf stream starting on hash fallback, then on the tables Reconfigure learns under load: core, keygraph, partition and the migration wave run beside the data plane (Fig. 13's step)",
		mode:   engine.FieldsTable,
		loRate: 200_000, hiRate: 400_000,
		roundsPerPass: 1,
		minLocality:   0.5, maxLocality: 1,
		pool: flickrPool,
	},
}

// routingOption is the public option that selects sp.mode (nil for the
// default, routing tables).
func (sp spec) routingOption() locastream.Option {
	switch sp.mode {
	case engine.FieldsHash:
		return locastream.WithHashRouting()
	case engine.FieldsWorstCase:
		return locastream.WithWorstCaseRouting()
	}
	return nil
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// flickrTags is the tag vocabulary of both Flickr workloads. The
// partitioner is quadratic in the key count: at the generator's default
// of 5000 tags one Reconfigure under load takes 5-17 s on two cores and
// does not repeat; at 1000 tags (1150 keys) it takes about 0.2 s, so the
// rounds phase holds some 25 of them and their typical length is steady.
const flickrTags = 1000

func flickrPool(seed int64, n int) []locastream.Tuple {
	cfg := workload.DefaultFlickrConfig()
	cfg.Tags = flickrTags
	cfg.Seed = seed
	gen := workload.NewFlickr(cfg)
	pool := make([]locastream.Tuple, n)
	for i := range pool {
		t := gen.Next()
		pool[i] = locastream.Tuple{Values: []string{t.Values[0], t.Values[1], ""}}
	}
	return pool
}

// pairsPool generalises the paper's §4.2 stream to pairsKeys keys per
// field: field 0 is drawn uniformly and field 1 is its fixed partner, so
// a partition that co-locates partners reaches locality 1. With
// payload > 0 every tuple carries its own window of a seeded random
// buffer. Windows of neighbouring tuples never overlap and no two are
// equal, so neither LZ inside a frame nor the wire dictionary can remove
// the payload.
func pairsPool(seed int64, n, payload int) []locastream.Tuple {
	rng := rand.New(rand.NewSource(seed))
	partner := rng.Perm(pairsKeys)
	a := make([]string, pairsKeys)
	b := make([]string, pairsKeys)
	for i := range a {
		a[i] = fmt.Sprintf("a%04d", i)
		b[i] = fmt.Sprintf("b%04d", i)
	}
	var noise string
	if payload > 0 {
		buf := make([]byte, noiseBytes)
		rng.Read(buf)
		noise = string(buf)
	}
	pool := make([]locastream.Tuple, n)
	for i := range pool {
		k := rng.Intn(pairsKeys)
		vals := []string{a[k], b[partner[k]], ""}
		if payload > 0 {
			off := i * noiseStride % (noiseBytes - payload)
			vals = append(vals, noise[off:off+payload])
		}
		pool[i] = locastream.Tuple{Values: vals}
	}
	return pool
}

// reference returns the per-key counts operators A and B must hold after
// the first injected tuples of the cyclically replayed pool.
func reference(pool []locastream.Tuple, injected uint64) (a, b map[string]uint64) {
	a = make(map[string]uint64)
	b = make(map[string]uint64)
	full, part := injected/uint64(len(pool)), injected%uint64(len(pool))
	for i, t := range pool {
		c := full
		if uint64(i) < part {
			c++
		}
		if c > 0 {
			a[t.Values[fieldA]] += c
			b[t.Values[fieldB]] += c
		}
	}
	return a, b
}
