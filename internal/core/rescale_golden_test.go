package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"github.com/locastream/locastream/internal/engine"
	"github.com/locastream/locastream/internal/routing"
	"github.com/locastream/locastream/internal/spacesaving"
)

// goldenInput builds a seeded rescale input on a 4-server placement: 48
// keys per operator laid out over the From servers, a third of them
// resolved by OwnerOf instead of a table entry, and (unless noStats) a
// pair window that mixes heavy diagonal pairs with random cross pairs.
func goldenInput(t testing.TB, seed int64, from, to []int, noStats bool) PlanInput {
	t.Helper()
	const servers, keys = 4, 48
	rng := rand.New(rand.NewSource(seed))
	place := planPlace(t, servers)
	tables := map[string]*routing.Table{
		"A": {Assign: map[string]int{}},
		"B": {Assign: map[string]int{}},
	}
	hashed := map[[2]string]int{}
	extra := map[string][]string{}
	for _, op := range []string{"A", "B"} {
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("k%02d", i)
			inst := from[rng.Intn(len(from))]
			if i%3 == 2 {
				hashed[[2]string{op, k}] = inst
				extra[op] = append(extra[op], k)
				continue
			}
			tables[op].Assign[k] = inst
		}
	}
	in := PlanInput{
		Place:     place,
		To:        mask(servers, to...),
		Tables:    tables,
		ExtraKeys: extra,
		OwnerOf: func(op, key string) (int, bool) {
			inst, ok := hashed[[2]string{op, key}]
			return inst, ok
		},
		StatefulOps: []string{"A", "B"},
		Seed:        seed,
	}
	if from != nil && len(from) < servers {
		in.From = mask(servers, from...)
	}
	if !noStats {
		st := engine.PairStat{FromOp: "A", ToOp: "B"}
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("k%02d", i)
			st.Pairs = append(st.Pairs, spacesaving.PairCounter{In: k, Out: k, Count: uint64(20 + rng.Intn(80))})
			o := fmt.Sprintf("k%02d", rng.Intn(keys))
			st.Pairs = append(st.Pairs, spacesaving.PairCounter{In: k, Out: o, Count: uint64(1 + rng.Intn(30))})
		}
		in.Stats = []engine.PairStat{st}
	}
	return in
}

// planDigest is the FNV-1a digest of everything a rescale plan decides:
// tables, state moves, adopted keys, split re-owns and the move bound.
func planDigest(tables map[string]*routing.Table, moves map[string][]engine.KeyMove,
	assigned map[string]map[string]int, reowns fmt.Stringer, bound int) string {
	h := fnv.New64a()
	for _, op := range sortedKeys(tables) {
		t := tables[op]
		for _, k := range sortedKeys(t.Assign) {
			fmt.Fprintf(h, "T %s %s %d\n", op, k, t.Assign[k])
		}
	}
	for _, op := range sortedKeys(moves) {
		for _, m := range moves[op] {
			fmt.Fprintf(h, "M %s %s %d %d\n", op, m.Key, m.From, m.To)
		}
	}
	for _, op := range sortedKeys(assigned) {
		for _, k := range sortedKeys(assigned[op]) {
			fmt.Fprintf(h, "A %s %s %d\n", op, k, assigned[op][k])
		}
	}
	fmt.Fprintf(h, "S %s\nB %d\n", reowns, bound)
	return fmt.Sprintf("%016x", h.Sum64())
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

type reownList []SplitReown

func (r reownList) String() string { return fmt.Sprintf("%+v", []SplitReown(r)) }

// TestRescaleGolden pins PlanRescale's output — tables, moves, adopted
// keys, split re-owns, bound — to digests recorded at the commit before
// the planner moved into this package, so the fold (one matcher, one
// adopter, one graph hand-off, one balance constant) is proven to plan
// exactly what internal/scale planned.
func TestRescaleGolden(t *testing.T) {
	all := []int{0, 1, 2, 3}
	scenarios := []struct {
		name     string
		from, to []int
		maxMoves int
		noStats  bool
		split    bool
	}{
		{name: "down-4-3", from: all, to: []int{0, 1, 2}},
		{name: "down-4-2", from: all, to: []int{0, 1}},
		{name: "up-3-4", from: []int{0, 1, 2}, to: all},
		{name: "up-3-4-max5", from: []int{0, 1, 2}, to: all, maxMoves: 5},
		{name: "up-2-4", from: []int{0, 1}, to: all},
		{name: "repair-dead-1", from: nil, to: []int{0, 2, 3}},
		{name: "split-owner-leaves", from: all, to: []int{0, 1, 2}, split: true},
		{name: "down-4-3-nostats", from: all, to: []int{0, 1, 2}, noStats: true},
		{name: "up-3-4-nostats", from: []int{0, 1, 2}, to: all, noStats: true},
	}
	for _, sc := range scenarios {
		for _, seed := range []int64{1, 2, 3} {
			name := fmt.Sprintf("%s/seed%d", sc.name, seed)
			from := sc.from
			if from == nil {
				from = all // repair: keys everywhere, From left nil
			}
			in := goldenInput(t, seed, from, sc.to, sc.noStats)
			if sc.from == nil {
				in.From = nil
			}
			in.MaxMoves = sc.maxMoves
			if sc.split {
				in.Splits = []engine.SplitKeyInfo{
					{Op: "B", Key: "k00", Replicas: []int{3, 1}}, // owner leaves
					{Op: "B", Key: "k01", Replicas: []int{0, 3}}, // replica leaves
					{Op: "A", Key: "k03", Replicas: []int{3}},    // every replica leaves
				}
			}
			plan, err := PlanRescale(in)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := planDigest(plan.Tables, plan.Moves, plan.Assigned, reownList(plan.SplitReowns), plan.Bound)
			if want, ok := rescaleGolden[name]; !ok {
				t.Errorf("%q: %q,", name, got)
			} else if got != want {
				t.Errorf("%s: digest %s, recorded %s", name, got, want)
			}
		}
	}
}

// rescaleGolden was recorded at d6ddaed (internal/scale, before the fold)
// by running this test against an empty table.
var rescaleGolden = map[string]string{
	"down-4-3/seed1":           "848833085f3c1f90",
	"down-4-3/seed2":           "f38d3b7eaba2e586",
	"down-4-3/seed3":           "3c7d1fa1a1e49120",
	"down-4-2/seed1":           "e7fe726bd04165dc",
	"down-4-2/seed2":           "3e5c9cc86bdd9764",
	"down-4-2/seed3":           "27cded96a33aabc1",
	"up-3-4/seed1":             "c0b614da95fb4318",
	"up-3-4/seed2":             "d1d0596538e9c41b",
	"up-3-4/seed3":             "f3827c13b62b71da",
	"up-3-4-max5/seed1":        "208eaea771c86185",
	"up-3-4-max5/seed2":        "173ee0076915b39b",
	"up-3-4-max5/seed3":        "fa77935e7e8de16a",
	"up-2-4/seed1":             "e352458221bfc6c6",
	"up-2-4/seed2":             "88c53731b3b2ca1e",
	"up-2-4/seed3":             "674f7ed1f7919782",
	"repair-dead-1/seed1":      "a61301651639ff06",
	"repair-dead-1/seed2":      "3053b6992b2667bd",
	"repair-dead-1/seed3":      "b6909b43e88b297f",
	"split-owner-leaves/seed1": "429eb89ae00b35db",
	"split-owner-leaves/seed2": "db1d402756cd40a4",
	"split-owner-leaves/seed3": "42b5af6f27a0e172",
	"down-4-3-nostats/seed1":   "5b710d6b3b2d3437",
	"down-4-3-nostats/seed2":   "5b8b59edd5367164",
	"down-4-3-nostats/seed3":   "18ee7221d8dfccb9",
	"up-3-4-nostats/seed1":     "adff941c18c88f3e",
	"up-3-4-nostats/seed2":     "b7d9fa8b21621e0f",
	"up-3-4-nostats/seed3":     "cae1992767a88f8a",
}
