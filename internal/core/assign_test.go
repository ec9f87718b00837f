package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// sortedGreedyMatch is internal/scale's matchPartsToServers as it stood
// before the fold, kept as the reference: positive overlaps sorted by
// (weight desc, row, column), taken greedily, then leftover rows to the
// lowest free column.
func sortedGreedyMatch(overlap [][]uint64) []int {
	k := len(overlap)
	type pair struct {
		p, q int
		w    uint64
	}
	var pairs []pair
	for p := range overlap {
		for q, w := range overlap[p] {
			if w > 0 {
				pairs = append(pairs, pair{p, q, w})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].w != pairs[j].w {
			return pairs[i].w > pairs[j].w
		}
		if pairs[i].p != pairs[j].p {
			return pairs[i].p < pairs[j].p
		}
		return pairs[i].q < pairs[j].q
	})
	target := make([]int, k)
	for p := range target {
		target[p] = -1
	}
	used := make([]bool, k)
	for _, pr := range pairs {
		if target[pr.p] == -1 && !used[pr.q] {
			target[pr.p], used[pr.q] = pr.q, true
		}
	}
	next := 0
	for p := range target {
		if target[p] != -1 {
			continue
		}
		for used[next] {
			next++
		}
		target[p], used[next] = next, true
	}
	return target
}

// TestMatchPartsProperties: over random overlap matrices and random size
// classes the greedy match equals the pre-fold matcher's when every pair
// is compatible, is deterministic and is a bijection inside every class;
// and when the overlap is a permutation matrix scaled by arbitrary
// positive weights (the fresh partition IS the old one, relabeled) it
// recovers that permutation exactly — a pure relabeling moves no key.
func TestMatchPartsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(8)
		class := make([]int, k)
		for i := range class {
			class[i] = rng.Intn(1 + rng.Intn(3))
		}
		compatible := func(p, q int) bool { return class[p] == class[q] }
		overlap := make([][]uint64, k)
		for p := range overlap {
			overlap[p] = make([]uint64, k)
			for q := range overlap[p] {
				if rng.Intn(3) > 0 { // a third of the cells stay zero
					overlap[p][q] = uint64(rng.Intn(6)) // few values: many ties
				}
			}
		}
		if got, want := matchParts(overlap, nil), sortedGreedyMatch(overlap); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: %v, the pre-fold matcher gave %v on %v", trial, got, want, overlap)
		}
		perm := matchParts(overlap, compatible)
		if again := matchParts(overlap, compatible); !reflect.DeepEqual(perm, again) {
			t.Fatalf("trial %d: not deterministic: %v then %v", trial, perm, again)
		}
		seen := make([]bool, k)
		for p, q := range perm {
			if q < 0 || q >= k || seen[q] {
				t.Fatalf("trial %d: %v is not a bijection (classes %v)", trial, perm, class)
			}
			seen[q] = true
			if class[p] != class[q] {
				t.Fatalf("trial %d: row %d (class %d) matched column %d (class %d)", trial, p, class[p], q, class[q])
			}
		}

		// A relabeled partition: row p overlaps only column want[p].
		want := rng.Perm(k)
		relabeled := make([][]uint64, k)
		for p := range relabeled {
			relabeled[p] = make([]uint64, k)
			relabeled[p][want[p]] = uint64(1 + rng.Intn(100))
		}
		if got := matchParts(relabeled, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: relabeling %v recovered as %v", trial, want, got)
		}
	}
}

// TestMatchPartsTieAndZeroRules pins the two tie rules both callers rely
// on: equal overlaps go to the lowest (row, column), and rows with no
// overlap take the lowest free compatible column in row order.
func TestMatchPartsTieAndZeroRules(t *testing.T) {
	got := matchParts([][]uint64{
		{0, 0, 0, 0},
		{0, 5, 5, 0},
		{0, 5, 5, 0},
		{0, 0, 0, 0},
	}, nil)
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ties: %v, want %v", got, want)
	}
	// Row 0 has nothing anywhere; columns 0 and 3 are its class, 0 is
	// taken by row 3's real overlap, so it lands on 3.
	class := []int{0, 1, 1, 0}
	got = matchParts([][]uint64{
		{0, 0, 0, 0},
		{0, 0, 7, 0},
		{0, 0, 0, 0},
		{9, 0, 0, 0},
	}, func(p, q int) bool { return class[p] == class[q] })
	if want := []int{3, 2, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("zero rows: %v, want %v", got, want)
	}
}
