package partition

import (
	"math/rand"
	"testing"
)

// TestRefinerConnStaysExact checks the refiner's incremental state — the
// connectivity table and the part loads — against a from-scratch recount
// after every FM pass and every rebalance. The graphs are random, half
// with pinned vertices and half with unequal target fractions, and each
// starts from a skewed assignment so that rebalance has work to do. One
// refiner serves a coarse level and then the finer one, as in Partition.
func TestRefinerConnStaysExact(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 20 + rng.Intn(400)
		k := 2 + rng.Intn(6)
		fine := normalize(randomGraph(rng, n))
		opts := Options{K: k, Alpha: 1.03}
		levels := []*Graph{fine}
		if trial%2 == 0 {
			opts.Pinned = make([]int, n)
			for v := range opts.Pinned {
				opts.Pinned[v] = -1
				if rng.Intn(4) == 0 {
					opts.Pinned[v] = rng.Intn(k)
				}
			}
		} else {
			opts.TargetFractions = make([]float64, k)
			sum := 0.0
			for p := range opts.TargetFractions {
				opts.TargetFractions[p] = 0.5 + rng.Float64()
				sum += opts.TargetFractions[p]
			}
			for p := range opts.TargetFractions {
				opts.TargetFractions[p] /= sum
			}
			if c, ok := coarsen(fine, rng); ok {
				levels = []*Graph{c.g, fine}
			}
		}

		r := newRefiner(n, opts)
		for _, g := range levels {
			parts := make([]int, g.NumVertices())
			for v := range parts {
				switch {
				case g == fine && opts.Pinned != nil && opts.Pinned[v] >= 0:
					parts[v] = opts.Pinned[v]
				case rng.Intn(2) == 0:
					parts[v] = 0 // overload part 0
				default:
					parts[v] = rng.Intn(k)
				}
			}
			r.setLevel(g, parts)
			checkRefiner(t, r, trial, "setLevel")
			for pass := 0; pass < 3; pass++ {
				r.fmPass()
				checkRefiner(t, r, trial, "fmPass")
			}
			r.rebalance()
			checkRefiner(t, r, trial, "rebalance")
		}
	}
}

func checkRefiner(t *testing.T, r *refiner, trial int, stage string) {
	t.Helper()
	k := r.opts.K
	loads := make([]uint64, k)
	for v, p := range r.parts {
		loads[p] += r.g.Weights[v]
	}
	for p := range loads {
		if loads[p] != r.loads[p] {
			t.Fatalf("trial %d after %s: load of part %d is %d, recount %d", trial, stage, p, r.loads[p], loads[p])
		}
	}
	if len(r.conn) != r.g.NumVertices()*k {
		t.Fatalf("trial %d after %s: table of %d cells for %d vertices", trial, stage, len(r.conn), r.g.NumVertices())
	}
	for v, list := range r.g.Adj {
		want := make([]uint64, k)
		for _, a := range list {
			want[r.parts[a.To]] += a.Weight
		}
		for p, w := range want {
			if got := r.conn[v*k+p]; got != w {
				t.Fatalf("trial %d after %s: conn[%d][%d] = %d, recount %d", trial, stage, v, p, got, w)
			}
		}
	}
	if r.opts.Pinned != nil && len(r.parts) == len(r.opts.Pinned) {
		for v, p := range r.opts.Pinned {
			if p >= 0 && r.parts[v] != p {
				t.Fatalf("trial %d after %s: pinned vertex %d moved to %d", trial, stage, v, r.parts[v])
			}
		}
	}
}
