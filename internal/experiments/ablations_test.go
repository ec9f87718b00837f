package experiments

import (
	"sync"
	"testing"
)

// smokeScale makes the ablation smoke tests fast; the shape-sensitive
// assertions live in the dedicated tests above.
const smokeScale = Scale(0.02)

var (
	smokeOnce sync.Once
	smokeFigs map[string][]Figure
	smokeErr  error
)

// smokeAblations runs each ablation once, through FigureByID under the ids
// AllAblations uses, and shares the result between the smoke tests below.
func smokeAblations(t *testing.T) map[string][]Figure {
	t.Helper()
	smokeOnce.Do(func() {
		smokeFigs = make(map[string][]Figure, len(ablationIDs))
		for _, id := range ablationIDs {
			figs, err := FigureByID(id, smokeScale)
			if err != nil {
				smokeErr = err
				return
			}
			smokeFigs[id] = figs
		}
	})
	if smokeErr != nil {
		t.Fatal(smokeErr)
	}
	return smokeFigs
}

func TestAblationsRunAndProduceSeries(t *testing.T) {
	if len(ablationIDs) != 5 {
		t.Fatalf("%d ablations, want 5", len(ablationIDs))
	}
	for _, id := range ablationIDs {
		for _, fig := range smokeAblations(t)[id] {
			if len(fig.Series) == 0 {
				t.Errorf("%s: no series", fig.ID)
			}
			for _, s := range fig.Series {
				if len(s.Points) == 0 {
					t.Errorf("%s/%s: no points", fig.ID, s.Label)
				}
				for _, p := range s.Points {
					if p.Y < 0 {
						t.Errorf("%s/%s: negative value %f", fig.ID, s.Label, p.Y)
					}
				}
			}
		}
	}
}

func TestFigureByIDCoversAblations(t *testing.T) {
	figsByID := smokeAblations(t)
	for _, id := range []string{
		"ablation-refinement", "ablation-sketch", "ablation-alpha",
		"ablation-period", "ablation-rack",
	} {
		figs := figsByID[id]
		if len(figs) != 1 {
			t.Fatalf("%s: %d figures", id, len(figs))
		}
		if figs[0].ID != id {
			t.Errorf("%s: figure id %q", id, figs[0].ID)
		}
	}
}

func TestAblationRefinementNeverWorse(t *testing.T) {
	fig, err := AblationRefinement(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	withRef := seriesByLabel(t, fig, "multilevel+FM").Sorted()
	withoutRef := seriesByLabel(t, fig, "greedy-only").Sorted()
	for i := range withRef {
		// Allow small noise; refinement should not lose much and usually
		// wins clearly.
		if withRef[i].Y+0.1 < withoutRef[i].Y {
			t.Errorf("parallelism %.0f: FM %.3f clearly below greedy %.3f",
				withRef[i].X, withRef[i].Y, withoutRef[i].Y)
		}
	}
}
