package control

import "testing"

func TestScalerValidationAndDefaults(t *testing.T) {
	if _, err := NewScaler(ScaleOptions{Min: 1, Max: 4}); err == nil {
		t.Error("zero target load accepted")
	}
	if _, err := NewScaler(ScaleOptions{Min: 4, Max: 2, TargetLoad: 100}); err == nil {
		t.Error("max below min accepted")
	}
	s, err := NewScaler(ScaleOptions{Max: 4, TargetLoad: 100})
	if err != nil {
		t.Fatal(err)
	}
	o := s.Options()
	if o.Min != 1 || o.Confirm != 2 || o.Cooldown != 1 {
		t.Fatalf("defaults = %+v, want Min 1 Confirm 2 Cooldown 1", o)
	}
	// Negative cooldown means "no cooldown", not the default.
	s, err = NewScaler(ScaleOptions{Max: 4, TargetLoad: 100, Cooldown: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Options().Cooldown; got != 0 {
		t.Fatalf("negative cooldown = %d, want 0", got)
	}
}

func TestScalerDesiredClamps(t *testing.T) {
	s, err := NewScaler(ScaleOptions{Min: 2, Max: 6, TargetLoad: 100})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		traffic uint64
		want    int
	}{
		{0, 2},     // clamped up to Min
		{100, 2},   // exactly one server's worth, still Min
		{201, 3},   // ceil
		{250, 3},   // ceil
		{600, 6},   // exactly Max
		{10000, 6}, // clamped down to Max
	}
	for _, c := range cases {
		if got := s.Desired(c.traffic); got != c.want {
			t.Errorf("Desired(%d) = %d, want %d", c.traffic, got, c.want)
		}
	}
}

// TestScalerConfirmThenFire: a sustained overload fires only after
// Confirm consecutive windows agree, and the fire arms the cooldown.
func TestScalerConfirmThenFire(t *testing.T) {
	s, err := NewScaler(ScaleOptions{Min: 1, Max: 8, TargetLoad: 100, Confirm: 2, Cooldown: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, fired := s.Observe(900, 4); fired {
		t.Fatal("fired after one window, want confirmation first")
	}
	if got := s.Streak(); got != 1 {
		t.Fatalf("streak = %d, want 1", got)
	}
	target, fired := s.Observe(900, 4)
	if !fired || target != 8 {
		t.Fatalf("second window = (%d, %v), want fire at 8", target, fired)
	}
	if s.CooldownLeft() != 1 || s.Streak() != 0 {
		t.Fatalf("after fire: cooldown %d streak %d, want 1 and 0", s.CooldownLeft(), s.Streak())
	}
	// The cooldown window is consumed without a decision.
	if _, fired := s.Observe(900, 8); fired {
		t.Fatal("fired inside cooldown")
	}
	// Width matches demand now: streaks stay flat.
	if _, fired := s.Observe(750, 8); fired {
		t.Fatal("fired at matched width")
	}
	if s.Streak() != 0 {
		t.Fatalf("streak = %d at matched width, want 0", s.Streak())
	}
}

// TestScalerTransientSpikeSuppressed: one bursty window between calm
// ones never fires — the equal-width window resets the streak.
func TestScalerTransientSpikeSuppressed(t *testing.T) {
	s, err := NewScaler(ScaleOptions{Min: 1, Max: 8, TargetLoad: 100, Confirm: 2, Cooldown: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, fired := s.Observe(900, 4); fired {
			t.Fatalf("round %d: spike fired", i)
		}
		if _, fired := s.Observe(400, 4); fired {
			t.Fatalf("round %d: calm window fired", i)
		}
		if s.Streak() != 0 {
			t.Fatalf("round %d: streak %d after calm window, want 0", i, s.Streak())
		}
	}
}

// TestScalerDirectionFlipResetsStreak: an up-window followed by
// down-windows restarts confirmation in the new direction.
func TestScalerDirectionFlipResetsStreak(t *testing.T) {
	s, err := NewScaler(ScaleOptions{Min: 1, Max: 8, TargetLoad: 100, Confirm: 2, Cooldown: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Observe(900, 4)
	if s.Streak() != 1 {
		t.Fatalf("streak = %d, want +1", s.Streak())
	}
	if _, fired := s.Observe(100, 4); fired {
		t.Fatal("flip window fired")
	}
	if s.Streak() != -1 {
		t.Fatalf("streak = %d after flip, want -1", s.Streak())
	}
	target, fired := s.Observe(100, 4)
	if !fired || target != 1 {
		t.Fatalf("confirmed shrink = (%d, %v), want fire at 1", target, fired)
	}
}

// TestScalerBackToBackDecisionsInsideCooldown: a demand reversal right
// after a decision waits out the cooldown before the next decision can
// even start confirming.
func TestScalerBackToBackDecisionsInsideCooldown(t *testing.T) {
	s, err := NewScaler(ScaleOptions{Min: 1, Max: 8, TargetLoad: 100, Confirm: 1, Cooldown: 2})
	if err != nil {
		t.Fatal(err)
	}
	target, fired := s.Observe(900, 4)
	if !fired || target != 8 {
		t.Fatalf("first decision = (%d, %v), want fire at 8", target, fired)
	}
	// Demand collapses immediately; both cooldown windows suppress.
	for i := 0; i < 2; i++ {
		if _, fired := s.Observe(50, 8); fired {
			t.Fatalf("cooldown window %d fired", i)
		}
	}
	if s.CooldownLeft() != 0 {
		t.Fatalf("cooldown left = %d, want 0", s.CooldownLeft())
	}
	target, fired = s.Observe(50, 8)
	if !fired || target != 1 {
		t.Fatalf("post-cooldown decision = (%d, %v), want fire at 1", target, fired)
	}
}

// TestScalerNoteScaled: an externally-driven scale (App.ScaleTo)
// restarts hysteresis exactly like an internal decision.
func TestScalerNoteScaled(t *testing.T) {
	s, err := NewScaler(ScaleOptions{Min: 1, Max: 8, TargetLoad: 100, Confirm: 3, Cooldown: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Observe(900, 4)
	s.Observe(900, 4)
	if s.Streak() != 2 {
		t.Fatalf("streak = %d, want 2", s.Streak())
	}
	s.NoteScaled()
	if s.Streak() != 0 || s.CooldownLeft() != 2 {
		t.Fatalf("after NoteScaled: streak %d cooldown %d, want 0 and 2", s.Streak(), s.CooldownLeft())
	}
	if _, fired := s.Observe(900, 4); fired {
		t.Fatal("fired inside externally-armed cooldown")
	}
}
