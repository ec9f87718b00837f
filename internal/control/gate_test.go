package control

import "testing"

// TestGate drives one gate per case through a script of steps and
// checks, after every step, what the step returned and the state the
// status structs expose (streak, cooldownLeft).
func TestGate(t *testing.T) {
	type step struct {
		op           string // "cool", "obs+", "obs-", "obs0", "fire", "reset"
		want         bool   // return value of cool/observe
		streak, left int    // state after the step
	}
	cases := []struct {
		name              string
		confirm, cooldown int
		steps             []step
	}{
		{
			name: "confirm streak", confirm: 3,
			steps: []step{
				{"obs+", false, 1, 0},
				{"obs+", false, 2, 0},
				{"obs+", true, 3, 0},
			},
		},
		{
			name: "confirm 1 is ready on the first window", confirm: 1,
			steps: []step{{"obs-", true, -1, 0}},
		},
		{
			name: "direction flip restarts the streak", confirm: 2,
			steps: []step{
				{"obs+", false, 1, 0},
				{"obs-", false, -1, 0},
				{"obs-", true, -2, 0},
				{"obs+", false, 1, 0},
			},
		},
		{
			name: "a 0 observation restarts the streak", confirm: 2,
			steps: []step{
				{"obs+", false, 1, 0},
				{"obs0", false, 0, 0},
				{"obs+", false, 1, 0},
				{"obs+", true, 2, 0},
			},
		},
		{
			name: "ready without fire keeps counting", confirm: 2, cooldown: 3,
			steps: []step{
				{"obs-", false, -1, 0},
				{"obs-", true, -2, 0},
				{"obs-", true, -3, 0}, // held by the caller: still ready, no cooldown armed
				{"fire", false, 0, 3},
			},
		},
		{
			name: "cooldown is consumed one tick at a time", confirm: 1, cooldown: 2,
			steps: []step{
				{"cool", false, 0, 0}, // nothing to consume before the first fire
				{"obs+", true, 1, 0},
				{"fire", false, 0, 2},
				{"cool", true, 0, 1},
				{"cool", true, 0, 0},
				{"cool", false, 0, 0},
				{"obs+", true, 1, 0},
			},
		},
		{
			name: "reset zeroes the streak and arms nothing", confirm: 3, cooldown: 2,
			steps: []step{
				{"obs+", false, 1, 0},
				{"obs+", false, 2, 0},
				{"reset", false, 0, 0},
				{"cool", false, 0, 0},
				{"obs+", false, 1, 0},
			},
		},
		{
			name: "reset leaves a running cooldown alone", confirm: 1, cooldown: 2,
			steps: []step{
				{"obs+", true, 1, 0},
				{"fire", false, 0, 2},
				{"reset", false, 0, 2},
				{"cool", true, 0, 1},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := gate{confirm: tc.confirm, cooldown: tc.cooldown}
			for i, st := range tc.steps {
				var got bool
				switch st.op {
				case "cool":
					got = g.cool()
				case "obs+":
					got = g.observe(+1)
				case "obs-":
					got = g.observe(-1)
				case "obs0":
					got = g.observe(0)
				case "fire":
					g.fire()
				case "reset":
					g.reset()
				default:
					t.Fatalf("step %d: unknown op %q", i, st.op)
				}
				if got != st.want || g.streak != st.streak || g.cooldownLeft != st.left {
					t.Fatalf("step %d (%s): returned %v, streak %d, cooldown left %d; want %v, %d, %d",
						i, st.op, got, g.streak, g.cooldownLeft, st.want, st.streak, st.left)
				}
			}
		})
	}
}
