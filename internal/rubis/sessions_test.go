package rubis

import (
	"maps"
	"math/rand"
	"testing"

	"wadeploy/internal/workload"
)

// collect runs gen for one session and returns its steps. The generator
// writes into one reused Step, as the drivers do, so each step's params are
// copied out.
func collect(gen workload.StreamGen, rng *rand.Rand) []workload.Step {
	var steps []workload.Step
	var step workload.Step
	for st := (workload.StreamState{}); ; st.Pos++ {
		step.Page = ""
		clear(step.Params)
		if !gen(rng, &st, &step) {
			return steps
		}
		steps = append(steps, workload.Step{Page: step.Page, Params: maps.Clone(step.Params)})
	}
}

// TestSessionAllocs guards allocation-free session generation: once the
// reused Step's params map has grown, further steps allocate nothing, across
// session restarts too.
func TestSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	for _, tc := range []struct {
		name string
		gen  workload.StreamGen
	}{
		{"browser", BrowserSession},
		{"bidder", BidderSession},
	} {
		rng := rand.New(rand.NewSource(3))
		var st workload.StreamState
		var step workload.Step
		run := func() {
			for i := 0; i < 50; i++ {
				clear(step.Params)
				if !tc.gen(rng, &st, &step) {
					st = workload.StreamState{}
					tc.gen(rng, &st, &step)
				}
				st.Pos++
			}
		}
		run() // grow the params map
		if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
			t.Errorf("%s: steady-state session generation allocates %.1f objects, want 0", tc.name, allocs)
		}
	}
}
