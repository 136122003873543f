package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
)

// Goldens pin the simulated outputs of every workload for seed 1 and for one
// held-out seed. A change that only makes the simulator faster leaves them
// byte-identical; regenerate them with `go test -run TestGoldens -update`
// only for a change that is meant to alter simulated results.
//
//go:embed testdata/golden
var goldenFS embed.FS

const goldenDir = "testdata/golden"

// goldenSeeds are the seeds with checked-in goldens: the default seed and a
// seed held out while the benchmark was tuned.
var goldenSeeds = []int64{1, 7}

type goldenSim struct {
	Config    string `json:"config"`
	Attempted int64  `json:"attempted"`
	Samples   int    `json:"samples"`
	Digest    string `json:"digest"`
}

type golden struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	WarmupS   float64     `json:"virtual_warmup_s"`
	DurationS float64     `json:"virtual_duration_s"`
	Sims      []goldenSim `json:"sims"`
}

func goldenName(workload string, seed int64) string {
	return fmt.Sprintf("%s-seed%d.json", workload, seed)
}

func makeGolden(workload string, seed int64, sims []*simOutput) golden {
	g := golden{
		Workload:  workload,
		Seed:      seed,
		WarmupS:   virtualWarmup.Seconds(),
		DurationS: virtualDuration.Seconds(),
	}
	for _, o := range sims {
		g.Sims = append(g.Sims, goldenSim{Config: o.Config, Attempted: o.Attempted, Samples: o.Samples, Digest: o.Digest})
	}
	return g
}

// loadGolden returns the embedded golden for (workload, seed); ok is false
// when the seed has none.
func loadGolden(workload string, seed int64) (g golden, ok bool, err error) {
	js, err := goldenFS.ReadFile(goldenDir + "/" + goldenName(workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return golden{}, false, nil
	}
	if err != nil {
		return golden{}, false, err
	}
	if err := json.Unmarshal(js, &g); err != nil {
		return golden{}, false, fmt.Errorf("golden %s: %w", goldenName(workload, seed), err)
	}
	return g, true, nil
}

// compareGolden reports the first simulation whose outputs differ from want.
func compareGolden(want, got golden) error {
	if want.WarmupS != got.WarmupS || want.DurationS != got.DurationS {
		return fmt.Errorf("golden is for %gs+%gs virtual, run is %gs+%gs",
			want.WarmupS, want.DurationS, got.WarmupS, got.DurationS)
	}
	if len(want.Sims) != len(got.Sims) {
		return fmt.Errorf("golden has %d simulations, run has %d", len(want.Sims), len(got.Sims))
	}
	for i, w := range want.Sims {
		if g := got.Sims[i]; g != w {
			return fmt.Errorf("simulation %d differs from golden: want %+v, got %+v", i, w, g)
		}
	}
	return nil
}
