package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the goldens from this build")

// TestGoldens runs every workload once for each golden seed and compares the
// simulated outputs with the checked-in goldens.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full virtual length")
	}
	for _, w := range workloads {
		for _, seed := range goldenSeeds {
			m := &measurement{w: w, seed: seed, spans: newSpanLog()}
			s, err := m.sweep()
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			got := makeGolden(w.Name, seed, s.Sims)
			if *update {
				js, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(goldenDir, goldenName(w.Name, seed))
				if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			// sweep checked the outputs against the golden it embeds.
			if len(m.problems) > 0 {
				t.Errorf("%s seed %d: %v", w.Name, seed, m.problems)
			}
			if _, ok, _ := loadGolden(w.Name, seed); !ok {
				t.Errorf("%s seed %d: no golden", w.Name, seed)
			}
		}
	}
}
