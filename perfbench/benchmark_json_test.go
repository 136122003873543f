package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesOutput pins BENCHMARK.json at the repository root
// to the metrics the program prints: every declared metric is emitted, with
// the declared unit and direction, and nothing else is.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	js, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better string
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(js, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	if len(bj.Workloads) != len(names) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(names))
	}
	for i, w := range bj.Workloads {
		if i < len(names) && w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, names[i])
		}
	}

	o := &simOutput{Config: "query-caching", Attempted: 100, RunS: 1, Counters: map[string]int64{}}
	sw := []sweep{{Sims: []*simOutput{o}, WallS: 2, CPUS: 2}}
	check := func(kind string, declared []decl, emitted []metric) {
		t.Helper()
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program emits %d", kind, len(declared), len(emitted))
		}
		for i := 0; i < len(declared) && i < len(emitted); i++ {
			d, m := declared[i], emitted[i]
			if d != (decl{m.Name, m.Unit, m.Better}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %s %s %s", kind, i, d, m.Name, m.Unit, m.Better)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndMetrics(sw, []float64{1}, 1))
	check("per_layer", bj.PerLayer, perLayerMetrics(sw, sw, folded{}, folded{}, 1))
}
