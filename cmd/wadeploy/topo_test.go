package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTopoTiny(t *testing.T) {
	if err := run(tiny("-edges", "2,3", "-partitions", "4", "topo")); err != nil {
		t.Fatal(err)
	}
	if err := run(tiny("-app", "rubis", "-config", "query-caching", "-edges", "2", "-partitions", "0", "topo")); err != nil {
		t.Fatal(err)
	}
}

func TestRunTopoErrors(t *testing.T) {
	cases := [][]string{
		{"-edges", "0", "topo"},
		{"-edges", "abc", "topo"},
		{"-edges", "", "topo"},
		{"-partitions", "-1", "topo"},
		{"-app", "nope", "topo"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestParseEdgeCounts(t *testing.T) {
	got, err := parseEdgeCounts(" 2, 8 ,128")
	if err != nil || len(got) != 3 || got[0] != 2 || got[1] != 8 || got[2] != 128 {
		t.Fatalf("parseEdgeCounts = %v, %v", got, err)
	}
}

// TestRunTopoCanonicalFaultsRejected pins that the canonical schedule, which
// names the star's links, is refused with topo before any command runs.
func TestRunTopoCanonicalFaultsRejected(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = run(tiny("-faults", "canonical", "-edges", "2", "inventory", "topo"))
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if err == nil || !strings.Contains(err.Error(), "schedule file") {
		t.Fatalf("run = %v, want an error pointing to a schedule file", err)
	}
	if len(out) != 0 {
		t.Fatalf("inventory ran before the error:\n%s", out)
	}
}

// TestRunTopoScheduleFile runs topo under a schedule file that names a
// hierarchy link.
func TestRunTopoScheduleFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.json")
	sched := `{"name": "edge000-outage", "events": [
		{"kind": "link-down", "link": ["edge000", "hub00"], "at_ms": 10000, "duration_ms": 10000}]}`
	if err := os.WriteFile(path, []byte(sched), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(tiny("-faults", path, "-edges", "2", "-partitions", "2", "topo")); err != nil {
		t.Fatal(err)
	}
}
