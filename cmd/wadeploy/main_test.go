package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// tiny returns args for a very short run.
func tiny(extra ...string) []string {
	return append([]string{"-warmup", "5s", "-duration", "30s"}, extra...)
}

func TestRunInventory(t *testing.T) {
	if err := run([]string{"inventory"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable6Tiny(t *testing.T) {
	if err := run(tiny("table6")); err != nil {
		t.Fatal(err)
	}
}

// TestRunTableParallel exercises the -parallel flag across the sequential
// path, an explicit pool, and the one-worker-per-CPU default.
func TestRunTableParallel(t *testing.T) {
	for _, parallel := range []string{"1", "4", "0"} {
		if err := run(tiny("-parallel", parallel, "table7")); err != nil {
			t.Fatalf("-parallel %s: %v", parallel, err)
		}
	}
}

func TestRunFig8Tiny(t *testing.T) {
	if err := run(tiny("fig8")); err != nil {
		t.Fatal(err)
	}
}

func TestRunTableWithExtAndP95(t *testing.T) {
	if err := run(tiny("-ext", "-p95", "-diag", "table6")); err != nil {
		t.Fatal(err)
	}
}

func TestRunSweeps(t *testing.T) {
	if err := run(tiny("-app", "rubis", "-config", "centralized", "sweep-load")); err != nil {
		t.Fatal(err)
	}
	if err := run(tiny("-app", "petstore", "-config", "async-updates", "sweep-latency")); err != nil {
		t.Fatal(err)
	}
}

func TestRunExplain(t *testing.T) {
	if err := run([]string{"-app", "rubis", "-config", "query-caching", "explain"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFaultsTiny(t *testing.T) {
	if err := run(tiny("-faults", "canonical", "faults")); err != nil {
		t.Fatal(err)
	}
}

func TestRunTableWithFaults(t *testing.T) {
	if err := run(tiny("-faults", "canonical", "table6")); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"frobnicate"},
		{"-app", "nope", "sweep-load"},
		{"-config", "nope", "sweep-latency"},
		{"-app", "nope", "explain"},
		{"-app", "nope", "faults"},
		{"-faults", "/nonexistent/schedule.json", "table6"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunExplainJSON(t *testing.T) {
	if err := run([]string{"-app", "petstore", "-config", "async-updates", "-json", "explain"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceTiny(t *testing.T) {
	if err := run(tiny("-sample", "4", "trace")); err != nil {
		t.Fatal(err)
	}
	if err := run(tiny("-sample", "4", "-json", "-app", "rubis", "trace")); err != nil {
		t.Fatal(err)
	}
}

func TestRunScaleTraced(t *testing.T) {
	if err := run(tiny("-sessions", "2000", "-shards", "2", "-trace", "-sample", "8", "scale")); err != nil {
		t.Fatal(err)
	}
}

// TestRunFaultsScaleRejected pins that -faults, which the analytic scale
// model cannot honour, is refused with scale before any command runs.
func TestRunFaultsScaleRejected(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = run([]string{"-faults", "canonical", "-sessions", "8", "-warmup", "1s", "-duration", "1s", "inventory", "scale"})
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if err == nil || !strings.Contains(err.Error(), "scale") {
		t.Fatalf("run = %v, want an error naming scale", err)
	}
	if len(out) != 0 {
		t.Fatalf("inventory ran before the error:\n%s", out)
	}
}
