package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/experiment"
	"wadeploy/internal/petstore"
	"wadeploy/internal/workload"
)

// The step-by-step driver must simulate exactly what the experiment runner
// does for the same options, or the benchmark would time something else.

func TestDriverMatchesExperimentRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both paper workloads twice at full virtual length")
	}
	opts := experiment.RunOptions{Seed: 3, Warmup: virtualWarmup, Duration: virtualDuration}
	for _, name := range []string{"petstore-paper", "rubis-paper"} {
		w, _ := findWorkload(name)
		app, cols := experiment.PetStore, experiment.PetStoreColumns
		if name == "rubis-paper" {
			app, cols = experiment.RUBiS, experiment.RUBiSColumns
		}
		for _, s := range w.Sims {
			got, err := simulate(s, opts.Seed, newSpanLog())
			if err != nil {
				t.Fatal(err)
			}
			want, err := experiment.Run(app, s.Config, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Samples != want.Samples || got.Errors != want.Errors {
				t.Errorf("%s %s: samples/errors %d/%d, experiment.Run %d/%d",
					name, s.Config, got.Samples, got.Errors, want.Samples, want.Errors)
			}
			for _, c := range cols {
				for _, local := range []bool{true, false} {
					k := workload.SeriesKey{Pattern: c.Pattern, Page: c.Page, Local: local}
					mean, p95 := want.Cell(c.Pattern, c.Page).Remote, want.Cell(c.Pattern, c.Page).RemoteP95
					if local {
						mean, p95 = want.Cell(c.Pattern, c.Page).Local, want.Cell(c.Pattern, c.Page).LocalP95
					}
					var gotP95 time.Duration
					if sr := got.stats.Series(k); sr != nil {
						gotP95 = sr.Percentile(95)
					}
					if got.stats.Mean(k) != mean || gotP95 != p95 {
						t.Errorf("%s %s %v: mean/p95 %v/%v, experiment.Run %v/%v",
							name, s.Config, k, got.stats.Mean(k), gotP95, mean, p95)
					}
				}
			}
			for pat, byLocal := range want.SessionMeans {
				for local, mean := range byLocal {
					if g := got.stats.SessionMean(pat, local); g != mean {
						t.Errorf("%s %s: session mean %s/%t %v, experiment.Run %v", name, s.Config, pat, local, g, mean)
					}
				}
			}
			gs, _ := json.Marshal(got.snap)
			ws, _ := json.Marshal(want.Metrics)
			if string(gs) != string(ws) {
				t.Errorf("%s %s: registry snapshot differs from experiment.Run's", name, s.Config)
			}
		}
	}
}

func TestDriverMatchesTopoSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 128-edge workload twice at full virtual length")
	}
	w, _ := findWorkload("edge128-fullrep")
	s := w.Sims[0]
	opts := experiment.TopoSweepOptions{
		RunOptions: experiment.RunOptions{Seed: 3, Warmup: virtualWarmup, Duration: virtualDuration},
		Config:     s.Config,
	}
	points, err := experiment.TopoSweep(experiment.PetStore, []int{s.Edges}, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := points[0]
	got, err := simulate(s, opts.Seed, newSpanLog())
	if err != nil {
		t.Fatal(err)
	}
	if s.Config != core.QueryCaching || want.Partitions != 0 {
		t.Fatalf("edge128-fullrep is query-caching with full replication, got %s and %d partitions", s.Config, want.Partitions)
	}
	// WAN bytes and hub count as TopoSweep derives them: per-link byte
	// counters on links with a hub endpoint.
	var wanBytes int64
	hubs := make(map[string]bool)
	for name, v := range got.Counters {
		link, ok := strings.CutPrefix(name, `simnet_link_bytes_total{link="`)
		if !ok {
			continue
		}
		for _, end := range strings.Split(strings.TrimSuffix(link, `"}`), ">") {
			if strings.HasPrefix(end, "hub") {
				hubs[end] = true
			}
		}
		if strings.Contains(link, "hub") {
			wanBytes += v
		}
	}
	type summary struct {
		Samples, Errors, Hubs                                  int
		LocalBrowser, RemoteBrowser, LocalWriter, RemoteWriter int64
		Msgs, Pushes, WANBytes                                 int64
	}
	g := summary{
		got.Samples, got.Errors, len(hubs),
		int64(got.stats.SessionMean(petstore.PatternBrowser, true)), int64(got.stats.SessionMean(petstore.PatternBrowser, false)),
		int64(got.stats.SessionMean(petstore.PatternBuyer, true)), int64(got.stats.SessionMean(petstore.PatternBuyer, false)),
		got.Counters["simnet_messages_total"], got.Counters["container_replica_pushes_total"], wanBytes,
	}
	wt := summary{
		want.Samples, want.Errors, want.Hubs,
		int64(want.LocalBrowser), int64(want.RemoteBrowser), int64(want.LocalWriter), int64(want.RemoteWriter),
		want.Msgs, want.Pushes, want.WANBytes,
	}
	if g != wt {
		t.Errorf("driver %+v, experiment.TopoSweep %+v", g, wt)
	}
}
