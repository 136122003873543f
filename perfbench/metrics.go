package main

import (
	"fmt"
	"sort"
	"strconv"
)

// endToEndMetrics are what a user of the simulator sees: how fast the
// paper's runs go, what they cost in CPU and memory, and how long the
// deployments take to build. Each timing is the median over sweeps.
func endToEndMetrics(sweeps []sweep, setups []float64, peakMB float64) []metric {
	n := len(sweeps)
	rates := make([]float64, n)
	walls := make([]float64, n)
	cpus := make([]float64, n)
	allocs := make([]float64, n)
	for i := range sweeps {
		s := &sweeps[i]
		rates[i] = float64(s.pages()) / s.runS()
		walls[i] = s.WallS
		cpus[i] = s.CPUS
		allocs[i] = float64(s.AllocBytes) / float64(s.pages())
	}
	pages := sweeps[0].pages()
	of := fmt.Sprintf("median of %d sweeps", n)
	return []metric{
		{"pages_per_s", "1/s", "higher", median(rates),
			fmt.Sprintf("%d page views per sweep / host seconds in workload.Run; %s", pages, of)},
		{"wall_s", "s", "lower", median(walls), "set-up, runs and snapshots of one sweep; " + of},
		{"setup_s", "s", "lower", median(setups),
			fmt.Sprintf("environment, deployment and app construction of one sweep; median of %d set-ups", len(setups))},
		{"cpu_s", "s", "lower", median(cpus), "process user+system CPU over one sweep; " + of},
		{"alloc_bytes_per_page", "B/page", "lower", median(allocs),
			fmt.Sprintf("TotalAlloc delta over a sweep / %d page views; %s", pages, of)},
		{"peak_mem_mb", "MiB", "lower", peakMB, "peak resident set (VmHWM) of the process after the sweeps"},
	}
}

// Per-layer work counts: registry counters (or Env.Dispatched) per page
// view, and hit ratios. They are deterministic for a seed.
var perPageCounts = []struct {
	name    string
	better  string
	counter []string // summed numerator
}{
	{"sim.events_per_page", "lower", []string{dispatchedCounter}},
	{"sqldb.statements_per_page", "lower", []string{"sqldb_statements_total"}},
	{"container.replica_pushes_per_page", "lower", []string{"container_replica_pushes_total"}},
	{"container.ejb_loads_per_page", "lower", []string{"container_ejb_load_total"}},
	{"simnet.msgs_per_page", "lower", []string{"simnet_messages_total"}},
	{"rmi.calls_per_page", "lower", []string{"rmi_local_calls_total", "rmi_remote_calls_total"}},
	{"rmi.wide_area_calls_per_page", "lower", []string{"rmi_wide_area_calls_total"}},
	{"jms.deliveries_per_page", "lower", []string{"jms_delivered_total"}},
}

var hitRatios = []struct {
	name, hits, misses string
}{
	{"sqldb.plan_cache_hit_ratio", "sqldb_plan_cache_hits_total", "sqldb_plan_cache_misses_total"},
	{"container.replica_hit_ratio", "container_replica_hits_total", "container_replica_misses_total"},
	{"container.querycache_hit_ratio", "container_querycache_hits_total", "container_querycache_misses_total"},
	{"rmi.stubcache_hit_ratio", "rmi_stubcache_hits_total", "rmi_stubcache_misses_total"},
}

// dispatchedCounter names Env.Dispatched among the registry counters.
const dispatchedCounter = "sim:dispatched"

// perLayerMetrics splits the run by layer. plain are the untraced sweeps,
// traced the profiled ones; cpu and alloc are their folded profiles and
// cpuS the process CPU seconds over the traced sweeps.
func perLayerMetrics(plain, traced []sweep, cpu, alloc folded, cpuS float64) []metric {
	var out []metric
	add := func(name, unit, better string, num, den float64, detail string) {
		out = append(out, metric{name, unit, better, ratioF(num, den),
			strconv.FormatFloat(num, 'f', -1, 64) + " / " + strconv.FormatFloat(den, 'f', -1, 64) + " " + detail})
	}

	var tracedPages int64
	for i := range traced {
		tracedPages += traced[i].pages()
	}
	tp := float64(tracedPages)
	perTraced := fmt.Sprintf("over %d page views in %d profiled sweeps", tracedPages, len(traced))
	for _, l := range append(append([]string(nil), layers...), bgLayer) {
		name := l + ".host_us_per_page"
		if l == bgLayer {
			name = "rt.bg_us_per_page"
		}
		add(name, "us/page", "lower", float64(cpu.ByLayer[l])/1e3, tp, "CPU us "+perTraced)
	}
	for _, c := range leafClasses {
		add("rt."+c+"_us_per_page", "us/page", "lower", float64(cpu.ByLeaf[c])/1e3, tp, "CPU us with the leaf frame in "+c+" "+perTraced)
	}
	add("cpu.profile_us_per_page", "us/page", "lower", float64(cpu.Total)/1e3, tp, "profiled CPU us (all layers plus rt.bg) "+perTraced)
	add("cpu.rusage_us_per_page", "us/page", "lower", cpuS*1e6, tp, "process CPU us "+perTraced)
	for _, l := range append(append([]string(nil), layers...), bgLayer) {
		name := l + ".alloc_bytes_per_page"
		if l == bgLayer {
			name = "rt.bg_alloc_bytes_per_page"
		}
		add(name, "B/page", "lower", float64(alloc.ByLayer[l]), tp, "sampled allocated bytes "+perTraced)
	}

	// Work counts from the first untraced sweep.
	first := &plain[0]
	pages := float64(first.pages())
	counters := make(map[string]int64)
	for _, o := range first.Sims {
		for k, v := range o.Counters {
			counters[k] += v
		}
		counters[dispatchedCounter] += int64(o.Dispatched)
	}
	const perSweep = "page views of one sweep"
	for _, c := range perPageCounts {
		var n int64
		for _, k := range c.counter {
			n += counters[k]
		}
		add(c.name, "1/page", c.better, float64(n), pages, perSweep)
	}
	add("sqldb.rows_scanned_per_returned", "ratio", "lower",
		float64(counters["sqldb_rows_scanned_actual_total"]), float64(counters["sqldb_rows_returned_total"]), "rows scanned / rows returned")
	for _, h := range hitRatios {
		hits, misses := counters[h.hits], counters[h.misses]
		add(h.name, "ratio", "higher", float64(hits), float64(hits+misses), "hits / lookups")
	}

	// Allocation and GC over the untraced sweeps.
	var plainPages int64
	var mallocs uint64
	var gcs uint32
	for i := range plain {
		plainPages += plain[i].pages()
		mallocs += plain[i].Mallocs
		gcs += plain[i].NumGC
	}
	perPlain := fmt.Sprintf("page views in %d untraced sweeps", len(plain))
	add("alloc.objects_per_page", "1/page", "lower", float64(mallocs), float64(plainPages), perPlain)
	add("gc.cycles_per_kpage", "1/kpage", "lower", float64(gcs), float64(plainPages)/1e3, "k"+perPlain)

	// Set-up and per-configuration run times, medians over untraced sweeps.
	deps := make([]float64, len(plain))
	apps := make([]float64, len(plain))
	runs := make(map[string][]float64)
	for i := range plain {
		for _, o := range plain[i].Sims {
			deps[i] += o.DeploymentS
			apps[i] += o.AppDeployS
			runs[o.Config] = append(runs[o.Config], o.RunS)
		}
	}
	of := fmt.Sprintf("median of %d untraced sweeps", len(plain))
	out = append(out,
		metric{"setup.deployment_s", "s", "lower", median(deps), "sim.NewEnv and the deployment constructor; " + of},
		metric{"setup.app_deploy_s", "s", "lower", median(apps), "the application's Deploy; " + of})
	for _, c := range allConfigs() {
		detail := "workload.Run of this configuration; " + of
		if runs[c] == nil {
			detail = "not in this workload"
		}
		out = append(out, metric{"run_s." + c, "s", "lower", median(runs[c]), detail})
	}

	walls := make([]float64, len(traced))
	for i := range traced {
		walls[i] = traced[i].WallS
	}
	plainWalls := make([]float64, len(plain))
	for i := range plain {
		plainWalls[i] = plain[i].WallS
	}
	tw, pw := median(walls), median(plainWalls)
	out = append(out, metric{"trace_overhead_frac", "ratio", "lower", tw/pw - 1,
		fmt.Sprintf("median profiled sweep %.4fs / median untraced sweep %.4fs - 1", tw, pw)})
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(num, den int64) float64 { return ratioF(float64(num), float64(den)) }

func ratioF(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
