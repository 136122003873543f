// Command perfbench measures the simulator on the paper's own workloads,
// run through the real stack (web, container, rmi, simnet, sqldb on the sim
// engine), one simulation at a time in one process.
//
//	perfbench --workload petstore-paper --seed 1 --seconds 20 --trace 0
//
// It repeats the workload until --seconds have passed and reports medians.
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it spends
// half the time untraced and half under the CPU and allocation profilers,
// and prints the per-layer metrics. Every simulation's outputs are digested
// and checked: identical across repetitions, equal to the golden when the
// seed has one, every page counted once and none failed. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// errIncorrect marks a run whose outputs failed a check: the result is
// still printed, with "correct": false, and the exit code is 1.
var errIncorrect = errors.New("outputs are incorrect")

// minSetupSamples is how many sweeps' set-up times setup_s is the median
// of; sweeps that are not run are set up and torn down to make up the count.
const minSetupSamples = 15

func run(args []string, stdout io.Writer) (int, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "petstore-paper", "workload to run")
	seed := fl.Int64("seed", 1, "seed of the simulated inputs")
	seconds := fl.Int("seconds", 10, "host seconds to measure for")
	traced := fl.Int("trace", 0, "1: per-layer metrics from a profiled run")
	outDir := fl.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the run's artifacts")
	if err := fl.Parse(args); err != nil {
		return 2, err
	}
	w, ok := findWorkload(*name)
	switch {
	case !ok:
		return 2, fmt.Errorf("unknown workload %q", *name)
	case *seconds < 1:
		return 2, fmt.Errorf("--seconds must be at least 1")
	case *traced != 0 && *traced != 1:
		return 2, fmt.Errorf("--trace must be 0 or 1")
	}
	if *traced == 1 {
		runtime.MemProfileRate = 64 << 10
	}
	st := newStamp(w, *seed, *traced == 1, *seconds)
	artifacts := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", w.Name, *seed, *traced))
	if err := os.MkdirAll(artifacts, 0o755); err != nil {
		return 1, err
	}

	m := &measurement{w: w, seed: *seed, spans: newSpanLog()}
	start := time.Now()
	budget := time.Duration(*seconds) * time.Second
	var metrics []metric
	var err error
	if *traced == 0 {
		metrics, err = m.endToEnd(start.Add(budget))
	} else {
		metrics, err = m.perLayer(start.Add(budget/2), start.Add(budget), artifacts)
	}
	if err != nil && !errors.Is(err, errIncorrect) {
		return 1, err
	}
	if werr := m.spans.write(filepath.Join(artifacts, "spans.json")); werr != nil {
		return 1, werr
	}
	if *traced == 1 && metrics != nil {
		if werr := writeLayerTable(filepath.Join(artifacts, "layers.txt"), st, metrics); werr != nil {
			return 1, werr
		}
	}

	res := result{
		Correct:   err == nil,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]value, len(metrics)),
	}
	for _, mt := range metrics {
		res.Metrics[mt.Name] = value{Value: mt.Value, Unit: mt.Unit}
	}
	stampJS, _ := json.Marshal(st) // plain strings and numbers: cannot fail
	fmt.Fprintf(stdout, "stamp %s\n", stampJS)
	fmt.Fprintf(stdout, "workload %s seed %d: %d sweeps measured, %d page views, %d failed, page_error_ratio %g (%d / %d)\n",
		w.Name, *seed, m.sweeps, m.attempted, m.failed, ratio(m.failed, m.attempted), m.failed, m.attempted)
	for _, mt := range metrics {
		fmt.Fprintf(stdout, "  %-36s %16.6f %-8s %s\n", mt.Name, mt.Value, mt.Unit, mt.Detail)
	}
	if err != nil {
		fmt.Fprintf(stdout, "INCORRECT: %v\n", m.problems)
	}
	if werr := writeJSON(filepath.Join(artifacts, "result.json"), struct {
		Stamp    stamp    `json:"stamp"`
		Result   result   `json:"result"`
		Details  []metric `json:"details"`
		Problems []string `json:"problems,omitempty"`
	}{st, res, metrics, m.problems}); werr != nil {
		return 1, werr
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		return 1, jerr
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if err != nil {
		return 1, err
	}
	return 0, nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// metric is one reported number; Detail gives its numerator and
// denominator, or what it is the median of.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
	Detail string  `json:"detail"`
}

// stamp records how a result was produced.
type stamp struct {
	Workload         string   `json:"workload"`
	Seed             int64    `json:"seed"`
	Trace            bool     `json:"trace"`
	Seconds          int      `json:"seconds"`
	VirtualWarmupS   float64  `json:"virtual_warmup_s"`
	VirtualDurationS float64  `json:"virtual_duration_s"`
	Configs          []string `json:"configs"`
	GoVersion        string   `json:"go_version"`
	GOMAXPROCS       int      `json:"gomaxprocs"`
	Nproc            int      `json:"nproc"`
	VCSRevision      string   `json:"vcs_revision"`
	VCSModified      string   `json:"vcs_modified"`
}

func newStamp(w workloadSpec, seed int64, traced bool, seconds int) stamp {
	st := stamp{
		Workload:         w.Name,
		Seed:             seed,
		Trace:            traced,
		Seconds:          seconds,
		VirtualWarmupS:   virtualWarmup.Seconds(),
		VirtualDurationS: virtualDuration.Seconds(),
		GoVersion:        runtime.Version(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Nproc:            runtime.NumCPU(),
		VCSRevision:      "unknown",
		VCSModified:      "unknown",
	}
	for _, s := range w.Sims {
		st.Configs = append(st.Configs, s.Config.String())
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				st.VCSRevision = kv.Value
			case "vcs.modified":
				st.VCSModified = kv.Value
			}
		}
	}
	return st
}

// sweep is one pass over every simulation of the workload.
type sweep struct {
	Sims       []*simOutput
	WallS      float64
	CPUS       float64
	AllocBytes uint64
	Mallocs    uint64
	NumGC      uint32
}

func (s *sweep) pages() (n int64) {
	for _, o := range s.Sims {
		n += o.Attempted
	}
	return n
}

func (s *sweep) runS() (t float64) {
	for _, o := range s.Sims {
		t += o.RunS
	}
	return t
}

func (s *sweep) setupS() (t float64) {
	for _, o := range s.Sims {
		t += o.SetupS()
	}
	return t
}

// measurement runs one workload's sweeps and checks their outputs.
type measurement struct {
	w     workloadSpec
	seed  int64
	spans *spanLog

	ref       []string // digests of the first sweep
	sweeps    int
	attempted int64
	failed    int64
	problems  []string
}

// sweepUntil runs whole sweeps, at least one, until deadline has passed.
func (m *measurement) sweepUntil(deadline time.Time) ([]sweep, error) {
	var out []sweep
	for len(out) == 0 || time.Now().Before(deadline) {
		s, err := m.sweep()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (m *measurement) sweep() (sweep, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	sp := m.spans.begin("sweep " + m.w.Name)
	var s sweep
	for _, spec := range m.w.Sims {
		o, err := simulate(spec, m.seed, m.spans)
		if err != nil {
			return sweep{}, err
		}
		s.Sims = append(s.Sims, o)
	}
	s.WallS = sp.end()
	s.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	s.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.Mallocs = m1.Mallocs - m0.Mallocs
	s.NumGC = m1.NumGC - m0.NumGC
	for _, o := range s.Sims {
		if err := o.digest(); err != nil {
			return sweep{}, err
		}
	}
	m.check(&s)
	return s, nil
}

// check verifies one sweep's outputs and counts its page views.
func (m *measurement) check(s *sweep) {
	m.sweeps++
	first := m.ref == nil
	for i, o := range s.Sims {
		m.attempted += o.Attempted
		m.failed += o.Failed
		if o.Failed > 0 || o.Errors > 0 {
			m.problem("%s: %d page views failed (%d after warm-up)", o.Config, o.Failed, o.Errors)
		}
		if o.PostWarmup != int64(o.Samples+o.Errors) {
			m.problem("%s: %d page views after warm-up but %d in the statistics", o.Config, o.PostWarmup, o.Samples+o.Errors)
		}
		if served := sumPrefix(o.Counters, "web_requests_total{"); served < o.Attempted || served > o.Attempted+int64(o.Clients) {
			m.problem("%s: web tier served %d pages, %d clients completed %d", o.Config, served, o.Clients, o.Attempted)
		}
		if first {
			m.ref = append(m.ref, o.Digest)
		} else if o.Digest != m.ref[i] {
			m.problem("%s: outputs differ between sweeps of the same seed", o.Config)
		}
	}
	if !first {
		return
	}
	g, ok, err := loadGolden(m.w.Name, m.seed)
	switch {
	case err != nil:
		m.problem("%v", err)
	case ok:
		if err := compareGolden(g, makeGolden(m.w.Name, m.seed, s.Sims)); err != nil {
			m.problem("golden %s: %v", goldenName(m.w.Name, m.seed), err)
		}
	}
}

func (m *measurement) problem(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

func (m *measurement) verdict() error {
	if len(m.problems) > 0 {
		return errIncorrect
	}
	return nil
}

// endToEnd measures until deadline and returns the end-to-end metrics.
func (m *measurement) endToEnd(deadline time.Time) ([]metric, error) {
	sweeps, err := m.sweepUntil(deadline)
	if err != nil {
		return nil, err
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	setups := make([]float64, 0, minSetupSamples)
	for _, s := range sweeps {
		setups = append(setups, s.setupS())
	}
	for len(setups) < minSetupSamples {
		sp := m.spans.begin("set-up only " + m.w.Name)
		var t float64
		for _, spec := range m.w.Sims {
			st, err := setupOnly(spec, m.seed, m.spans)
			if err != nil {
				return nil, err
			}
			t += st
		}
		sp.end()
		setups = append(setups, t)
	}
	return endToEndMetrics(sweeps, setups, peak), m.verdict()
}

// perLayer measures untraced until half, then under the profilers until
// deadline, and returns the per-layer metrics.
func (m *measurement) perLayer(half, deadline time.Time, dir string) ([]metric, error) {
	plain, err := m.sweepUntil(half)
	if err != nil {
		return nil, err
	}
	cpuPath := filepath.Join(dir, "cpu.pprof")
	before := filepath.Join(dir, "allocs-before.pprof")
	after := filepath.Join(dir, "allocs-after.pprof")
	if err := writeAllocs(before); err != nil {
		return nil, err
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	cpu0 := cpuSeconds()
	traced, err := m.sweepUntil(deadline)
	pprof.StopCPUProfile()
	cpuS := cpuSeconds() - cpu0
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := writeAllocs(after); err != nil {
		return nil, err
	}

	cpuF, err := foldFile(cpuPath, "cpu/")
	if err != nil {
		return nil, err
	}
	a0, err := foldFile(before, "alloc_space/")
	if err != nil {
		return nil, err
	}
	a1, err := foldFile(after, "alloc_space/")
	if err != nil {
		return nil, err
	}
	return perLayerMetrics(plain, traced, cpuF, a1.minus(a0), cpuS), m.verdict()
}

// writeLayerTable saves the per-layer metrics, sorted by name, under the
// stamp of the run that measured them.
func writeLayerTable(path string, st stamp, metrics []metric) error {
	var b strings.Builder
	stampJS, _ := json.Marshal(st) // plain strings and numbers: cannot fail
	fmt.Fprintf(&b, "stamp %s\n", stampJS)
	sorted := append([]metric(nil), metrics...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, mt := range sorted {
		fmt.Fprintf(&b, "%-36s %16.6f %-8s %s\n", mt.Name, mt.Value, mt.Unit, mt.Detail)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func writeJSON(path string, v any) error {
	js, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad argument makes RUSAGE_SELF fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func sumPrefix(counters map[string]int64, prefix string) (n int64) {
	for k, v := range counters {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}
