package main

// The driver is the benchmark's only caller of the program. It runs one
// simulation by calling the public constructors one at a time, so that
// set-up, the run and the snapshot are timed apart, and it turns every
// result into the benchmark's own plain types. A change to the program's
// API edits this file and no metric definition.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/metrics"
	"wadeploy/internal/petstore"
	"wadeploy/internal/rubis"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/workload"
)

// Virtual length of every simulation: the warm-up is discarded by the
// statistics but its pages are simulated, counted and timed.
const (
	virtualWarmup   = 30 * time.Second
	virtualDuration = 10 * time.Minute
)

// simSpec is one simulation: one configuration of one application on the
// paper's star (Edges 0) or, for Pet Store, on a hierarchy with Edges edge
// PoPs and full replication.
type simSpec struct {
	App    string // "petstore" or "rubis"
	Config core.ConfigID
	Edges  int
}

// workloadSpec is one benchmark workload: simulations run back to back.
type workloadSpec struct {
	Name string
	Sims []simSpec
}

func paperSims(app string) []simSpec {
	sims := make([]simSpec, 0, len(core.Configs))
	for _, c := range core.Configs {
		sims = append(sims, simSpec{App: app, Config: c})
	}
	return sims
}

// workloads lists the benchmark's workloads. NOTES.md says why each was
// chosen and which layers it stresses; BENCHMARK.json repeats it in a line.
var workloads = []workloadSpec{
	{
		Name: "petstore-paper",
		Sims: paperSims("petstore"),
	},
	{
		Name: "rubis-paper",
		Sims: paperSims("rubis"),
	},
	{
		Name: "edge128-fullrep",
		Sims: []simSpec{{App: "petstore", Config: core.QueryCaching, Edges: 128}},
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// simOutput is one simulation's outcome in the benchmark's own terms.
type simOutput struct {
	Config string

	// Attempted and Failed count every completed page view, warm-up
	// included, as the workload observer saw them.
	Attempted int64
	Failed    int64
	// PostWarmup counts the observed page views at or after the warm-up
	// boundary: every one of them must be in the statistics exactly once.
	PostWarmup int64
	// Clients is the number of simulated clients: at most one page each
	// is still in flight when the run ends.
	Clients int
	Samples int
	Errors  int

	Dispatched uint64
	Counters   map[string]int64

	// Digest is the SHA-256 of the simulated outputs: per-series counts,
	// means and p95, and the registry snapshot.
	Digest string

	// Host wall-seconds of the steps, from the spans.
	DeploymentS float64 // sim.NewEnv and the deployment constructor
	AppDeployS  float64 // the application's Deploy
	RunS        float64 // workload.Run

	// stats and snap are the raw outputs, kept until digest.
	stats *workload.Stats
	snap  *metrics.Snapshot
}

// SetupS is the simulation's deployment construction time.
func (o *simOutput) SetupS() float64 { return o.DeploymentS + o.AppDeployS }

// deployed is a simulation ready to run, with the host seconds it took.
type deployed struct {
	env         *sim.Env
	groups      []workload.Group
	deploymentS float64
	appDeployS  float64
}

// deploy builds the environment, the deployment and the application of s,
// recording one span per call.
func deploy(s simSpec, seed int64, spans *spanLog) (*deployed, error) {
	sp := spans.begin("sim.NewEnv")
	env := sim.NewEnv(seed)
	depS := sp.end()

	var opts core.Options
	switch s.App {
	case "petstore":
		opts = core.DefaultOptions()
	case "rubis":
		opts = rubis.DeployOptions()
	default:
		return nil, fmt.Errorf("unknown app %q", s.App)
	}
	var d *core.Deployment
	var err error
	if s.Edges == 0 {
		sp = spans.begin("core.NewPaperDeployment")
		d, err = core.NewPaperDeployment(env, opts)
	} else {
		sp = spans.begin("core.NewHierarchicalDeployment")
		d, _, err = core.NewHierarchicalDeployment(env, opts, simnet.HierarchySpec{Edges: s.Edges})
	}
	depS += sp.end()
	if err != nil {
		return nil, err
	}

	var groups []workload.Group
	switch {
	case s.App == "petstore" && s.Edges == 0:
		sp = spans.begin("petstore.Deploy")
		var a *petstore.App
		if a, err = petstore.Deploy(d, s.Config); err == nil {
			groups = petstore.PaperWorkload(a)
		}
	case s.App == "petstore":
		sp = spans.begin("petstore.DeployTopo")
		var a *petstore.App
		if a, err = petstore.DeployTopo(d, s.Config, petstore.TopoOptions{}); err == nil {
			groups = petstore.TopoWorkload(a)
		}
	default:
		sp = spans.begin("rubis.Deploy")
		var a *rubis.App
		if a, err = rubis.Deploy(d, s.Config); err == nil {
			groups = rubis.PaperWorkload(a)
		}
	}
	appS := sp.end()
	if err != nil {
		env.Close()
		return nil, err
	}
	return &deployed{env: env, groups: groups, deploymentS: depS, appDeployS: appS}, nil
}

// setupOnly builds s and tears it down without running it: a set-up sample.
func setupOnly(s simSpec, seed int64, spans *spanLog) (float64, error) {
	dep, err := deploy(s, seed, spans)
	if err != nil {
		return 0, err
	}
	dep.env.Close()
	return dep.deploymentS + dep.appDeployS, nil
}

// simulate runs s end to end.
func simulate(s simSpec, seed int64, spans *spanLog) (*simOutput, error) {
	top := spans.begin("simulate " + s.Config.String())
	defer top.end()
	dep, err := deploy(s, seed, spans)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Config, err)
	}
	out := &simOutput{Config: s.Config.String(), DeploymentS: dep.deploymentS, AppDeployS: dep.appDeployS}
	for _, g := range dep.groups {
		out.Clients += g.Browsers + g.Writers
	}
	observe := func(now time.Duration, _ workload.Client, _ workload.SeriesKey, _ time.Duration, err error) {
		out.Attempted++
		if err != nil {
			out.Failed++
		}
		if now >= virtualWarmup {
			out.PostWarmup++
		}
	}

	sp := spans.begin("workload.Run")
	stats, err := workload.Run(workload.Config{
		Env:      dep.env,
		Groups:   dep.groups,
		Warmup:   virtualWarmup,
		Duration: virtualDuration,
		Observer: observe,
	})
	out.RunS = sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Config, err)
	}

	sp = spans.begin("Env.Metrics().Snapshot")
	snap := dep.env.Metrics().Snapshot()
	sp.end()

	out.Samples = stats.TotalSamples()
	out.Errors = stats.Errors()
	out.Dispatched = dep.env.Dispatched()
	out.Counters = make(map[string]int64, len(snap.Counters))
	for _, c := range snap.Counters {
		out.Counters[c.Name] = c.Value
	}
	out.stats, out.snap = stats, snap
	return out, nil
}

// digest sets o.Digest from the simulated outputs, outside the timed
// sweep, and then lets the statistics and the snapshot go.
func (o *simOutput) digest() error {
	d, err := digestOf(o.stats, o.snap)
	if err != nil {
		return fmt.Errorf("%s: %w", o.Config, err)
	}
	o.Digest, o.stats, o.snap = d, nil, nil
	return nil
}

// digestOf hashes the simulated outputs of one simulation: every series'
// count, mean and p95, the error count, and the full registry snapshot.
func digestOf(stats *workload.Stats, snap *metrics.Snapshot) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "samples %d errors %d\n", stats.TotalSamples(), stats.Errors())
	for _, k := range stats.Keys() {
		s := stats.Series(k)
		fmt.Fprintf(&b, "series %s %s %t %d %d %d\n", k.Pattern, k.Page, k.Local,
			s.Count(), int64(s.Mean()), int64(s.Percentile(95)))
	}
	js, err := json.Marshal(snap)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	b.Write(js)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), nil
}

// allConfigs names every configuration any workload runs, in run order.
func allConfigs() []string {
	var names []string
	seen := make(map[core.ConfigID]bool)
	for _, w := range workloads {
		for _, s := range w.Sims {
			if !seen[s.Config] {
				seen[s.Config] = true
				names = append(names, s.Config.String())
			}
		}
	}
	return names
}
