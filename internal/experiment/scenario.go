package experiment

import (
	"fmt"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/controller"
	"wadeploy/internal/core"
	"wadeploy/internal/faults"
	"wadeploy/internal/petstore"
	"wadeploy/internal/planner"
	"wadeploy/internal/rubis"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/trace"
	"wadeploy/internal/workload"
)

// Scenario is one run of the study: an application deployed under one
// distribution policy on one testbed, driven by one workload. Tables,
// sweeps and experiments are sets of Scenarios that differ in one field.
type Scenario struct {
	App    AppID
	Config core.ConfigID

	// Hierarchy, when non-nil, builds main → regional hubs → Hierarchy.Edges
	// edge PoPs and spreads the paper's total offered load over the edge
	// client groups. Nil runs on the paper's 1-main+2-edge star.
	Hierarchy *simnet.HierarchySpec

	// Partitions > 0 shards the hot entities (Item/Inventory for Pet Store,
	// Item for RUBiS) into this many hash partitions spread round-robin over
	// the edges. 0 keeps full replication at every edge.
	Partitions int

	// WANOneWay, when positive, sets the star's WAN one-way latency (the
	// paper's is 100 ms).
	WANOneWay time.Duration

	// Load scales the offered load around the paper's 30 req/s, keeping the
	// 80/20 mix and group split; 0 means 1.
	Load float64

	RunOptions
}

// appSpec is everything the runner knows about one application.
type appSpec struct {
	options    func() core.Options
	patterns   [2]string // browse pattern, write pattern
	columns    []Column  // the paper's table column order
	commit     Column    // the write page the consistency table scores
	extensions []core.ConfigID
	adaptive   bool // DeployAdaptive and a planner model exist
	deploy     func(d *core.Deployment, s Scenario) (*deployed, error)
}

// deployed is an application installed on a deployment, ready to run.
type deployed struct {
	groups []workload.Group
	wiring *core.Wiring
	ctrl   *controller.Controller
}

var apps = map[AppID]appSpec{
	PetStore: {
		options:    core.DefaultOptions,
		patterns:   [2]string{petstore.PatternBrowser, petstore.PatternBuyer},
		columns:    PetStoreColumns,
		commit:     Column{petstore.PatternBuyer, petstore.PageCommit},
		extensions: core.ExtensionConfigs,
		adaptive:   true,
		deploy:     deployPetStore,
	},
	RUBiS: {
		options:  rubis.DeployOptions,
		patterns: [2]string{rubis.PatternBrowser, rubis.PatternBidder},
		columns:  RUBiSColumns,
		commit:   Column{rubis.PatternBidder, rubis.PageStoreBid},
		deploy:   deployRUBiS,
	},
}

func deployPetStore(d *core.Deployment, s Scenario) (*deployed, error) {
	var a *petstore.App
	var err error
	if s.Adaptive != nil {
		a, err = petstore.DeployAdaptive(d, s.Config)
	} else {
		a, err = petstore.DeployTopo(d, s.Config, petstore.TopoOptions{Partition: s.partitionSpec()})
	}
	if err != nil {
		return nil, err
	}
	dep := &deployed{wiring: a.Wiring()}
	if s.Adaptive != nil {
		dep.ctrl, err = controller.Start(controller.Config{
			Deployment: d,
			Wiring:     a.Wiring(),
			Model:      petstore.PlannerModel(),
			Current:    planner.Candidate{ReplicateWeb: true},
			Seed:       s.Seed,
			OnExtend:   a.ActivateEdgeCatalog,
			Apply:      a.SetEffectiveConfig,
			Options:    *s.Adaptive,
		})
		if err != nil {
			return nil, err
		}
	}
	work := petstore.PaperWorkloadScaled
	if s.Hierarchy != nil {
		work = petstore.TopoWorkloadScaled
	}
	dep.groups = work(a, s.load())
	return dep, nil
}

func deployRUBiS(d *core.Deployment, s Scenario) (*deployed, error) {
	a, err := rubis.DeployTopo(d, s.Config, rubis.TopoOptions{Partition: s.partitionSpec()})
	if err != nil {
		return nil, err
	}
	work := rubis.PaperWorkloadScaled
	if s.Hierarchy != nil {
		work = rubis.TopoWorkloadScaled
	}
	return &deployed{groups: work(a, s.load()), wiring: a.Wiring()}, nil
}

func (s Scenario) partitionSpec() *container.PartitionSpec {
	if s.Partitions <= 0 {
		return nil
	}
	return &container.PartitionSpec{Scheme: container.HashPartition, Partitions: s.Partitions}
}

func (s Scenario) load() float64 {
	if s.Load == 0 {
		return 1
	}
	return s.Load
}

// Run executes the scenario: build the testbed, deploy the application
// under the scenario's policy, drive the workload and collect the result.
func (s Scenario) Run() (*Result, error) {
	spec, ok := apps[s.App]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown app %q", s.App)
	}
	if s.Adaptive != nil && !spec.adaptive {
		return nil, fmt.Errorf("experiment: adaptive mode is PetStore-only")
	}
	if s.Adaptive != nil && (s.Hierarchy != nil || s.Partitions > 0) {
		return nil, fmt.Errorf("experiment: adaptive mode runs on the paper's star without partitions")
	}
	if s.WANOneWay != 0 && s.Hierarchy != nil {
		return nil, fmt.Errorf("experiment: WANOneWay sets the star's latency; a hierarchy takes link classes")
	}
	env := sim.NewEnv(s.Seed)
	if s.Trace != nil {
		trace.New(env, *s.Trace).Install(env)
	}
	opts := spec.options()
	opts.Resilience = s.Resilience
	opts.Replication = s.Replication
	var d *core.Deployment
	var hubs int
	var err error
	if s.Hierarchy != nil {
		var h *simnet.Hierarchy
		if d, h, err = core.NewHierarchicalDeployment(env, opts, *s.Hierarchy); err == nil {
			hubs = len(h.HubNames)
		}
	} else {
		if s.WANOneWay > 0 {
			opts.Topology = simnet.DefaultTopologyParams()
			opts.Topology.WANOneWay = s.WANOneWay
		}
		d, err = core.NewPaperDeployment(env, opts)
	}
	if err != nil {
		return nil, err
	}
	dep, err := spec.deploy(d, s)
	if err != nil {
		return nil, err
	}
	res, err := collect(s, spec, d, dep.groups)
	if err != nil {
		return nil, err
	}
	res.Hubs = hubs
	if dep.wiring != nil {
		for _, e := range d.Edges {
			for _, ro := range dep.wiring.Replicas[e.Name()] {
				res.ReplicaEntries += int64(ro.Cached())
			}
		}
	}
	if dep.ctrl != nil {
		res.Adapt = dep.ctrl.Report()
	}
	return res, nil
}

// collect arms the fault schedule and the metrics ticker, drives the
// workload, and reads the run's tables and diagnostics off the deployment.
func collect(s Scenario, spec appSpec, d *core.Deployment, groups []workload.Group) (*Result, error) {
	if s.Schedule != nil {
		if err := faults.Arm(d.Net, s.Schedule, s.Seed); err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
	}
	reg := d.Env.Metrics()
	if s.MetricsTick > 0 {
		var tick func()
		tick = func() {
			reg.Sample()
			d.Env.After(s.MetricsTick, tick)
		}
		d.Env.After(s.MetricsTick, tick)
	}
	stats, err := workload.Run(workload.Config{
		Env:      d.Env,
		Groups:   groups,
		Warmup:   s.Warmup,
		Duration: s.Duration,
		Observer: s.Observer,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: %s/%s: %w", s.App, s.Config, err)
	}
	res := &Result{
		App:          s.App,
		Config:       s.Config,
		SessionMeans: make(map[string]map[bool]time.Duration, len(spec.patterns)),
		Samples:      stats.TotalSamples(),
		Errors:       stats.Errors(),
		RemoteCalls:  d.RMI.Stats().RemoteCalls,
		JMSPublished: d.JMS.Published(),
		JMSDelivered: d.JMS.Delivered(),
	}
	for _, c := range spec.columns {
		cell := PageCell{
			Pattern: c.Pattern,
			Page:    c.Page,
			Local:   stats.Mean(workload.SeriesKey{Pattern: c.Pattern, Page: c.Page, Local: true}),
			Remote:  stats.Mean(workload.SeriesKey{Pattern: c.Pattern, Page: c.Page, Local: false}),
		}
		if ser := stats.Series(workload.SeriesKey{Pattern: c.Pattern, Page: c.Page, Local: true}); ser != nil {
			cell.LocalP95 = ser.Percentile(95)
		}
		if ser := stats.Series(workload.SeriesKey{Pattern: c.Pattern, Page: c.Page, Local: false}); ser != nil {
			cell.RemoteP95 = ser.Percentile(95)
		}
		res.Cells = append(res.Cells, cell)
	}
	for _, pat := range spec.patterns {
		res.SessionMeans[pat] = map[bool]time.Duration{
			true:  stats.SessionMean(pat, true),
			false: stats.SessionMean(pat, false),
		}
	}
	if tr := trace.FromEnv(d.Env); tr != nil {
		res.Trace = &TraceReport{
			Blame:   tr.Aggregator(),
			Traces:  tr.Recorder().Traces(),
			Sampled: int64(tr.Recorder().Len()) + int64(tr.Recorder().Evicted()),
			Dropped: int64(tr.Recorder().Evicted()),
		}
	}
	mainNode := d.Net.Node(d.Main.Name())
	res.MainCPUUtil = mainNode.CPU.Utilization()
	if len(d.Edges) > 0 {
		edgeNode := d.Net.Node(d.Edges[0].Name())
		res.EdgeCPUUtil = edgeNode.CPU.Utilization()
	}
	res.Metrics = reg.Snapshot()
	return res, nil
}
