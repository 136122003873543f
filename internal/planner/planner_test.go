package planner_test

import (
	"strings"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/planner"
	"wadeploy/internal/simnet"
)

// testModel is a deliberately tiny application — one cached façade over one
// replicated entity, a read page and a write page — small enough that the
// exact planner output can be pinned by the golden tests.
func testModel() *planner.Model {
	read := planner.Call{Bean: "Facade", Body: planner.If{
		Cond: planner.EdgeHit,
		Then: planner.Hit{},
		Else: planner.If{
			Cond: planner.AtEdge,
			Then: planner.Call{Body: planner.Load{}},
			Else: planner.Load{},
		},
	}}
	write := planner.Call{Bean: "", Body: planner.Seq{
		planner.Load{},
		planner.Update{Push: planner.HasAnyCache},
	}}
	return &planner.Model{
		App:       "demo",
		Options:   core.DefaultOptions(),
		PushBytes: 1024,
		Components: []planner.Component{
			{
				Desc: container.Descriptor{Name: "Facade", Kind: container.StatelessSession, Facade: true},
				Rule: planner.EdgeWithAnyCache,
			},
			{
				Desc: container.Descriptor{
					Name: "Thing", Kind: container.Entity, Table: "things", PKColumn: "id",
					Persistence: container.BMP, LocalOnly: true,
				},
			},
		},
		Replicated: []string{"Thing"},
		Patterns: []planner.Pattern{
			{Name: "Reader", Visits: map[string]float64{"View": 10}},
			{Name: "Writer", Visits: map[string]float64{"View": 2, "Save": 1}},
		},
		Classes: []planner.Class{
			{Pattern: "Reader", Local: true, Clients: 64},
			{Pattern: "Reader", Local: false, Clients: 128},
			{Pattern: "Writer", Local: true, Clients: 16},
			{Pattern: "Writer", Local: false, Clients: 32},
		},
		Pages: []planner.Page{
			{Name: "View", RenderCPU: 10 * time.Millisecond, RenderLat: 50 * time.Millisecond, Bytes: 8 * 1024, Body: read},
			{Name: "Save", RenderCPU: 12 * time.Millisecond, RenderLat: 60 * time.Millisecond, Bytes: 4 * 1024, Body: write},
		},
	}
}

func TestCandidatesEnumeratesValidCombinations(t *testing.T) {
	cands := planner.Candidates()
	if len(cands) != 8 {
		t.Fatalf("got %d candidates, want 8", len(cands))
	}
	seen := make(map[string]bool)
	prevFeatures := 0
	for _, c := range cands {
		if !c.Valid() {
			t.Errorf("invalid candidate enumerated: %s", c)
		}
		if seen[c.String()] {
			t.Errorf("duplicate candidate: %s", c)
		}
		seen[c.String()] = true
		n := strings.Count(c.String(), "+") + 1
		if c.String() == "none" {
			n = 0
		}
		if n < prevFeatures {
			t.Errorf("candidates not ordered by feature count: %s after %d features", c, prevFeatures)
		}
		prevFeatures = n
	}
}

func TestCandidateConfigMapsPaperLadder(t *testing.T) {
	want := map[string]core.ConfigID{
		"none":                       core.Centralized,
		"web":                        core.RemoteFacade,
		"web+entities":               core.StatefulCaching,
		"web+entities+queries":       core.QueryCaching,
		"web+entities+queries+async": core.AsyncUpdates,
	}
	mapped := 0
	for _, c := range planner.Candidates() {
		cfg, ok := c.Config()
		wantCfg, isPaper := want[c.String()]
		if ok != isPaper {
			t.Errorf("%s: Config() ok=%v, want %v", c, ok, isPaper)
			continue
		}
		if ok {
			mapped++
			if cfg != wantCfg {
				t.Errorf("%s: Config() = %s, want %s", c, cfg, wantCfg)
			}
		}
	}
	if mapped != len(core.Configs) {
		t.Errorf("%d candidates map to paper configs, want %d", mapped, len(core.Configs))
	}
}

func TestCandidateDependenciesRejected(t *testing.T) {
	for _, c := range []planner.Candidate{
		{EntityReplicas: true},
		{QueryCaches: true},
		{AsyncUpdates: true},
		{ReplicateWeb: true, AsyncUpdates: true},
		{EntityReplicas: true, QueryCaches: true, AsyncUpdates: true},
	} {
		if c.Valid() {
			t.Errorf("%+v should be invalid", c)
		}
	}
}

func TestSearchRanksCacheConfigsAboveCentralized(t *testing.T) {
	res, err := planner.Search(testModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) != 8 {
		t.Fatalf("ranked %d candidates, want 8", len(res.Ranked))
	}
	for i := 1; i < len(res.Ranked); i++ {
		if res.Ranked[i].Overall < res.Ranked[i-1].Overall {
			t.Errorf("ranking not ascending at %d: %v after %v",
				i, res.Ranked[i].Overall, res.Ranked[i-1].Overall)
		}
	}
	best := res.Best()
	if !best.Candidate.ReplicateWeb || !best.Candidate.EntityReplicas {
		t.Errorf("best candidate %s lacks the entity replicas the read-heavy mix favors", best.Candidate)
	}
	var centralized planner.Ranked
	for _, r := range res.Ranked {
		if r.Candidate == (planner.Candidate{}) {
			centralized = r
		}
	}
	if best.Overall >= centralized.Overall {
		t.Errorf("best %v not better than centralized %v", best.Overall, centralized.Overall)
	}
	if res.Base != centralized.Overall {
		t.Errorf("Base %v != centralized overall %v", res.Base, centralized.Overall)
	}
}

func TestSearchIsDeterministic(t *testing.T) {
	a, err := planner.Search(testModel())
	if err != nil {
		t.Fatal(err)
	}
	b, err := planner.Search(testModel())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := planner.FormatResult(a, nil), planner.FormatResult(b, nil); got != want {
		t.Errorf("two searches over the same model differ:\n%s\nvs\n%s", got, want)
	}
}

func TestPlanForSynthesizesWiringComponents(t *testing.T) {
	m := testModel()
	full := planner.Candidate{ReplicateWeb: true, EntityReplicas: true, QueryCaches: true, AsyncUpdates: true}
	pl := m.PlanFor(full)
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	servers := make(map[string][]string)
	for _, p := range pl.Placements {
		servers[p.Desc.Name] = p.Servers
	}
	edges := simnet.ServerNodes[1:]
	for _, name := range []string{"ThingRO", "Updater", "UpdateSubscriber"} {
		got, ok := servers[name]
		if !ok {
			t.Errorf("plan lacks wiring component %s", name)
			continue
		}
		if len(got) != len(edges) {
			t.Errorf("%s on %v, want edges %v", name, got, edges)
		}
	}
	if got := servers["Thing"]; len(got) != 1 || got[0] != simnet.NodeMain {
		t.Errorf("entity Thing on %v, want [%s]", got, simnet.NodeMain)
	}
	if got := servers["Facade"]; len(got) != len(simnet.ServerNodes) {
		t.Errorf("cached façade on %v, want all servers", got)
	}

	pl = m.PlanFor(planner.Candidate{})
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pl.Placements {
		if len(p.Servers) != 1 || p.Servers[0] != simnet.NodeMain {
			t.Errorf("centralized plan places %s on %v", p.Desc.Name, p.Servers)
		}
	}
}

func TestExtensionThresholdPositive(t *testing.T) {
	m := testModel()
	ev := planner.NewEvaluator(m)
	thr := planner.ExtensionThreshold(ev.Params(), 0.5)
	if thr <= 0 {
		t.Fatalf("threshold %v, want > 0", thr)
	}
	// Doubling the write rate doubles the propagation bill and so the
	// read rate needed to justify an extension.
	thr2 := planner.ExtensionThreshold(ev.Params(), 1.0)
	if thr2 <= thr {
		t.Errorf("threshold not increasing in write rate: %v -> %v", thr, thr2)
	}
}

func TestWithObservedVisits(t *testing.T) {
	m := &planner.Model{Patterns: []planner.Pattern{
		{Name: "Browser", Visits: map[string]float64{"Main": 2, "Product": 6}},
		{Name: "Buyer", Visits: map[string]float64{"Cart": 1}},
	}}
	got := m.WithObservedVisits(map[string]map[string]float64{
		"Browser": {"Main": 0.75, "Product": 0.25},
	})
	// The Browser total (8 visits/session) is preserved, redistributed 3:1.
	bv := got.Patterns[0].Visits
	if bv["Main"] != 6 || bv["Product"] != 2 {
		t.Errorf("Browser visits = %v, want Main:6 Product:2", bv)
	}
	// Patterns without observations keep their modeled weights.
	if got.Patterns[1].Visits["Cart"] != 1 {
		t.Errorf("Buyer visits perturbed: %v", got.Patterns[1].Visits)
	}
	// The receiver is untouched.
	if m.Patterns[0].Visits["Main"] != 2 {
		t.Errorf("original model mutated: %v", m.Patterns[0].Visits)
	}
}

func TestWithObservedVisitsUnknownPagesKept(t *testing.T) {
	m := &planner.Model{Patterns: []planner.Pattern{
		{Name: "Browser", Visits: map[string]float64{"Main": 4, "Search": 4}},
	}}
	// Sampling only saw Main; Search keeps its modeled weight.
	got := m.WithObservedVisits(map[string]map[string]float64{"Browser": {"Main": 1.0}})
	bv := got.Patterns[0].Visits
	if bv["Main"] != 8 || bv["Search"] != 4 {
		t.Errorf("visits = %v, want Main:8 Search:4", bv)
	}
}

func TestWithObservedVisitsSearchSmoke(t *testing.T) {
	m := testModel()
	adapted := m.WithObservedVisits(map[string]map[string]float64{
		"Reader": {"View": 1.0},
	})
	if _, err := planner.Search(adapted); err != nil {
		t.Fatalf("Search over adapted model: %v", err)
	}
}
