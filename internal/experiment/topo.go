package experiment

import (
	"fmt"
	"strings"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/metrics"
	"wadeploy/internal/simnet"
)

// TopoSweepOptions is a topology sweep's base scenario. TopoSweep sets its
// App, and Hierarchy.Edges per point; the rest of a non-nil Hierarchy (link
// classes, hub count, redundancy) carries over to every point.
type TopoSweepOptions = Scenario

// TopoPoint is one measurement of the edge-count scaling sweep.
type TopoPoint struct {
	Edges      int
	Hubs       int
	Partitions int

	// Session means by pattern and locality — the per-page latency rollup.
	LocalBrowser  time.Duration
	RemoteBrowser time.Duration
	LocalWriter   time.Duration
	RemoteWriter  time.Duration

	Samples int
	Errors  int

	// WANBytes is the traffic crossing backbone/metro links (every link with
	// a hub endpoint) during the run, both directions.
	WANBytes int64
	// Msgs is the total message count across the whole network.
	Msgs int64

	// ReplicaEntries is the total entity state cached across every edge
	// replica at the end of the run — the footprint partitioning exists to
	// shrink (slices, not full copies).
	ReplicaEntries int64
	// Pushes counts replica push deliveries (sync + async); partition-scoped
	// propagation sends each write to its owners only.
	Pushes int64
}

// TopoSweep runs one scaling curve: for each edge count, build an N-edge
// hierarchy, deploy the app partition-aware, offer the paper's total load
// spread over the N edge client groups, and measure latency and WAN traffic.
// Config defaults to QueryCaching — the paper's best all-round pattern, and
// the one whose replica footprint partitioning shrinks. Same seed, same
// options: byte-identical points at any Parallelism.
func TopoSweep(app AppID, edgeCounts []int, base TopoSweepOptions) ([]TopoPoint, error) {
	base.App = app
	if base.Config == 0 {
		base.Config = core.QueryCaching
	}
	if !knownConfig(base.Config) {
		return nil, fmt.Errorf("experiment: unknown configuration %d", int(base.Config))
	}
	for _, n := range edgeCounts {
		if n < 1 {
			return nil, fmt.Errorf("experiment: topo sweep needs >= 1 edges, got %d", n)
		}
	}
	out := make([]TopoPoint, len(edgeCounts))
	err := forEachParallel(base.Parallelism, len(edgeCounts), func(i int) error {
		s := base
		var spec simnet.HierarchySpec
		if base.Hierarchy != nil {
			spec = *base.Hierarchy
		}
		spec.Edges = edgeCounts[i]
		s.Hierarchy = &spec
		r, err := s.Run()
		if err != nil {
			return fmt.Errorf("topo sweep %d edges: %w", spec.Edges, err)
		}
		sp := point(r, float64(spec.Edges))
		out[i] = TopoPoint{
			Edges:          spec.Edges,
			Hubs:           r.Hubs,
			Partitions:     s.Partitions,
			LocalBrowser:   sp.LocalBrowser,
			RemoteBrowser:  sp.RemoteBrowser,
			LocalWriter:    sp.LocalWriter,
			RemoteWriter:   sp.RemoteWriter,
			Samples:        r.Samples,
			Errors:         r.Errors,
			WANBytes:       wanBytes(r.Metrics),
			Msgs:           CounterFrom(r.Metrics, "simnet_messages_total"),
			ReplicaEntries: r.ReplicaEntries,
			Pushes:         CounterFrom(r.Metrics, "container_replica_pushes_total"),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// knownConfig reports whether cfg is one of the study's configurations.
func knownConfig(cfg core.ConfigID) bool {
	for _, c := range core.Configs {
		if cfg == c {
			return true
		}
	}
	for _, c := range core.ExtensionConfigs {
		if cfg == c {
			return true
		}
	}
	return false
}

// wanBytes sums the per-link byte counters over links with a hub endpoint —
// in a hierarchy every backbone (main<->hub) and metro (hub<->edge) link, and
// nothing else, touches a hub.
func wanBytes(s *metrics.Snapshot) int64 {
	const prefix = `simnet_link_bytes_total{link="`
	var total int64
	for _, c := range s.Counters {
		if !strings.HasPrefix(c.Name, prefix) {
			continue
		}
		link := strings.TrimSuffix(strings.TrimPrefix(c.Name, prefix), `"}`)
		if strings.Contains(link, "hub") {
			total += c.Value
		}
	}
	return total
}

// FormatTopo renders the scaling curve as an aligned table: per-pattern
// session latency plus WAN traffic per edge count.
func FormatTopo(app AppID, points []TopoPoint) string {
	var b strings.Builder
	part := "full replication"
	if len(points) > 0 && points[0].Partitions > 0 {
		part = fmt.Sprintf("%d hash partitions", points[0].Partitions)
	}
	fmt.Fprintf(&b, "topology scaling: %s, %s\n", app, part)
	fmt.Fprintf(&b, "%-6s %-5s %12s %12s %12s %12s %10s %10s %10s %8s %8s\n",
		"edges", "hubs", "loc-browse", "rem-browse", "loc-write", "rem-write", "wan-MB", "msgs", "replicas", "pushes", "errors")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-6d %-5d %12s %12s %12s %12s %10.2f %10d %10d %8d %8d\n",
			pt.Edges, pt.Hubs,
			ms(pt.LocalBrowser), ms(pt.RemoteBrowser), ms(pt.LocalWriter), ms(pt.RemoteWriter),
			float64(pt.WANBytes)/(1024*1024), pt.Msgs, pt.ReplicaEntries, pt.Pushes, pt.Errors)
	}
	return b.String()
}
