// Partition-aware RUBiS deployment over hierarchical topologies. RUBiS keeps
// it minimal: the Item replica (the hot, large table) shards per edge; User
// replicas and the query caches stay full, because edge authentication and
// the browse/search caches need global coverage.
package rubis

import (
	"fmt"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/simnet"
	"wadeploy/internal/workload"
)

// TopoOptions parameterizes a partition-aware RUBiS deployment.
type TopoOptions struct {
	// Partition shards the Item key space (item ids are decimal strings for
	// partitioning purposes, so HashPartition is the natural scheme). Nil
	// keeps full replication.
	Partition *container.PartitionSpec
	// Assignments maps edge node -> owned partitions; nil with a non-nil
	// Partition derives a round-robin assignment over the edges.
	Assignments core.PartitionAssignment
}

// DeployTopo installs RUBiS on an N-edge deployment with the Item replica
// optionally partitioned.
func DeployTopo(d *core.Deployment, cfg core.ConfigID, topo TopoOptions) (*App, error) {
	if err := topo.Partition.Validate(); err != nil {
		return nil, fmt.Errorf("rubis: %w", err)
	}
	asg := topo.Assignments
	if topo.Partition != nil && asg == nil {
		edges := make([]string, 0, len(d.Edges))
		for _, e := range d.Edges {
			edges = append(edges, e.Name())
		}
		asg = core.RoundRobinAssignment(topo.Partition, edges)
	}
	if err := InitSchema(d.DB); err != nil {
		return nil, err
	}
	a := &App{
		d:          d,
		cfg:        cfg,
		partSpec:   topo.Partition,
		partAssign: asg,
		bidSeq:     int64(NumItems * SeedBidsPerItem),
		commentSeq: int64(SeedComments),
		costs:      DefaultPageCosts(),
	}
	if err := a.deployEntities(); err != nil {
		return nil, err
	}
	if err := a.deployMainFacades(); err != nil {
		return nil, err
	}
	for _, srv := range a.activeServers() {
		a.registerPages(srv)
	}
	if cfg.AtLeast(core.StatefulCaching) {
		if err := a.wireReplicas(); err != nil {
			return nil, err
		}
		if err := a.deployEdgeFacades(); err != nil {
			return nil, err
		}
	}
	if err := a.Plan().Validate(); err != nil {
		return nil, fmt.Errorf("rubis: %w", err)
	}
	return a, nil
}

// TopoWorkload is TopoWorkloadScaled at scale 1.
func TopoWorkload(a *App) []workload.Group { return TopoWorkloadScaled(a, 1) }

// TopoWorkloadScaled builds client groups for an N-edge deployment with the
// paper's total offered load: one local group (64/16 at scale 1) plus the
// two remote groups' combined population (128 browsers / 32 bidders) spread
// deterministically over the N edge client groups.
func TopoWorkloadScaled(a *App, scale float64) []workload.Group {
	localBrowsers := int(64*scale + 0.5)
	localWriters := int(16*scale + 0.5)
	if localBrowsers < 1 {
		localBrowsers = 1
	}
	if localWriters < 1 {
		localWriters = 1
	}
	edges := a.d.Edges
	n := len(edges)
	remoteBrowsers := int(128*scale + 0.5)
	remoteWriters := int(32*scale + 0.5)

	groups := make([]workload.Group, 0, 1+n)
	groups = append(groups, a.group("local", simnet.NodeClientsMain, true, localBrowsers, localWriters))
	for i, edge := range edges {
		browsers := remoteBrowsers / n
		if i < remoteBrowsers%n {
			browsers++
		}
		writers := remoteWriters / n
		if i < remoteWriters%n {
			writers++
		}
		groups = append(groups, a.group("remote-"+edge.Name(), a.d.ClientNodeOf(edge.Name()), false, browsers, writers))
	}
	return groups
}
