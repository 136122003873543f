// Partition-aware Pet Store deployment over hierarchical topologies: Item
// and Inventory replicas hold key-space slices per edge instead of full
// copies, query caches are scoped to the local slice, and the workload
// spreads the paper's total offered load over N edge client groups.
package petstore

import (
	"fmt"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/simnet"
	"wadeploy/internal/workload"
)

// TopoOptions parameterizes a partition-aware deployment.
type TopoOptions struct {
	// Partition shards the Item and Inventory key space. Nil keeps full
	// replication (DeployTopo then equals Deploy on the same deployment).
	Partition *container.PartitionSpec
	// Assignments maps edge node -> owned partitions. Nil with a non-nil
	// Partition derives a round-robin assignment over the edges.
	Assignments core.PartitionAssignment
}

// DeployTopo installs Pet Store on an N-edge deployment with optional entity
// partitioning. The deployment usually comes from
// core.NewHierarchicalDeployment, but any deployment works — partitioning is
// orthogonal to topology.
func DeployTopo(d *core.Deployment, cfg core.ConfigID, topo TopoOptions) (*App, error) {
	if err := topo.Partition.Validate(); err != nil {
		return nil, fmt.Errorf("petstore: %w", err)
	}
	asg := topo.Assignments
	if topo.Partition != nil && asg == nil {
		edges := make([]string, 0, len(d.Edges))
		for _, e := range d.Edges {
			edges = append(edges, e.Name())
		}
		asg = core.RoundRobinAssignment(topo.Partition, edges)
	}
	return deploy(d, cfg, cfg, false, topo.Partition, asg)
}

// ownsQueryParam reports whether edge's partition slice covers a cached
// query's parameter key. Always true without partitioning; with it, each
// edge caches only query results whose key falls in its slice — the
// partition-scoped query cache — and delegates the rest to the central
// Catalog.
func (a *App) ownsQueryParam(edge *container.Server, param string) bool {
	if a.partSpec == nil {
		return true
	}
	p := a.partSpec.PartitionForKey(param)
	for _, owned := range a.partAssign[edge.Name()] {
		if owned == p {
			return true
		}
	}
	return false
}

// TopoWorkload is TopoWorkloadScaled at scale 1.
func TopoWorkload(a *App) []workload.Group { return TopoWorkloadScaled(a, 1) }

// TopoWorkloadScaled builds client groups for an N-edge deployment with the
// same total offered load as the paper's workload at the same scale: one
// local group (64 browsers / 16 buyers at scale 1) plus the paper's two
// remote groups' worth of clients (128 browsers / 32 buyers) spread over the
// N edge client groups, earlier edges taking the remainder. Holding the
// total constant is what makes the edge-count sweep a scaling curve rather
// than a load sweep.
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
		node := a.d.ClientNodeOf(edge.Name())
		groups = append(groups, a.group("remote-"+edge.Name(), node, false, browsers, writers))
	}
	return groups
}
