// Hierarchical deployments: the paper's fixed 1-main+2-edge star generalized
// to main -> regional hubs -> N edge PoPs, with entity partitions assigned
// per edge so each PoP holds a slice of the key space instead of a full
// replica.
package core

import (
	"fmt"
	"sort"

	"wadeploy/internal/container"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
)

// NewHierarchicalDeployment builds a deployment over a hierarchical topology:
// one application server on main and on every edge PoP (hubs route but host
// nothing), the database and JMS provider on main, and the per-edge client
// groups from the hierarchy. The paper deployment is untouched — this is the
// opt-in N-edge path.
func NewHierarchicalDeployment(env *sim.Env, opts Options, spec simnet.HierarchySpec) (*Deployment, *simnet.Hierarchy, error) {
	h, err := simnet.BuildHierarchy(env, spec)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	d, err := deployOn(env, h.Net, opts, h.ServerNodes(), h.ClientMap())
	if err != nil {
		return nil, nil, err
	}
	return d, h, nil
}

// PartitionAssignment maps server node -> the partition indices it owns for
// one partitioned bean. Servers absent from the map own nothing.
type PartitionAssignment map[string][]int

// RoundRobinAssignment validates spec and spreads its partitions over d's
// edges in ring order (partition p lands on Edges[p mod len(Edges)]). Nil
// spec (full replication) yields a nil assignment.
func (d *Deployment) RoundRobinAssignment(spec *container.PartitionSpec) (PartitionAssignment, error) {
	if err := spec.Validate(); err != nil || spec == nil {
		return nil, err
	}
	asg := make(PartitionAssignment, len(d.Edges))
	if len(d.Edges) == 0 {
		return asg, nil
	}
	for p := 0; p < spec.Partitions; p++ {
		e := d.Edges[p%len(d.Edges)].Name()
		asg[e] = append(asg[e], p)
	}
	return asg, nil
}

// Owned returns the sorted partition list assigned to server.
func (a PartitionAssignment) Owned(server string) []int {
	owned := append([]int(nil), a[server]...)
	sort.Ints(owned)
	return owned
}

// applyPartitioning arms a freshly deployed replica and its sync-propagation
// target with the bean's partition slice for this server. No-op for
// unpartitioned beans or beans without an assignment (full replication).
func (w *Wiring) applyPartitioning(server string, spec container.ReplicaSpec, ro *container.ROEntity) {
	if spec.Partition == nil {
		return
	}
	asg, ok := w.opts.PartitionAssignments[spec.Bean]
	if !ok {
		return
	}
	owned := asg.Owned(server)
	ro.SetOwnership(spec.Partition.Owns(owned))
	if sp, ok := w.syncProps[spec.Bean]; ok {
		t := container.SyncTarget{Server: server, Facade: w.updaterName()}
		sp.SetTargetFilter(t, spec.Partition.UpdateFilter(owned))
	}
	// Lease and async propagation stay unfiltered at the source: the
	// replica-side ownership check drops unowned pushes on arrival, and a
	// batched/topic message is shared across edges anyway.
}

// OwnsKey reports whether the replica of bean on server owns pk — the hook
// query caches use to scope cached results to the local partition slice.
// True when the bean is unpartitioned or the server is not wired.
func (w *Wiring) OwnsKey(server, bean string, pk sqldb.Value) bool {
	ro := w.Replica(server, bean)
	if ro == nil {
		return true
	}
	return ro.Owns(pk)
}
