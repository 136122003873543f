package container

import (
	"fmt"
	"time"

	"wadeploy/internal/metrics"
	"wadeploy/internal/sim"
	"wadeploy/internal/trace"
)

// mergeUpdate folds a later commit onto an accumulated one for the same
// entity, last-writer-wins per field. The accumulator owns its State map
// (callers clone on first insert), so delta-onto-delta and delta-onto-full
// merges write in place without allocating; deletes, full-state pushes and
// writes after a delete replace the accumulator wholesale.
func mergeUpdate(acc *Update, u Update) {
	switch {
	case u.Deleted, !u.Delta, acc.Deleted:
		st := u.State
		if st != nil {
			st = st.Clone()
		}
		*acc = u
		acc.State = st
	default:
		for k, v := range u.State {
			acc.State[k] = v
		}
		acc.CommittedAt = u.CommittedAt
	}
}

// CoalesceUpdates collapses a commit-ordered batch so each entity appears
// once, carrying the last-writer-wins merge of everything that happened to
// it (N commits to the same bean collapse to one delta). Entities keep the
// order of their first appearance; input updates are never mutated. Both
// the batching propagator and replog replay use this, so "coalesced push"
// and "coalesced log replay" are the same operation by construction.
func CoalesceUpdates(updates []Update) []Update {
	if len(updates) <= 1 {
		return updates
	}
	out := make([]Update, 0, len(updates))
	index := make(map[updateKey]int, len(updates))
	for _, u := range updates {
		k := updateKey{u.Bean, pkKey(u.PK)}
		if i, ok := index[k]; ok {
			mergeUpdate(&out[i], u)
			continue
		}
		index[k] = len(out)
		c := u
		if c.State != nil {
			c.State = c.State.Clone()
		}
		out = append(out, c)
	}
	return out
}

type updateKey struct {
	bean string
	pk   string
}

// BatchingPropagator implements bounded-staleness (lease) and batched-async
// propagation: the writer's Propagate returns immediately after coalescing
// the commit into the pending window, and a timer flushes everything
// committed inside one tick window as a single WAN message per destination
// — M beans share the message, N commits to one entity collapse to its
// last-writer delta. With a topic it publishes one JMS message per window
// (batched async); with RMI targets it pushes one apply batch per edge per
// window (the lease: staleness is bounded by window + one-way WAN delay).
type BatchingPropagator struct {
	srv     *Server
	window  time.Duration
	topic   string       // topic mode: one JMS publish per window
	targets []SyncTarget // target mode: one RMI push per (edge, window)
	bytes   int          // full-state record size, as SyncPropagator

	// BestEffort skips unreachable targets instead of surfacing the error
	// (flushes are off the writer's critical path either way).
	BestEffort bool

	pending []Update
	index   map[updateKey]int
	armed   bool

	commits   int64
	coalesced int64
	flushes   int64
	messages  int64
	wireBytes int64

	mCommits   *metrics.Counter
	mCoalesced *metrics.Counter
	mFlushes   *metrics.Counter
	mMessages  *metrics.Counter
	mBytes     *metrics.Counter
}

// NewBatchingPropagator creates a lease/batched propagator on srv flushing
// every window. Exactly one of topic (JMS mode) or targets (RMI lease mode)
// selects the transport; targets may start empty and be added later by the
// wiring. The push_batch_* metric family registers here, so paper-default
// runs (which never construct a batcher) keep their metric snapshots
// byte-identical.
func NewBatchingPropagator(srv *Server, window time.Duration, topic string, targets []SyncTarget, msgBytes int) (*BatchingPropagator, error) {
	if window <= 0 {
		return nil, fmt.Errorf("container: batching propagator on %s: window must be positive", srv.name)
	}
	if topic != "" && len(targets) > 0 {
		return nil, fmt.Errorf("container: batching propagator on %s: topic and targets are exclusive", srv.name)
	}
	if topic != "" {
		if srv.jms == nil {
			return nil, fmt.Errorf("container: batching propagator on %s: no JMS provider", srv.name)
		}
		srv.jms.CreateTopic(topic)
	}
	if msgBytes <= 0 {
		msgBytes = 1024
	}
	reg := srv.Env().Metrics()
	return &BatchingPropagator{
		srv: srv, window: window, topic: topic, targets: targets, bytes: msgBytes,
		index:      make(map[updateKey]int),
		mCommits:   reg.Counter("push_batch_commits_total"),
		mCoalesced: reg.Counter("push_batch_coalesced_total"),
		mFlushes:   reg.Counter("push_batch_flushes_total"),
		mMessages:  reg.Counter("push_batch_messages_total"),
		mBytes:     reg.Counter("push_batch_bytes_total"),
	}, nil
}

// Window returns the tick window (the staleness bound the lease enforces,
// up to one-way WAN delivery on top).
func (bp *BatchingPropagator) Window() time.Duration { return bp.window }

// Commits returns how many committed updates entered the batcher.
func (bp *BatchingPropagator) Commits() int64 { return bp.commits }

// Coalesced returns how many commits were folded into an already-pending
// update for the same entity (WAN messages saved by last-writer-wins).
func (bp *BatchingPropagator) Coalesced() int64 { return bp.coalesced }

// Flushes returns how many non-empty windows were flushed.
func (bp *BatchingPropagator) Flushes() int64 { return bp.flushes }

// Messages returns how many WAN messages (JMS publishes or per-target RMI
// pushes) the batcher sent.
func (bp *BatchingPropagator) Messages() int64 { return bp.messages }

// WireBytesTotal returns the cumulative payload bytes sent.
func (bp *BatchingPropagator) WireBytesTotal() int64 { return bp.wireBytes }

// AddTarget attaches another lease destination at runtime (demand-driven
// extension). Adding an existing target is a no-op.
func (bp *BatchingPropagator) AddTarget(t SyncTarget) {
	for _, cur := range bp.targets {
		if cur == t {
			return
		}
	}
	bp.targets = append(bp.targets, t)
}

// RemoveTarget detaches a lease destination (suspension of pushes to a
// partitioned edge). Removing an absent target is a no-op.
func (bp *BatchingPropagator) RemoveTarget(t SyncTarget) {
	for i, cur := range bp.targets {
		if cur == t {
			bp.targets = append(bp.targets[:i], bp.targets[i+1:]...)
			return
		}
	}
}

// Targets returns the number of lease destinations.
func (bp *BatchingPropagator) Targets() int { return len(bp.targets) }

// Propagate coalesces the commits into the pending window and returns —
// the writer never waits on the WAN. The first commit of an idle window
// arms the flush timer, so an idle system schedules no events at all.
func (bp *BatchingPropagator) Propagate(p *sim.Proc, updates []Update) error {
	for _, u := range updates {
		bp.commits++
		bp.mCommits.Inc()
		k := updateKey{u.Bean, pkKey(u.PK)}
		if i, ok := bp.index[k]; ok {
			mergeUpdate(&bp.pending[i], u)
			bp.coalesced++
			bp.mCoalesced.Inc()
			continue
		}
		bp.index[k] = len(bp.pending)
		c := u
		if c.State != nil {
			c.State = c.State.Clone()
		}
		bp.pending = append(bp.pending, c)
	}
	if !bp.armed && len(bp.pending) > 0 {
		bp.armed = true
		bp.srv.Env().After(bp.window, bp.flush)
	}
	return nil
}

// batchBytes sizes the flushed message like SyncPropagator: deltas and
// deletes ride their WireBytes estimate, full-state the record size.
func (bp *BatchingPropagator) batchBytes(batch []Update) int {
	total := 0
	for _, u := range batch {
		if u.Delta || u.Deleted {
			total += u.WireBytes()
		} else {
			total += bp.bytes
		}
	}
	if total <= 0 {
		total = bp.bytes
	}
	return total
}

// flush ships the pending window. It runs from the timer callback, so the
// actual sends happen on a spawned process (both jms.Publish and RMI need
// one); the next window arms on its first commit.
func (bp *BatchingPropagator) flush() {
	bp.armed = false
	if len(bp.pending) == 0 {
		return
	}
	batch := bp.pending
	bp.pending = nil
	clear(bp.index)
	bp.flushes++
	bp.mFlushes.Inc()
	payload := bp.batchBytes(batch)
	env := bp.srv.Env()
	if bp.topic != "" {
		env.Spawn("push-batch:"+bp.topic, func(p *sim.Proc) {
			defer trace.Opf(p, "jms", bp.srv.name, "", trace.CauseService, "batch publish ", bp.topic, "")()
			if err := bp.srv.jms.Publish(p, bp.srv.name, bp.topic, batch, payload); err != nil {
				return
			}
			bp.messages++
			bp.mMessages.Inc()
			bp.wireBytes += int64(payload)
			bp.mBytes.Add(int64(payload))
		})
		return
	}
	for _, t := range bp.targets {
		t := t
		env.Spawn("push-batch:"+t.Server, func(p *sim.Proc) {
			defer trace.Op(p, "push", "lease batch", bp.srv.name, t.Server, trace.CauseService)()
			stub, err := bp.srv.StubFor(p, t.Server, t.Facade)
			if err == nil {
				_, err = stub.InvokeSized(p, MethodApply, payload, 64, batch)
			}
			if err != nil {
				// Off-writer flush: nothing to fail. Best-effort and
				// strict leases differ only in whether the miss counts
				// as a skip; the replica's MaxStaleness fetch path is
				// the safety net either way.
				return
			}
			bp.messages++
			bp.mMessages.Inc()
			bp.wireBytes += int64(payload)
			bp.mBytes.Add(int64(payload))
		})
	}
}
