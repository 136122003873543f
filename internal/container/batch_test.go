package container

import (
	"errors"
	"strings"
	"testing"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
)

func TestExtendedDescriptorValidateReplicationRules(t *testing.T) {
	good := []*ExtendedDescriptor{
		{Replicas: []ReplicaSpec{{Bean: "A", Update: LeaseUpdate, Refresh: PushRefresh, MaxStaleness: time.Second}}},
		{Replicas: []ReplicaSpec{{Bean: "A", Update: LeaseUpdate, Refresh: PushRefresh, BatchWindow: 100 * time.Millisecond}}},
		{Topic: "t", Replicas: []ReplicaSpec{{Bean: "A", Update: AsyncUpdate, Refresh: PushRefresh, BatchWindow: 100 * time.Millisecond}}},
		{Replicas: []ReplicaSpec{{Bean: "A", Update: SyncUpdate, Refresh: PushRefresh, FullState: true}}},
	}
	for i, d := range good {
		if err := d.Validate(); err != nil {
			t.Errorf("good[%d]: rejected: %v", i, err)
		}
	}
	bad := []struct {
		d    *ExtendedDescriptor
		want string
	}{
		{&ExtendedDescriptor{Replicas: []ReplicaSpec{{Bean: "A", Refresh: PushRefresh}}}, "update mode not set"},
		{&ExtendedDescriptor{Replicas: []ReplicaSpec{{Bean: "A", Update: SyncUpdate}}}, "refresh mode not set"},
		{&ExtendedDescriptor{Replicas: []ReplicaSpec{{Bean: "A", Update: SyncUpdate, Refresh: PushRefresh, DeltaPush: true, FullState: true}}}, "conflicts with full-state"},
		{&ExtendedDescriptor{Replicas: []ReplicaSpec{{Bean: "A", Update: SyncUpdate, Refresh: PushRefresh, MaxStaleness: -1}}}, "negative max staleness"},
		{&ExtendedDescriptor{Replicas: []ReplicaSpec{{Bean: "A", Update: SyncUpdate, Refresh: PushRefresh, BatchWindow: -1}}}, "negative batch window"},
		{&ExtendedDescriptor{Replicas: []ReplicaSpec{{Bean: "A", Update: LeaseUpdate, Refresh: PullRefresh, MaxStaleness: time.Second}}}, "lease update requires push refresh"},
		{&ExtendedDescriptor{Replicas: []ReplicaSpec{{Bean: "A", Update: LeaseUpdate, Refresh: PushRefresh}}}, "staleness budget"},
		{&ExtendedDescriptor{Replicas: []ReplicaSpec{{Bean: "A", Update: SyncUpdate, Refresh: PushRefresh, BatchWindow: time.Second}}}, "sync updates are unbatched"},
	}
	for i, c := range bad {
		err := c.d.Validate()
		if !errors.Is(err, ErrBadDescriptor) {
			t.Errorf("bad[%d]: err = %v, want ErrBadDescriptor", i, err)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("bad[%d]: err = %v, want substring %q", i, err, c.want)
		}
	}
	if LeaseUpdate.String() != "lease" {
		t.Fatalf("LeaseUpdate.String() = %q", LeaseUpdate.String())
	}
}

func TestCoalesceUpdatesLastWriterWins(t *testing.T) {
	in := []Update{
		{Bean: "A", PK: sqldb.Str("1"), Delta: true, State: State{"x": sqldb.Int(1)}, CommittedAt: 1},
		{Bean: "B", PK: sqldb.Str("1"), Delta: true, State: State{"x": sqldb.Int(7)}, CommittedAt: 2},
		{Bean: "A", PK: sqldb.Str("1"), Delta: true, State: State{"y": sqldb.Int(2)}, CommittedAt: 3},
		{Bean: "A", PK: sqldb.Str("1"), Delta: true, State: State{"x": sqldb.Int(9)}, CommittedAt: 4},
	}
	out := CoalesceUpdates(in)
	if len(out) != 2 {
		t.Fatalf("coalesced to %d updates, want 2", len(out))
	}
	// First appearance order: A before B.
	a := out[0]
	if a.Bean != "A" || a.State["x"].AsInt() != 9 || a.State["y"].AsInt() != 2 || a.CommittedAt != 4 {
		t.Fatalf("A coalesced wrong: %+v", a)
	}
	if out[1].Bean != "B" || out[1].State["x"].AsInt() != 7 {
		t.Fatalf("B coalesced wrong: %+v", out[1])
	}
	// Input must not be mutated (the log replay path shares the entries).
	if in[0].State["x"].AsInt() != 1 || len(in[0].State) != 1 {
		t.Fatalf("input update mutated: %+v", in[0])
	}
}

func TestCoalesceUpdatesDeleteAndReinsert(t *testing.T) {
	in := []Update{
		{Bean: "A", PK: sqldb.Str("1"), Delta: true, State: State{"x": sqldb.Int(1)}},
		{Bean: "A", PK: sqldb.Str("1"), Deleted: true},
		{Bean: "A", PK: sqldb.Str("2"), Deleted: true},
		{Bean: "A", PK: sqldb.Str("2"), State: State{"x": sqldb.Int(5)}},
	}
	out := CoalesceUpdates(in)
	if len(out) != 2 {
		t.Fatalf("coalesced to %d updates, want 2", len(out))
	}
	if !out[0].Deleted {
		t.Fatalf("pk 1 should coalesce to a tombstone: %+v", out[0])
	}
	if out[1].Deleted || out[1].Delta || out[1].State["x"].AsInt() != 5 {
		t.Fatalf("pk 2 should coalesce to the re-inserted full state: %+v", out[1])
	}
}

func TestBatchingPropagatorValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := NewBatchingPropagator(f.main, 0, "t", nil, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := NewBatchingPropagator(f.main, time.Second, "t", []SyncTarget{{Server: "edge", Facade: "U"}}, 0); err == nil {
		t.Fatal("topic+targets accepted")
	}
}

// wireBatched deploys a delta-push RW on main and a push-fed replica on edge
// joined by a target-mode (lease) batching propagator with the given window.
func wireBatched(t *testing.T, f *fixture, window time.Duration) (*RWEntity, *ROEntity, *BatchingPropagator) {
	t.Helper()
	rw, err := DeployRWEntity(f.main, "InvRW", "inventory", "item_id")
	if err != nil {
		t.Fatal(err)
	}
	rw.SetDeltaPush(true)
	ro, err := DeployROEntity(f.edge, "InvRO", nil)
	if err != nil {
		t.Fatal(err)
	}
	uf, err := DeployUpdaterFacade(f.edge, "Updater")
	if err != nil {
		t.Fatal(err)
	}
	uf.Register("InvRW", ro)
	ro.Preload(sqldb.Str("i1"), State{"item_id": sqldb.Str("i1"), "qty": sqldb.Int(10)})
	ro.Preload(sqldb.Str("i2"), State{"item_id": sqldb.Str("i2"), "qty": sqldb.Int(5)})
	bp, err := NewBatchingPropagator(f.main, window, "", []SyncTarget{{Server: "edge", Facade: "Updater"}}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	rw.AddPropagator(bp)
	return rw, ro, bp
}

func TestBatchingPropagatorCoalescesOneMessagePerWindow(t *testing.T) {
	f := newFixture(t)
	rw, ro, bp := wireBatched(t, f, 200*time.Millisecond)
	f.run(t, func(p *sim.Proc) {
		// Five commits to i1 plus one to i2 inside one window: one WAN
		// message carrying two coalesced deltas.
		for i := 1; i <= 5; i++ {
			if _, err := rw.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(int64(100 + i))}); err != nil {
				t.Errorf("update: %v", err)
			}
		}
		if _, err := rw.UpdateFields(p, sqldb.Str("i2"), State{"qty": sqldb.Int(50)}); err != nil {
			t.Errorf("update: %v", err)
		}
		commitDone := p.Now()
		p.Sleep(time.Second) // window flush + WAN delivery
		if got := p.Now() - commitDone; got < time.Second {
			t.Errorf("writer slept %v, want a full second (writer must not block on the WAN)", got)
		}
		st, err := ro.Get(p, sqldb.Str("i1"))
		if err != nil || st["qty"].AsInt() != 105 {
			t.Errorf("i1 after flush: %v, %v (want qty 105)", st, err)
		}
		st, err = ro.Get(p, sqldb.Str("i2"))
		if err != nil || st["qty"].AsInt() != 50 {
			t.Errorf("i2 after flush: %v, %v (want qty 50)", st, err)
		}
	})
	if bp.Commits() != 6 || bp.Coalesced() != 4 {
		t.Fatalf("commits=%d coalesced=%d, want 6/4", bp.Commits(), bp.Coalesced())
	}
	if bp.Flushes() != 1 || bp.Messages() != 1 {
		t.Fatalf("flushes=%d messages=%d, want 1/1", bp.Flushes(), bp.Messages())
	}
	if bp.WireBytesTotal() <= 0 {
		t.Fatal("no wire bytes accounted")
	}
}

func TestBatchingPropagatorSeparateWindows(t *testing.T) {
	f := newFixture(t)
	rw, ro, bp := wireBatched(t, f, 50*time.Millisecond)
	f.run(t, func(p *sim.Proc) {
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(1)}); err != nil {
			t.Errorf("update: %v", err)
		}
		p.Sleep(500 * time.Millisecond) // window 1 flushed, batcher idle
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(2)}); err != nil {
			t.Errorf("update: %v", err)
		}
		p.Sleep(500 * time.Millisecond)
		st, err := ro.Get(p, sqldb.Str("i1"))
		if err != nil || st["qty"].AsInt() != 2 {
			t.Errorf("i1: %v, %v (want qty 2)", st, err)
		}
	})
	if bp.Flushes() != 2 || bp.Messages() != 2 {
		t.Fatalf("flushes=%d messages=%d, want 2/2 (idle gap must close the window)", bp.Flushes(), bp.Messages())
	}
}

func TestBatchingPropagatorTopicMode(t *testing.T) {
	f := newFixture(t)
	rw, err := DeployRWEntity(f.main, "InvRW", "inventory", "item_id")
	if err != nil {
		t.Fatal(err)
	}
	rw.SetDeltaPush(true)
	ro, err := DeployROEntity(f.edge, "InvRO", nil)
	if err != nil {
		t.Fatal(err)
	}
	uf, err := DeployUpdaterFacade(f.edge, "Updater")
	if err != nil {
		t.Fatal(err)
	}
	uf.Register("InvRW", ro)
	ro.Preload(sqldb.Str("i1"), State{"item_id": sqldb.Str("i1"), "qty": sqldb.Int(10)})
	bp, err := NewBatchingPropagator(f.main, 100*time.Millisecond, "updates", nil, 1024)
	if err != nil {
		t.Fatal(err)
	}
	rw.AddPropagator(bp)
	if _, err := DeployUpdateSubscriber(f.edge, "Sub", "updates", uf); err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		for i := 1; i <= 3; i++ {
			if _, err := rw.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(int64(i))}); err != nil {
				t.Errorf("update: %v", err)
			}
		}
		p.Sleep(time.Second)
		st, err := ro.Get(p, sqldb.Str("i1"))
		if err != nil || st["qty"].AsInt() != 3 {
			t.Errorf("i1: %v, %v (want qty 3)", st, err)
		}
	})
	if bp.Messages() != 1 {
		t.Fatalf("messages=%d, want one JMS publish for the window", bp.Messages())
	}
}

// The coalescing hot path (a same-key delta folding into an already-pending
// update inside an armed window) must stay allocation-flat: the only
// allocation allowed is the pk-key string the propagator chain already pays
// everywhere else.
func TestBatchingPropagatorCoalesceAllocs(t *testing.T) {
	f := newFixture(t)
	bp, err := NewBatchingPropagator(f.main, time.Second, "", []SyncTarget{{Server: "edge", Facade: "Updater"}}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	seedBatch := []Update{{Bean: "Inv", PK: sqldb.Str("i1"), Delta: true, State: State{"qty": sqldb.Int(0)}}}
	if err := bp.Propagate(nil, seedBatch); err != nil { // arms the window, inserts the pending entry
		t.Fatal(err)
	}
	batch := []Update{{Bean: "Inv", PK: sqldb.Str("i1"), Delta: true, State: State{"qty": sqldb.Int(1)}}}
	allocs := testing.AllocsPerRun(200, func() {
		if err := bp.Propagate(nil, batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("coalescing a pending same-key delta allocates %.1f times per commit, want <= 1 (the pk key)", allocs)
	}
}
