package wadeploy

// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation section, plus ablation benchmarks for the design choices the
// patterns rest on. Each table/figure iteration executes a shortened but
// complete experiment run (full workload, warm-up discarded) and reports the
// measured response-time metrics alongside the usual ns/op of driving the
// simulation.
//
//	go test -bench=Table6 -benchmem        # Pet Store, all five configs
//	go test -bench=Figure8                 # RUBiS session averages
//	go test -bench=Ablation                # design-choice ablations

import (
	"fmt"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/controller"
	"wadeploy/internal/core"
	"wadeploy/internal/experiment"
	"wadeploy/internal/petstore"
	"wadeploy/internal/rmi"
	"wadeploy/internal/rubis"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/trace"
	"wadeploy/internal/web"
	"wadeploy/internal/workload"
)

// benchRunOptions keeps per-iteration cost low while preserving the shapes.
func benchRunOptions() experiment.RunOptions {
	return experiment.RunOptions{Seed: 1, Warmup: 20 * time.Second, Duration: 2 * time.Minute}
}

func reportMs(b *testing.B, name string, d time.Duration) {
	b.ReportMetric(float64(d)/float64(time.Millisecond), name)
}

// benchTableConfig runs one (app, config) cell set per iteration and reports
// the paper's headline metrics for that row.
func benchTableConfig(b *testing.B, app experiment.AppID, cfg core.ConfigID) {
	var last *experiment.Result
	for i := 0; i < b.N; i++ {
		r, err := experiment.Run(app, cfg, benchRunOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.StopTimer()
	if last == nil {
		return
	}
	browser, writer := petstore.PatternBrowser, petstore.PatternBuyer
	if app == experiment.RUBiS {
		browser, writer = rubis.PatternBrowser, rubis.PatternBidder
	}
	reportMs(b, "loc-browse-ms", last.SessionMeans[browser][true])
	reportMs(b, "rem-browse-ms", last.SessionMeans[browser][false])
	reportMs(b, "loc-write-ms", last.SessionMeans[writer][true])
	reportMs(b, "rem-write-ms", last.SessionMeans[writer][false])
}

// --- Table 6: Pet Store per-page response times, five configurations. ---

func BenchmarkTable6Centralized(b *testing.B) {
	benchTableConfig(b, experiment.PetStore, core.Centralized)
}

func BenchmarkTable6RemoteFacade(b *testing.B) {
	benchTableConfig(b, experiment.PetStore, core.RemoteFacade)
}

func BenchmarkTable6StatefulCaching(b *testing.B) {
	benchTableConfig(b, experiment.PetStore, core.StatefulCaching)
}

func BenchmarkTable6QueryCaching(b *testing.B) {
	benchTableConfig(b, experiment.PetStore, core.QueryCaching)
}

func BenchmarkTable6AsyncUpdates(b *testing.B) {
	benchTableConfig(b, experiment.PetStore, core.AsyncUpdates)
}

// --- Table 7: RUBiS per-page response times, five configurations. ---

func BenchmarkTable7Centralized(b *testing.B) {
	benchTableConfig(b, experiment.RUBiS, core.Centralized)
}

func BenchmarkTable7RemoteFacade(b *testing.B) {
	benchTableConfig(b, experiment.RUBiS, core.RemoteFacade)
}

func BenchmarkTable7StatefulCaching(b *testing.B) {
	benchTableConfig(b, experiment.RUBiS, core.StatefulCaching)
}

func BenchmarkTable7QueryCaching(b *testing.B) {
	benchTableConfig(b, experiment.RUBiS, core.QueryCaching)
}

func BenchmarkTable7AsyncUpdates(b *testing.B) {
	benchTableConfig(b, experiment.RUBiS, core.AsyncUpdates)
}

// --- Figures 7 and 8: session-average bars across all configurations. ---

func benchFigure(b *testing.B, app experiment.AppID) {
	var results []*experiment.Result
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiment.RunTable(app, benchRunOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if results == nil {
		return
	}
	// Report the final configuration's bars: the paper's punchline.
	final := results[len(results)-1]
	for pat, byLocal := range final.SessionMeans {
		reportMs(b, "final-loc-"+pat+"-ms", byLocal[true])
		reportMs(b, "final-rem-"+pat+"-ms", byLocal[false])
	}
}

func BenchmarkFigure7PetStoreSessions(b *testing.B) { benchFigure(b, experiment.PetStore) }

func BenchmarkFigure8RUBiSSessions(b *testing.B) { benchFigure(b, experiment.RUBiS) }

// --- Ablations: the design choices behind the patterns. ---

// benchEnv builds a two-server WAN for micro-ablation runs.
func benchEnv(b *testing.B, seed int64) (*sim.Env, *simnet.Network) {
	b.Helper()
	env := sim.NewEnv(seed)
	net, err := simnet.PaperTopology(env)
	if err != nil {
		b.Fatal(err)
	}
	return env, net
}

// BenchmarkAblationStubCaching quantifies the EJBHomeFactory pattern: the
// per-call cost of a remote invocation with cached stubs vs a fresh JNDI
// lookup on every call.
func BenchmarkAblationStubCaching(b *testing.B) {
	for _, cached := range []bool{true, false} {
		name := "uncached-lookup"
		if cached {
			name = "cached-stub"
		}
		b.Run(name, func(b *testing.B) {
			env, net := benchEnv(b, 3)
			rt := rmi.NewRuntime(net, rmi.DefaultOptions)
			if _, err := rt.Bind(simnet.NodeMain, "svc", func(p *sim.Proc, c *rmi.Call) (any, error) {
				return nil, nil
			}); err != nil {
				b.Fatal(err)
			}
			var mean time.Duration
			env.Spawn("caller", func(p *sim.Proc) {
				cache := rmi.NewStubCache(rt, simnet.NodeEdge1)
				if cached {
					// Warm the cache: the one-time lookup is the point
					// of the pattern, not part of steady-state cost.
					if _, err := cache.Get(p, simnet.NodeMain, "svc"); err != nil {
						b.Fatal(err)
					}
				}
				var total time.Duration
				for i := 0; i < b.N; i++ {
					start := p.Now()
					var stub *rmi.Stub
					var err error
					if cached {
						stub, err = cache.Get(p, simnet.NodeMain, "svc")
					} else {
						stub, err = rt.Lookup(p, simnet.NodeEdge1, simnet.NodeMain, "svc")
					}
					if err != nil {
						b.Fatal(err)
					}
					if _, err := stub.Invoke(p, "m"); err != nil {
						b.Fatal(err)
					}
					total += p.Now() - start
				}
				mean = total / time.Duration(b.N)
			})
			env.RunAll()
			env.Close()
			reportMs(b, "call-ms", mean)
		})
	}
}

// BenchmarkAblationRMIRounds sweeps the RMI rounds-per-call factor the paper
// attributes to ping/DGC traffic.
func BenchmarkAblationRMIRounds(b *testing.B) {
	for _, rounds := range []float64{1.0, 1.25, 1.5, 2.0} {
		b.Run(time.Duration(rounds*float64(time.Second)).String(), func(b *testing.B) {
			env, net := benchEnv(b, 3)
			opts := rmi.DefaultOptions
			opts.Rounds = rounds
			rt := rmi.NewRuntime(net, opts)
			if _, err := rt.Bind(simnet.NodeMain, "svc", func(p *sim.Proc, c *rmi.Call) (any, error) {
				return nil, nil
			}); err != nil {
				b.Fatal(err)
			}
			var mean time.Duration
			env.Spawn("caller", func(p *sim.Proc) {
				stub, err := rt.LocalStub(simnet.NodeEdge1, simnet.NodeMain, "svc")
				if err != nil {
					b.Fatal(err)
				}
				var total time.Duration
				for i := 0; i < b.N; i++ {
					start := p.Now()
					if _, err := stub.Invoke(p, "m"); err != nil {
						b.Fatal(err)
					}
					total += p.Now() - start
				}
				mean = total / time.Duration(b.N)
			})
			env.RunAll()
			env.Close()
			reportMs(b, "call-ms", mean)
		})
	}
}

// BenchmarkAblationSyncVsAsyncPush measures the writer-observed cost of one
// replicated entity update under blocking RMI push vs JMS publication — the
// Section 4.3 vs 4.5 trade-off in isolation.
func BenchmarkAblationSyncVsAsyncPush(b *testing.B) {
	for _, mode := range []container.UpdateMode{container.SyncUpdate, container.AsyncUpdate} {
		b.Run(mode.String(), func(b *testing.B) {
			env := sim.NewEnv(5)
			d, err := core.NewPaperDeployment(env, core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := d.DB.Exec(`CREATE TABLE kv (id INT PRIMARY KEY, v INT NOT NULL)`); err != nil {
				b.Fatal(err)
			}
			if _, err := d.DB.Exec(`INSERT INTO kv VALUES (1, 0)`); err != nil {
				b.Fatal(err)
			}
			rw, err := container.DeployRWEntity(d.Main, "KV", "kv", "id")
			if err != nil {
				b.Fatal(err)
			}
			d.RegisterRW(rw)
			if _, err := core.AutoWire(d, &container.ExtendedDescriptor{
				Topic: "kv-updates",
				Replicas: []container.ReplicaSpec{
					{Bean: "KV", Update: mode, Refresh: container.PushRefresh},
				},
			}, core.WireOptions{PushBytes: 256}); err != nil {
				b.Fatal(err)
			}
			var mean time.Duration
			env.Spawn("writer", func(p *sim.Proc) {
				var total time.Duration
				for i := 0; i < b.N; i++ {
					start := p.Now()
					if _, err := rw.UpdateFields(p, sqldb.Int(1), container.State{
						"v": sqldb.Int(int64(i)),
					}); err != nil {
						b.Fatal(err)
					}
					total += p.Now() - start
				}
				mean = total / time.Duration(b.N)
			})
			env.RunAll()
			env.Close()
			reportMs(b, "write-ms", mean)
		})
	}
}

// BenchmarkAblationQueryCacheHit compares serving an aggregate query from an
// edge query cache against re-executing it across the WAN.
func BenchmarkAblationQueryCacheHit(b *testing.B) {
	run := func(b *testing.B, warm bool) {
		env := sim.NewEnv(6)
		d, err := core.NewPaperDeployment(env, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		edge := d.Edges[0]
		qc := container.NewQueryCache(edge, "bench", func(p *sim.Proc, key string) (any, error) {
			// One wide-area round trip stands in for the remote façade.
			if err := d.Net.Transfer(p, edge.Name(), d.Main.Name(), 256); err != nil {
				return nil, err
			}
			if err := d.Net.Transfer(p, d.Main.Name(), edge.Name(), 2048); err != nil {
				return nil, err
			}
			return "rows", nil
		})
		var mean time.Duration
		env.Spawn("reader", func(p *sim.Proc) {
			if warm {
				if _, err := qc.Get(p, "q:1"); err != nil {
					b.Fatal(err)
				}
			}
			var total time.Duration
			for i := 0; i < b.N; i++ {
				if !warm {
					qc.InvalidatePrefix("")
				}
				start := p.Now()
				if _, err := qc.Get(p, "q:1"); err != nil {
					b.Fatal(err)
				}
				total += p.Now() - start
			}
			mean = total / time.Duration(b.N)
		})
		env.RunAll()
		env.Close()
		reportMs(b, "read-ms", mean)
	}
	b.Run("cache-hit", func(b *testing.B) { run(b, true) })
	b.Run("wan-refetch", func(b *testing.B) { run(b, false) })
}

// --- Substrate micro-benchmarks (real CPU cost, not virtual time). ---

func BenchmarkSubstrateSQLPointQuery(b *testing.B) {
	db := sqldb.New()
	if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := db.Exec(`INSERT INTO t VALUES (?, ?)`, sqldb.Int(int64(i)), sqldb.Str("value")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT v FROM t WHERE id = ?`, sqldb.Int(int64(i%1000))); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTick is a self-rescheduling task; the fleet stops when the shared
// countdown reaches zero.
type benchTick struct {
	remaining *int64
	period    time.Duration
}

func (t *benchTick) Fire(e *sim.Env) {
	if *t.remaining <= 0 {
		return
	}
	*t.remaining--
	e.AfterTask(t.period, t)
}

// BenchmarkSubstrateSimEventThroughput measures the engine's event hot path
// — the timer wheel plus the closure-free task dispatch that the streaming
// workload engine schedules sessions on. 256 concurrent tick tasks
// self-reschedule until b.N events have fired. The engine-v1 form of this
// benchmark drove a goroutine Proc through Sleep (two channel handoffs per
// event); the task path is the same schedule without the handoffs.
func BenchmarkSubstrateSimEventThroughput(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv(1)
	remaining := int64(b.N)
	const lanes = 256
	for i := 0; i < lanes; i++ {
		t := &benchTick{remaining: &remaining, period: time.Microsecond}
		env.AfterTask(time.Duration(i+1)*time.Microsecond, t)
	}
	b.ResetTimer()
	env.RunAll()
	b.StopTimer()
	b.ReportMetric(float64(env.Dispatched())/b.Elapsed().Seconds(), "events/s")
	env.Close()
}

// BenchmarkWorkloadScaleSessions drives the streaming workload engine at
// 25k and 100k concurrent sessions (the paper runs 240): 16 session classes
// across eight edge nodes, sharded over eight lanes. Memory is bounded per
// session class — B/op is the one-time ~90-byte-per-client state slab plus
// class-level constants, with zero steady-state allocation per page, so
// bytes per completed session shrink as runs lengthen.
func BenchmarkWorkloadScaleSessions(b *testing.B) {
	for _, clients := range []int{25000, 100000} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			b.ReportAllocs()
			var events, pages, sessions uint64
			for i := 0; i < b.N; i++ {
				// 170s of virtual time covers one full browser session
				// (20 pages x 8s soft think) for every client.
				res, err := workload.RunStream(workload.StreamConfig{
					Seed:     1,
					Classes:  petstore.StreamWorkload(clients),
					Warmup:   2 * time.Second,
					Duration: 170 * time.Second,
					Shards:   8,
				})
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
				pages += res.Pages
				sessions += res.Sessions
			}
			sec := b.Elapsed().Seconds()
			b.ReportMetric(float64(events)/sec, "events/s")
			b.ReportMetric(float64(pages)/sec, "simulated_pages/s")
			b.ReportMetric(float64(sessions)/float64(b.N), "sessions/op")
		})
	}
}

// --- Sensitivity sweeps (extension experiments): latency and load. ---

// BenchmarkSweepWANLatency measures the final configuration's remote-browser
// insulation as WAN latency grows from 25 to 400 ms one-way.
func BenchmarkSweepWANLatency(b *testing.B) {
	lats := []time.Duration{25 * time.Millisecond, 100 * time.Millisecond, 400 * time.Millisecond}
	var pts []experiment.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiment.LatencySweep(experiment.RUBiS, core.AsyncUpdates, lats, benchRunOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, pt := range pts {
		reportMs(b, "rem-browse-"+time.Duration(pt.X*float64(time.Millisecond)).String()+"-ms", pt.RemoteBrowser)
	}
}

// BenchmarkSweepLoad measures queueing onset as offered load scales.
func BenchmarkSweepLoad(b *testing.B) {
	scales := []float64{1, 4}
	var pts []experiment.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiment.LoadSweep(experiment.PetStore, core.Centralized, scales, benchRunOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for i, pt := range pts {
		_ = i
		reportMs(b, fmt.Sprintf("loc-browse-%.0frps-ms", pt.X), pt.LocalBrowser)
	}
}

// BenchmarkTopoScaling records the hierarchical-topology scaling curve: the
// partitioned query-caching deployment swept from the paper's 2 edges up to
// 128 PoPs at constant total offered load. Remote-browser latency and WAN
// traffic per point land in the perf record, so BENCH_*.json tracks the
// curve across PRs.
func BenchmarkTopoScaling(b *testing.B) {
	edges := []int{2, 8, 32, 128}
	var pts []experiment.TopoPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiment.TopoSweep(experiment.PetStore, edges, experiment.TopoSweepOptions{
			RunOptions: benchRunOptions(),
			Config:     core.QueryCaching,
			Partitions: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, pt := range pts {
		reportMs(b, fmt.Sprintf("rem-browse-%dedges-ms", pt.Edges), pt.RemoteBrowser)
		b.ReportMetric(float64(pt.WANBytes)/1e6, fmt.Sprintf("wan-MB-%dedges", pt.Edges))
	}
}

// BenchmarkAblationDeltaVsFullPush isolates Section 4.3's "transfer only the
// changes" optimization on a thin WAN pipe, where full-state pushes pay for
// their payload.
func BenchmarkAblationDeltaVsFullPush(b *testing.B) {
	for _, delta := range []bool{false, true} {
		name := "full-state"
		if delta {
			name = "delta"
		}
		b.Run(name, func(b *testing.B) {
			env := sim.NewEnv(9)
			net := simnet.New(env)
			for _, id := range []string{"main", "edge"} {
				if _, err := net.AddNode(id, 2); err != nil {
					b.Fatal(err)
				}
			}
			// 128 kbit/s: payload size dominates.
			if _, err := net.AddLink("main", "edge", 100*time.Millisecond, 16*1024); err != nil {
				b.Fatal(err)
			}
			db := sqldb.New()
			if _, err := db.Exec(`CREATE TABLE wide (id INT PRIMARY KEY, a INT, bb INT, c INT, d INT, e INT)`); err != nil {
				b.Fatal(err)
			}
			if _, err := db.Exec(`INSERT INTO wide VALUES (1, 0, 0, 0, 0, 0)`); err != nil {
				b.Fatal(err)
			}
			rt := rmi.NewRuntime(net, rmi.DefaultOptions)
			mk := func(nodeName string) *container.Server {
				s, err := container.NewServer(container.Config{
					Name: nodeName, DBNode: "main", DB: db, Net: net, RMI: rt,
					Web: web.DefaultOptions, Costs: container.DefaultCostModel,
				})
				if err != nil {
					b.Fatal(err)
				}
				return s
			}
			main, edge := mk("main"), mk("edge")
			rw, err := container.DeployRWEntity(main, "Wide", "wide", "id")
			if err != nil {
				b.Fatal(err)
			}
			rw.SetDeltaPush(delta)
			ro, err := container.DeployROEntity(edge, "WideRO", nil)
			if err != nil {
				b.Fatal(err)
			}
			uf, err := container.DeployUpdaterFacade(edge, "Updater")
			if err != nil {
				b.Fatal(err)
			}
			uf.Register("Wide", ro)
			// Full-state records on this table are large (wide rows).
			rw.AddPropagator(container.NewSyncPropagator(main, []container.SyncTarget{{Server: "edge", Facade: "Updater"}}, 64*1024))
			var mean time.Duration
			env.Spawn("writer", func(p *sim.Proc) {
				var total time.Duration
				for i := 0; i < b.N; i++ {
					start := p.Now()
					if _, err := rw.UpdateFields(p, sqldb.Int(1), container.State{"a": sqldb.Int(int64(i))}); err != nil {
						b.Fatal(err)
					}
					total += p.Now() - start
				}
				mean = total / time.Duration(b.N)
			})
			env.RunAll()
			env.Close()
			reportMs(b, "write-ms", mean)
		})
	}
}

// BenchmarkBatchedPushThroughput measures the batched/coalesced lease path
// against per-commit blocking delta pushes on the same thin-pipe rig as the
// delta-vs-full ablation: a writer commits one-field updates every 10ms of
// virtual time, and the batched arm flushes one coalesced WAN message per
// 100ms window instead of paying a push per commit. Reported per arm:
// write-ms (mean commit latency), commits/s (virtual-time throughput),
// wan-msgs/commit and wan-bytes/commit.
func BenchmarkBatchedPushThroughput(b *testing.B) {
	for _, batched := range []bool{false, true} {
		name := "unbatched"
		if batched {
			name = "batched-100ms"
		}
		b.Run(name, func(b *testing.B) {
			env := sim.NewEnv(9)
			net := simnet.New(env)
			for _, id := range []string{"main", "edge"} {
				if _, err := net.AddNode(id, 2); err != nil {
					b.Fatal(err)
				}
			}
			// 128 kbit/s: payload size dominates.
			if _, err := net.AddLink("main", "edge", 100*time.Millisecond, 16*1024); err != nil {
				b.Fatal(err)
			}
			db := sqldb.New()
			if _, err := db.Exec(`CREATE TABLE wide (id INT PRIMARY KEY, a INT, bb INT, c INT, d INT, e INT)`); err != nil {
				b.Fatal(err)
			}
			if _, err := db.Exec(`INSERT INTO wide VALUES (1, 0, 0, 0, 0, 0)`); err != nil {
				b.Fatal(err)
			}
			rt := rmi.NewRuntime(net, rmi.DefaultOptions)
			mk := func(nodeName string) *container.Server {
				s, err := container.NewServer(container.Config{
					Name: nodeName, DBNode: "main", DB: db, Net: net, RMI: rt,
					Web: web.DefaultOptions, Costs: container.DefaultCostModel,
				})
				if err != nil {
					b.Fatal(err)
				}
				return s
			}
			main, edge := mk("main"), mk("edge")
			rw, err := container.DeployRWEntity(main, "Wide", "wide", "id")
			if err != nil {
				b.Fatal(err)
			}
			rw.SetDeltaPush(true)
			ro, err := container.DeployROEntity(edge, "WideRO", nil)
			if err != nil {
				b.Fatal(err)
			}
			uf, err := container.DeployUpdaterFacade(edge, "Updater")
			if err != nil {
				b.Fatal(err)
			}
			uf.Register("Wide", ro)
			targets := []container.SyncTarget{{Server: "edge", Facade: "Updater"}}
			var bp *container.BatchingPropagator
			if batched {
				bp, err = container.NewBatchingPropagator(main, 100*time.Millisecond, "", targets, 64*1024)
				if err != nil {
					b.Fatal(err)
				}
				rw.AddPropagator(bp)
			} else {
				rw.AddPropagator(container.NewSyncPropagator(main, targets, 64*1024))
			}
			// Each iteration drives a burst of commits, so even the CI
			// smoke's single iteration spans many coalescing windows.
			const burst = 50
			commits := b.N * burst
			var mean, elapsed time.Duration
			env.Spawn("writer", func(p *sim.Proc) {
				begin := p.Now()
				var total time.Duration
				for i := 0; i < commits; i++ {
					start := p.Now()
					if _, err := rw.UpdateFields(p, sqldb.Int(1), container.State{"a": sqldb.Int(int64(i))}); err != nil {
						b.Fatal(err)
					}
					total += p.Now() - start
					p.Sleep(10 * time.Millisecond)
				}
				elapsed = p.Now() - begin
				mean = total / time.Duration(commits)
			})
			env.RunAll()
			env.Close()
			reportMs(b, "write-ms", mean)
			if elapsed > 0 {
				b.ReportMetric(float64(commits)/elapsed.Seconds(), "commits/s")
			}
			var msgs, wire float64
			if batched {
				msgs = float64(bp.Messages())
				wire = float64(bp.WireBytesTotal())
			} else {
				// SyncPropagator pays one push per commit, each the size of
				// a one-field delta.
				one := container.Update{Bean: "Wide", Delta: true, State: container.State{"a": sqldb.Int(0)}}
				msgs = float64(commits)
				wire = float64(commits * one.WireBytes())
			}
			b.ReportMetric(msgs/float64(commits), "wan-msgs/commit")
			b.ReportMetric(wire/float64(commits), "wan-bytes/commit")
		})
	}
}

// BenchmarkAblationSeqVsParallelFanOut compares sequential and parallel
// blocking fan-out to two edge replicas — the knob that brackets the paper's
// measured Commit times.
func BenchmarkAblationSeqVsParallelFanOut(b *testing.B) {
	for _, parallel := range []bool{false, true} {
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			env := sim.NewEnv(4)
			net, err := simnet.PaperTopology(env)
			if err != nil {
				b.Fatal(err)
			}
			db := sqldb.New()
			if _, err := db.Exec(`CREATE TABLE kv (id INT PRIMARY KEY, v INT NOT NULL)`); err != nil {
				b.Fatal(err)
			}
			if _, err := db.Exec(`INSERT INTO kv VALUES (1, 0)`); err != nil {
				b.Fatal(err)
			}
			rt := rmi.NewRuntime(net, rmi.DefaultOptions)
			mk := func(nodeName string) *container.Server {
				s, err := container.NewServer(container.Config{
					Name: nodeName, DBNode: simnet.NodeDB, DB: db, Net: net, RMI: rt,
					Web: web.DefaultOptions, Costs: container.DefaultCostModel,
				})
				if err != nil {
					b.Fatal(err)
				}
				return s
			}
			main := mk(simnet.NodeMain)
			var targets []container.SyncTarget
			for _, edgeName := range []string{simnet.NodeEdge1, simnet.NodeEdge2} {
				edge := mk(edgeName)
				ro, err := container.DeployROEntity(edge, "KVRO", nil)
				if err != nil {
					b.Fatal(err)
				}
				uf, err := container.DeployUpdaterFacade(edge, "Updater")
				if err != nil {
					b.Fatal(err)
				}
				uf.Register("KV", ro)
				targets = append(targets, container.SyncTarget{Server: edgeName, Facade: "Updater"})
			}
			rw, err := container.DeployRWEntity(main, "KV", "kv", "id")
			if err != nil {
				b.Fatal(err)
			}
			sp := container.NewSyncPropagator(main, targets, 512)
			sp.Parallel = parallel
			rw.AddPropagator(sp)
			var mean time.Duration
			env.Spawn("writer", func(p *sim.Proc) {
				var total time.Duration
				for i := 0; i < b.N; i++ {
					start := p.Now()
					if _, err := rw.UpdateFields(p, sqldb.Int(1), container.State{"v": sqldb.Int(int64(i))}); err != nil {
						b.Fatal(err)
					}
					total += p.Now() - start
				}
				mean = total / time.Duration(b.N)
			})
			env.RunAll()
			env.Close()
			reportMs(b, "write-ms", mean)
		})
	}
}

// BenchmarkTraceOverhead measures what arming the causal tracer costs the
// streaming workload engine: the same 25k-session run with tracing off, with
// the flight recorder sampling 1 in 16 pages, and sampling every page. The
// off/recorder gap is the PR-7 acceptance budget (<= 5% events/s); the
// recorder case uses the scale command's 128-slot per-lane ring, which keeps
// the recycled-trace working set cache-resident.
func BenchmarkTraceOverhead(b *testing.B) {
	cases := []struct {
		name  string
		trace *trace.Options
	}{
		{"off", nil},
		{"recorder-1in16", &trace.Options{SampleEvery: 16, MaxTraces: 128}},
		{"sample-all", &trace.Options{SampleEvery: 1}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				res, err := workload.RunStream(workload.StreamConfig{
					Seed:     1,
					Classes:  petstore.StreamWorkload(25000),
					Warmup:   2 * time.Second,
					Duration: 170 * time.Second,
					Shards:   8,
					Trace:    tc.trace,
				})
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// benchControllerRig builds the minimal deployment the controller benchmarks
// drive: one replicated read-write bean with rows seeded, a remote façade on
// main, and a deferred wiring the controller can extend.
func benchControllerRig(b *testing.B, env *sim.Env, rows int) (*core.Deployment, *core.Wiring) {
	b.Helper()
	d, err := core.NewPaperDeployment(env, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.DB.Exec(`CREATE TABLE price (id INT PRIMARY KEY, cents INT NOT NULL)`); err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= rows; i++ {
		if _, err := d.DB.Exec(`INSERT INTO price VALUES (?, ?)`, sqldb.Int(int64(i)), sqldb.Int(int64(100*i))); err != nil {
			b.Fatal(err)
		}
	}
	rw, err := container.DeployRWEntity(d.Main, "Price", "price", "id")
	if err != nil {
		b.Fatal(err)
	}
	d.RegisterRW(rw)
	if _, err := container.DeployStateless(d.Main, "PriceFacade", map[string]container.Method{
		"get": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			pk, _ := inv.Arg(0).(sqldb.Value)
			return rw.Load(p, pk)
		},
	}); err != nil {
		b.Fatal(err)
	}
	w, err := core.AutoWire(d, &container.ExtendedDescriptor{
		Replicas: []container.ReplicaSpec{
			{Bean: "Price", Update: container.SyncUpdate, Refresh: container.PushRefresh, BestEffort: true},
		},
	}, core.WireOptions{Deferred: true, PushBytes: 256})
	if err != nil {
		b.Fatal(err)
	}
	return d, w
}

// BenchmarkControllerTick prices one idle controller epoch — the per-epoch
// observe/re-plan overhead a deployment pays for running the re-placement
// control loop when nothing is worth doing.
func BenchmarkControllerTick(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	d, w := benchControllerRig(b, env, 50)
	// An unreachable threshold keeps every epoch on the observe path.
	_, err := controller.Start(controller.Config{
		Deployment: d,
		Wiring:     w,
		Threshold:  1e12,
		Seed:       1,
		Options:    controller.Options{Epoch: time.Second},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Run(time.Duration(i+1) * time.Second) // exactly one epoch tick per iteration
	}
}

// BenchmarkMigrationThroughput drives a full threshold-triggered extension —
// snapshot, bulk transfer, catch-up, cut-over — to both edges and reports
// the migrated volume and the virtual time one migration occupies.
func BenchmarkMigrationThroughput(b *testing.B) {
	const rows = 2000
	var migBytes, migVirtual, migs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := sim.NewEnv(1)
		d, w := benchControllerRig(b, env, rows)
		ctrl, err := controller.Start(controller.Config{
			Deployment: d,
			Wiring:     w,
			Threshold:  1,
			Seed:       1,
			Options:    controller.Options{Epoch: 2 * time.Second, ConfirmEpochs: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		edge := d.Edges[0]
		env.Spawn("reader", func(p *sim.Proc) {
			for p.Now() < 20*time.Second {
				if stub, err := edge.StubFor(p, simnet.NodeMain, "PriceFacade"); err == nil {
					stub.Invoke(p, "get", sqldb.Int(7)) //nolint:errcheck
				}
				p.Sleep(100 * time.Millisecond)
			}
		})
		b.StartTimer()
		env.Run(30 * time.Second)
		b.StopTimer()
		rep := ctrl.Report()
		if !rep.Extended {
			b.Fatalf("controller never extended; events: %+v", rep.Events)
		}
		for _, m := range rep.Migrations {
			migBytes += int64(m.SnapshotBytes + m.CatchUpBytes)
			migVirtual += int64(m.End - m.Start)
			migs++
		}
		env.Close()
		b.StartTimer()
	}
	b.StopTimer()
	if migs > 0 {
		b.ReportMetric(float64(migBytes)/float64(b.N)/(1<<20), "migMB/op")
		b.ReportMetric(float64(migVirtual)/float64(migs)/float64(time.Millisecond), "virt-ms/migration")
	}
}
