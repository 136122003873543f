// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine provides a virtual clock, coroutine-style processes, promises
// for request/response rendezvous, and capacity-limited resources for
// modeling queued servers. Application code written against sim looks
// synchronous (a process sends a request and blocks for the reply) while the
// engine advances a virtual clock between events, so an hour of simulated
// wall-clock time executes in milliseconds and every run with the same seed
// is byte-for-byte reproducible.
//
// Exactly one process goroutine runs at a time: the scheduler and the running
// process hand control back and forth over unbuffered channels, so process
// code needs no locking. Blocking operations (Proc.Sleep, Await,
// Resource.Acquire) may only be called from process goroutines, never from
// raw event callbacks scheduled with Env.At.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"wadeploy/internal/metrics"
)

// errKilled is panicked inside a blocked process when the environment is
// closed, unwinding the process goroutine. It is recovered by the process
// wrapper and never escapes to user code.
var errKilled = errors.New("sim: process killed by Env.Close")

// ErrClosed is returned by operations on an environment that has been closed.
var ErrClosed = errors.New("sim: environment closed")

// event is a scheduled callback, process resumption or task firing. seq
// breaks ties so that events scheduled earlier at the same instant run first,
// keeping runs deterministic.
//
// Process resumptions and task firings are the engine's hot paths (every
// Sleep, Await wake-up, Resource hand-off and streaming-session transition is
// one), so they are stored as a *Proc / Task interface rather than a
// `func() { ... }` closure: the scheduler dispatches directly and the queue
// slot carries no per-event heap allocation.
type event struct {
	at   time.Duration
	seq  uint64
	fn   func() // raw callback (Env.At/After); nil otherwise
	proc *Proc  // process to resume; nil otherwise
	task Task   // task to fire (Env.AtTask/AfterTask); nil otherwise
}

// eventHeap is a min-heap of events ordered by (at, seq). The engine's event
// queue (timerQueue) uses it for wheel slots and the far-timer overflow; the
// wheel property test also replays schedules through a bare eventHeap as the
// ordering oracle, since a single global heap is trivially correct.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	// The vacated slot is deliberately not re-zeroed: the backing array is a
	// freelist that the next push overwrites in place, and clearing it here
	// costs a write per event on the hot path. Stale fn/proc references are
	// retained at most until the slot is reused or the Env is dropped, both
	// bounded by the peak event-queue size of the run.
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.Less(i, parent) {
			return
		}
		h.Swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		left, right := 2*i+1, 2*i+2
		least := i
		if left < n && h.Less(left, least) {
			least = left
		}
		if right < n && h.Less(right, least) {
			least = right
		}
		if least == i {
			return
		}
		h.Swap(i, least)
		i = least
	}
}

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv; it is not safe for concurrent use from multiple
// OS-level goroutines other than through the engine's own handoff protocol.
type Env struct {
	now        time.Duration
	seq        uint64
	events     timerQueue
	dispatched uint64
	rng        *rand.Rand

	yield  chan struct{}  // a running process signals the scheduler here
	live   map[*Proc]bool // processes that have started and not finished
	closed bool
	inRun  bool
	curr   *Proc // process currently holding control, if any
	fatal  any   // panic value captured from a process, re-raised by the scheduler

	metrics *metrics.Registry // lazily created; reads the virtual clock

	traceHook any // opaque slot for a causal tracer (internal/trace); sim stays tracer-agnostic
}

// NewEnv returns a fresh environment whose random source is seeded with seed.
func NewEnv(seed int64) *Env {
	e := &Env{
		rng:   rand.New(rand.NewSource(seed)),
		yield: make(chan struct{}),
		live:  make(map[*Proc]bool),
	}
	e.events.memoTick = -1
	return e
}

// Now returns the current virtual time, measured from the start of the run.
func (e *Env) Now() time.Duration { return e.now }

// Current returns the process currently holding control, or nil when the
// scheduler is running a raw callback or task. Hooks invoked from code that
// has no *Proc parameter (the sqldb write hook, for one) use it to reach the
// executing process's trace context.
func (e *Env) Current() *Proc { return e.curr }

// SetTraceHook installs an opaque causal tracer on the environment.
// Substrates retrieve it with TraceHook at construction time; sim never
// interprets the value.
func (e *Env) SetTraceHook(v any) { e.traceHook = v }

// TraceHook returns the value installed with SetTraceHook (nil if none).
func (e *Env) TraceHook() any { return e.traceHook }

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Metrics returns the environment's metrics registry, creating it on first
// use. The registry reads the virtual clock, so sampled series are as
// deterministic as the run itself. Instruments are mutated only under the
// engine's one-goroutine-at-a-time handoff protocol and therefore take no
// locks.
func (e *Env) Metrics() *metrics.Registry {
	if e.metrics == nil {
		e.metrics = metrics.NewRegistry(func() time.Duration { return e.now })
	}
	return e.metrics
}

// Pending reports the number of scheduled events not yet executed.
func (e *Env) Pending() int { return e.events.len() }

// Dispatched reports the total number of events executed since the
// environment was created — the engine's events-per-second numerator.
func (e *Env) Dispatched() uint64 { return e.dispatched }

// NextEventAt returns the virtual time of the earliest pending event, or
// false when the queue is empty. The sharded runner uses it to size barrier
// rounds; it does not advance the clock.
func (e *Env) NextEventAt() (time.Duration, bool) { return e.events.nextAt() }

// Live reports the number of processes that have been spawned and have
// neither finished nor been killed.
func (e *Env) Live() int { return len(e.live) }

// At schedules fn to run at virtual time at (clamped to now if in the past).
// fn runs on the scheduler and must not call blocking process operations.
func (e *Env) At(at time.Duration, fn func()) {
	if e.closed {
		return
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn}, e.now)
}

// After schedules fn to run d from now.
func (e *Env) After(d time.Duration, fn func()) { e.At(e.now+d, fn) }

// scheduleProc schedules p to be resumed at virtual time at (clamped to now
// if in the past). It is the allocation-free counterpart of
// At(at, func() { e.step(p) }) used by Sleep, promise resolution and
// resource hand-off.
func (e *Env) scheduleProc(at time.Duration, p *Proc) {
	if e.closed {
		return
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, proc: p}, e.now)
}

// Proc is a simulation process: a goroutine whose execution is interleaved
// deterministically with all other processes by the environment.
type Proc struct {
	env      *Env
	name     string
	resume   chan struct{}
	kill     bool
	traceCtx any // opaque per-process slot for a causal tracer's span state
}

// SetTraceCtx stores an opaque causal-tracing context on the process. The
// slot belongs to whatever tracer is installed on the environment; sim itself
// never reads it.
func (p *Proc) SetTraceCtx(v any) { p.traceCtx = v }

// TraceCtx returns the value stored with SetTraceCtx (nil when untraced —
// the zero-cost fast-path check instrumentation relies on).
func (p *Proc) TraceCtx() any { return p.traceCtx }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Now is shorthand for p.Env().Now().
func (p *Proc) Now() time.Duration { return p.env.now }

// Rand is shorthand for p.Env().Rand().
func (p *Proc) Rand() *rand.Rand { return p.env.rng }

// Spawn starts a new process running fn at the current virtual time. The
// process begins execution when the scheduler reaches its start event during
// Run or RunAll.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt starts a new process running fn at virtual time at.
func (e *Env) SpawnAt(at time.Duration, name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, resume: make(chan struct{})}
	if e.closed {
		return p
	}
	e.live[p] = true
	go func() {
		<-p.resume
		if p.kill {
			// Killed before first resume: unwind without running fn.
			delete(e.live, p)
			e.yield <- struct{}{}
			return
		}
		defer func() {
			delete(e.live, p)
			if r := recover(); r != nil && r != any(errKilled) {
				// Capture application panics; the scheduler re-raises them
				// on its own goroutine so tests can observe them.
				e.fatal = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
			}
			e.curr = nil
			e.yield <- struct{}{}
		}()
		fn(p)
	}()
	e.scheduleProc(at, p)
	return p
}

// step transfers control to p and waits until p yields back. If the process
// panicked, the panic is re-raised here on the scheduler goroutine.
func (e *Env) step(p *Proc) {
	e.curr = p
	p.resume <- struct{}{}
	<-e.yield
	if e.fatal != nil {
		f := e.fatal
		e.fatal = nil
		panic(f)
	}
}

// pause yields control from the running process back to the scheduler and
// blocks until the process is resumed. It panics with errKilled if the
// environment was closed while the process was blocked.
func (p *Proc) pause() {
	p.env.curr = nil
	p.env.yield <- struct{}{}
	<-p.resume
	if p.kill {
		panic(errKilled)
	}
	p.env.curr = p
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.env
	e.scheduleProc(e.now+d, p)
	p.pause()
}

// Run executes events in timestamp order until the virtual clock would pass
// until, until no events remain, or until Close has been called. The clock is
// left at the time of the last executed event (or at until, whichever is
// smaller, if events beyond until remain).
func (e *Env) Run(until time.Duration) {
	e.inRun = true
	defer func() { e.inRun = false }()
	for !e.closed && e.events.len() > 0 {
		if at, _ := e.events.nextAt(); at > until {
			e.now = until
			return
		}
		ev := e.events.pop()
		e.now = ev.at
		e.dispatched++
		switch {
		case ev.proc != nil:
			e.step(ev.proc)
		case ev.task != nil:
			ev.task.Fire(e)
		default:
			ev.fn()
		}
	}
	if e.now < until {
		e.now = until
	}
}

// RunAll executes events until none remain or Close is called.
func (e *Env) RunAll() {
	e.inRun = true
	defer func() { e.inRun = false }()
	for !e.closed && e.events.len() > 0 {
		ev := e.events.pop()
		e.now = ev.at
		e.dispatched++
		switch {
		case ev.proc != nil:
			e.step(ev.proc)
		case ev.task != nil:
			ev.task.Fire(e)
		default:
			ev.fn()
		}
	}
}

// Close terminates the simulation: every live process is unwound (its
// deferred functions run) and no further events execute. Close must not be
// called from inside a process; call it after Run/RunAll returns. It is
// idempotent.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for p := range e.live {
		p.kill = true
		e.step(p)
	}
	// Pending events — raw callbacks and task firings included — are
	// dropped, never executed: tasks have no goroutine to unwind, so Close
	// for them means "will not fire" (pinned by TestTaskCloseSemantics).
	e.events.reset()
}

// Promise is a write-once container used for request/response rendezvous
// between processes. The zero value is not usable; create promises with
// NewPromise.
type Promise[T any] struct {
	env      *Env
	resolved bool
	value    T
	err      error

	// The overwhelmingly common case is a single waiting process (one
	// request, one reply), so the first waiter is stored inline and the
	// slice is only allocated when a second process awaits the same promise.
	waiter  *Proc
	waiters []*Proc
}

// NewPromise returns an unresolved promise bound to e.
func NewPromise[T any](e *Env) *Promise[T] {
	return &Promise[T]{env: e}
}

// Resolved reports whether the promise has been resolved.
func (pr *Promise[T]) Resolved() bool { return pr.resolved }

// Resolve fulfills the promise with v and wakes all waiters at the current
// virtual time. Resolving an already-resolved promise is a no-op.
func (pr *Promise[T]) Resolve(v T) { pr.complete(v, nil) }

// Fail completes the promise with an error and wakes all waiters.
func (pr *Promise[T]) Fail(err error) {
	var zero T
	pr.complete(zero, err)
}

func (pr *Promise[T]) complete(v T, err error) {
	if pr.resolved {
		return
	}
	pr.resolved = true
	pr.value = v
	pr.err = err
	e := pr.env
	if pr.waiter != nil {
		e.scheduleProc(e.now, pr.waiter)
		pr.waiter = nil
	}
	for _, w := range pr.waiters {
		e.scheduleProc(e.now, w)
	}
	pr.waiters = nil
}

// Await blocks the process until the promise resolves, returning its value
// and error. If the promise is already resolved it returns immediately
// without yielding.
func Await[T any](p *Proc, pr *Promise[T]) (T, error) {
	if !pr.resolved {
		if pr.waiter == nil && len(pr.waiters) == 0 {
			pr.waiter = p
		} else {
			pr.waiters = append(pr.waiters, p)
		}
		p.pause()
	}
	return pr.value, pr.err
}

// MustAwait is Await for promises that cannot fail; it panics on error.
func MustAwait[T any](p *Proc, pr *Promise[T]) T {
	v, err := Await(p, pr)
	if err != nil {
		panic(fmt.Sprintf("sim: MustAwait: %v", err))
	}
	return v
}

// Resource models a server with cap identical slots. Processes acquire a
// slot, hold it for their service time, and release it; excess arrivals wait
// in FIFO order. It is the building block for modeling CPU contention.
type Resource struct {
	env   *Env
	cap   int
	inUse int
	queue []*Proc

	// Accounting for utilization reporting.
	busy       time.Duration
	lastChange time.Duration
}

// NewResource returns a resource with cap slots (cap must be >= 1).
func NewResource(e *Env, cap int) *Resource {
	if cap < 1 {
		cap = 1
	}
	return &Resource{env: e, cap: cap}
}

// Cap returns the slot count.
func (r *Resource) Cap() int { return r.cap }

// InUse returns the number of currently held slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting for a slot.
func (r *Resource) QueueLen() int { return len(r.queue) }

func (r *Resource) account() {
	now := r.env.now
	r.busy += time.Duration(r.inUse) * (now - r.lastChange)
	r.lastChange = now
}

// Utilization returns the mean fraction of slots held since the start of the
// run, in [0, 1].
func (r *Resource) Utilization() float64 {
	if r.env.now == 0 {
		return 0
	}
	busy := r.busy + time.Duration(r.inUse)*(r.env.now-r.lastChange)
	return float64(busy) / float64(time.Duration(r.cap)*r.env.now)
}

// Acquire blocks until a slot is available and takes it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap {
		r.account()
		r.inUse++
		return
	}
	r.queue = append(r.queue, p)
	p.pause()
	// Slot was transferred to us by Release; accounting already done there.
}

// Release frees a slot, handing it to the longest-waiting process if any.
func (r *Resource) Release() {
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		// The slot transfers directly: inUse stays constant.
		r.env.scheduleProc(r.env.now, next)
		return
	}
	r.account()
	r.inUse--
}

// Use acquires a slot, holds it for service, and releases it. It models one
// unit of work on a queued server.
func (r *Resource) Use(p *Proc, service time.Duration) {
	r.Acquire(p)
	p.Sleep(service)
	r.Release()
}
