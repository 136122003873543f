// Package trace is the causal tracing subsystem: substrate-owned spans with
// trace IDs, parent links and node attribution, propagated across every
// distribution boundary (rmi request/response, JMS publish→consume, dbrepl
// push→replay, sqldb statements, container bean and cache operations). The
// spans form a tree that survives async hand-offs, so a page's latency can
// be decomposed mechanically into the paper's Section 5 vocabulary: WAN
// wait, service time, queueing, and retry/backoff.
//
// Determinism contract: tracing draws no randomness and advances no clocks.
// Trace IDs are pure functions of logical request identity (client key ×
// page ordinal), and the 1-in-N sampler is a pure function of the trace ID,
// so the set of sampled logical requests is byte-identical across -parallel
// worker counts and invariant to shard assignment. The tracing-off fast path
// is a nil interface check per instrumentation point — 0 allocs/event,
// pinned by BenchmarkTraceOverhead's alloc guard.
package trace

import (
	"time"

	"wadeploy/internal/sim"
)

// TraceID identifies one page request's causal tree. IDs are derived from
// logical identity (PageTraceID), never from timing, shard or worker state.
type TraceID uint64

// SpanID indexes a span within its trace; parent links use it.
type SpanID int32

// NoParent marks a root span's Parent.
const NoParent SpanID = -1

// Cause classifies where a span's self-time goes in the critical-path
// decomposition.
type Cause uint8

const (
	// CauseService is CPU work plus metropolitan-area network time; the
	// paper folds LAN round trips into service cost, and so do we.
	CauseService Cause = iota
	// CauseWAN is wide-area network wait: transfers and round trips on
	// links whose one-way latency crosses the wide-area threshold.
	CauseWAN
	// CauseQueue is time spent waiting for a contended resource (a node's
	// CPU run queue) before service begins.
	CauseQueue
	// CauseRetry is time consumed by failed attempts and backoff sleeps
	// under the resilience layer.
	CauseRetry

	numCauses = 4
)

var causeNames = [numCauses]string{"service", "wan", "queue", "retry"}

// String returns the short lower-case cause label used in reports and JSON.
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "unknown"
}

// Span is one operation in a trace's causal tree.
type Span struct {
	ID     SpanID
	Parent SpanID // NoParent for the root
	Layer  string // "page", "rmi", "sql", "jms", ...
	Label  string
	Node   string // node where the operation executes or terminates
	Peer   string // the other endpoint for cross-node operations ("" otherwise)
	Cause  Cause
	Async  bool // opened off the requesting process; excluded from the page's critical path
	Start  time.Duration
	End    time.Duration
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Trace is one sampled page request: a span tree rooted at Spans[0].
type Trace struct {
	ID      TraceID
	Pattern string
	Page    string
	Local   bool
	Spans   []Span
	Dropped int // spans not recorded because the per-trace cap was hit

	tr       *Tracer
	open     int // spans opened and not yet closed
	pending  int // captured contexts not yet adopted or dropped
	rootDone bool
	finished bool
}

// Root returns the root span (zero Span for an empty trace).
func (t *Trace) Root() Span {
	if len(t.Spans) == 0 {
		return Span{}
	}
	return t.Spans[0]
}

// addSpan appends a span and returns its ID, or (0, false) when the
// per-trace span cap is exhausted.
func (t *Trace) addSpan(s Span) (SpanID, bool) {
	if t.tr != nil && len(t.Spans) >= t.tr.maxSpans {
		t.Dropped++
		return 0, false
	}
	id := SpanID(len(t.Spans))
	s.ID = id
	t.Spans = append(t.Spans, s)
	return id, true
}

// maybeFinish hands the trace to its tracer once the root has closed and no
// spans or captured contexts remain outstanding.
func (t *Trace) maybeFinish() {
	if t.finished || !t.rootDone || t.open > 0 || t.pending > 0 {
		return
	}
	t.finished = true
	if t.tr != nil {
		t.tr.finish(t)
	}
}

// pstate is the per-process tracing state stored in the sim.Proc trace-ctx
// slot: the active trace plus that process's open-span stack. Processes of
// one env run one at a time, so no locking is needed even though several
// processes can append to the same trace.
type pstate struct {
	t     *Trace
	stack []SpanID // open spans on this process, innermost last
}

func (st *pstate) parent() SpanID {
	if n := len(st.stack); n > 0 {
		return st.stack[n-1]
	}
	return NoParent
}

// noop is the shared closer for untraced processes; returning it keeps the
// tracing-off path allocation-free.
var noop = func() {}

// state returns the process's tracing state, or nil when untraced. This nil
// interface check is the whole tracing-off fast path.
func state(p *sim.Proc) *pstate {
	st, _ := p.TraceCtx().(*pstate)
	return st
}

// Active reports whether p is currently contributing spans to a trace.
func Active(p *sim.Proc) bool { return state(p) != nil }

// Op opens a span on p's active trace and returns its closer. Untraced
// processes get a shared no-op closer:
//
//	defer trace.Op(p, "sql", query, node, "", trace.CauseService)()
//
// peer names the remote endpoint for cross-node operations ("" otherwise).
func Op(p *sim.Proc, layer, label, node, peer string, cause Cause) func() {
	st := state(p)
	if st == nil {
		return noop
	}
	return open(p, st, layer, label, node, peer, cause)
}

// Opf is Op with the label built lazily from up to three parts, so call
// sites with dynamic labels ("Catalog.browse -> main") pay no string
// concatenation when untraced.
func Opf(p *sim.Proc, layer, node, peer string, cause Cause, l0, l1, l2 string) func() {
	st := state(p)
	if st == nil {
		return noop
	}
	return open(p, st, layer, l0+l1+l2, node, peer, cause)
}

func open(p *sim.Proc, st *pstate, layer, label, node, peer string, cause Cause) func() {
	t := st.t
	id, ok := t.addSpan(Span{
		Parent: st.parent(),
		Layer:  layer,
		Label:  label,
		Node:   node,
		Peer:   peer,
		Cause:  cause,
		Start:  p.Now(),
	})
	if !ok {
		return noop
	}
	t.open++
	if t.tr != nil {
		t.tr.countSpan(node)
	}
	st.stack = append(st.stack, id)
	return func() {
		t.Spans[id].End = p.Now()
		t.open--
		for n := len(st.stack) - 1; n >= 0; n-- {
			if st.stack[n] == id {
				st.stack = st.stack[:n]
				break
			}
		}
		t.maybeFinish()
	}
}

// Ctx carries a trace across an asynchronous hand-off: capture it on the
// requesting process, store it in the message/queue entry, and Adopt it on
// the process that continues the work. The zero Ctx is inert, so untraced
// paths pass it through for free.
type Ctx struct {
	t      *Trace
	parent SpanID
}

// Ok reports whether the context carries a live trace.
func (c Ctx) Ok() bool { return c.t != nil }

// Capture snapshots p's tracing position for an async continuation. The
// trace stays open until every captured context is adopted-and-closed or
// dropped, so async tails (a JMS redelivery, a dbrepl replay) are recorded
// even when they outlive the page that caused them.
func Capture(p *sim.Proc) Ctx {
	st := state(p)
	if st == nil {
		return Ctx{}
	}
	st.t.pending++
	return Ctx{t: st.t, parent: st.parent()}
}

// CaptureEnv is Capture for hook call sites that have no *Proc parameter:
// it reads the currently executing process off the environment (nil between
// events, e.g. inside raw task callbacks — those capture nothing).
func CaptureEnv(env *sim.Env) Ctx {
	if p := env.Current(); p != nil {
		return Capture(p)
	}
	return Ctx{}
}

// Drop releases a captured context without adopting it (message dropped,
// dead-lettered, or coalesced away).
func (c Ctx) Drop() {
	if c.t == nil {
		return
	}
	c.t.pending--
	c.t.maybeFinish()
}

// Adopt attaches the captured trace to process p and opens an async span
// under the captured parent. The returned closer ends the span, releases the
// context, and detaches the trace from p. Adopting a zero Ctx is a no-op.
func Adopt(p *sim.Proc, c Ctx, layer, label, node string, cause Cause) func() {
	if c.t == nil {
		return noop
	}
	return adopt(p, c, layer, label, node, cause)
}

// Adoptf is Adopt with the label built lazily from up to three parts, so
// per-delivery call sites pay no concatenation when the hand-off is untraced.
func Adoptf(p *sim.Proc, c Ctx, layer, node string, cause Cause, l0, l1, l2 string) func() {
	if c.t == nil {
		return noop
	}
	return adopt(p, c, layer, l0+l1+l2, node, cause)
}

func adopt(p *sim.Proc, c Ctx, layer, label, node string, cause Cause) func() {
	t := c.t
	id, ok := t.addSpan(Span{
		Parent: c.parent,
		Layer:  layer,
		Label:  label,
		Node:   node,
		Cause:  cause,
		Async:  true,
		Start:  p.Now(),
	})
	if !ok {
		// Span capacity exhausted: still honor the refcount so the trace
		// can finish.
		return func() {
			t.pending--
			t.maybeFinish()
		}
	}
	t.open++
	if t.tr != nil {
		t.tr.countSpan(node)
	}
	st := &pstate{t: t, stack: []SpanID{id}}
	p.SetTraceCtx(st)
	return func() {
		t.Spans[id].End = p.Now()
		t.open--
		t.pending--
		p.SetTraceCtx(nil)
		t.maybeFinish()
	}
}

// Use acquires res for d of service on p, attributing any wait for the
// resource to CauseQueue and the service interval to CauseService. Untraced
// processes go straight to res.Use — identical semantics and timing. The
// queue span is recorded retroactively and only when the process actually
// waited, so uncontended traces stay compact.
func Use(p *sim.Proc, res *sim.Resource, node string, d time.Duration) {
	st := state(p)
	if st == nil {
		res.Use(p, d)
		return
	}
	t := st.t
	start := p.Now()
	res.Acquire(p)
	if now := p.Now(); now > start {
		if _, ok := t.addSpan(Span{
			Parent: st.parent(),
			Layer:  "queue",
			Label:  "cpu wait",
			Node:   node,
			Cause:  CauseQueue,
			Start:  start,
			End:    now,
		}); ok && t.tr != nil {
			t.tr.countSpan(node)
		}
	}
	endS := open(p, st, "cpu", "service", node, "", CauseService)
	p.Sleep(d)
	endS()
	res.Release()
}
