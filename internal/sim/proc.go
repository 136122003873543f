//go:build go1.23

// The build constraint raises this file's language version to Go 1.23, the
// release that added iter.Pull, while go.mod stays at 1.22. There is no
// fallback file: a toolchain older than 1.23 cannot build the package.

package sim

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"time"
)

// errKilled is panicked inside a blocked process when the environment is
// closed, unwinding the process. It is recovered by the process wrapper and
// never escapes to user code.
var errKilled = errors.New("sim: process killed by Env.Close")

// Proc is a simulation process: an iter.Pull coroutine whose execution is
// interleaved deterministically with all other processes by the environment.
// The scheduler resumes it with next; the process hands control back by
// calling yield, which reports false once the environment is closing.
type Proc struct {
	env      *Env
	name     string
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
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
	p := &Proc{env: e, name: name}
	if e.closed {
		return p
	}
	e.live[p] = true
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			delete(e.live, p)
			if r := recover(); r != nil && r != any(errKilled) {
				// Capture application panics; the scheduler re-raises them
				// on its own goroutine so tests can observe them.
				e.fatal = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
			}
		}()
		fn(p)
	})
	e.scheduleProc(at, p)
	return p
}

// step transfers control to p and returns when p yields back or finishes.
// If the process panicked, the panic is re-raised here on the scheduler.
func (e *Env) step(p *Proc) {
	e.curr = p
	p.next()
	e.curr = nil
	e.raise()
}

// raise re-raises a panic captured from a process.
func (e *Env) raise() {
	if e.fatal != nil {
		f := e.fatal
		e.fatal = nil
		panic(f)
	}
}

// pause yields control from the running process back to the scheduler and
// returns when the process is resumed. It panics with errKilled if the
// environment was closed while the process was blocked.
func (p *Proc) pause() {
	if !p.yield(struct{}{}) {
		panic(errKilled)
	}
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
		// stop resumes a blocked process with yield reporting false, so its
		// pause panics errKilled and the body unwinds. A process that never
		// started has no body to unwind: stop does not run it, and it is
		// dropped from live here.
		e.curr = p
		p.stop()
		e.curr = nil
		delete(e.live, p)
		e.raise()
	}
	// Pending events — raw callbacks and task firings included — are
	// dropped, never executed: tasks have no coroutine to unwind, so Close
	// for them means "will not fire" (pinned by TestTaskCloseSemantics).
	e.events.reset()
}
