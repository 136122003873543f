package sim

import (
	"runtime"
	"testing"
	"time"
)

// Process-model tests: every process is an iter.Pull coroutine, so Close
// must release each coroutine's goroutine, kill-unwinding must survive
// blocking calls made from deferred functions, and a Goexit inside a
// process propagates to the goroutine that resumed it.

// waitGoroutines polls until runtime.NumGoroutine drops to want, and
// returns the last count seen.
func waitGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

func TestCloseReleasesProcessGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv(1)
	pr := NewPromise[int](e) // never resolved
	res := NewResource(e, 1)
	e.Spawn("holder", func(p *Proc) {
		res.Acquire(p)
		p.Sleep(time.Hour)
	})
	for i := 0; i < 99; i++ {
		switch i % 3 {
		case 0:
			e.Spawn("await", func(p *Proc) { Await(p, pr) })
		case 1:
			e.Spawn("acquire", func(p *Proc) { res.Acquire(p) })
		default:
			e.Spawn("sleep", func(p *Proc) { p.Sleep(time.Hour) })
		}
	}
	e.SpawnAt(2*time.Hour, "unstarted", func(p *Proc) {
		t.Error("unstarted process body ran")
	})
	e.Run(time.Second)
	if e.Live() != 101 {
		t.Fatalf("live = %d before Close, want 101", e.Live())
	}
	if n := runtime.NumGoroutine(); n < 101 {
		t.Fatalf("goroutines = %d with 101 live processes, want at least 101", n)
	}
	e.Close()
	if e.Live() != 0 {
		t.Fatalf("live = %d after Close, want 0", e.Live())
	}
	if n := waitGoroutines(base); n > base {
		t.Fatalf("goroutines = %d after Close, want at most the baseline %d", n, base)
	}
}

func TestKilledProcessDeferMaySleep(t *testing.T) {
	e := NewEnv(1)
	pr := NewPromise[int](e) // never resolved
	unwound := false
	e.Spawn("stuck", func(p *Proc) {
		defer func() { unwound = true }()
		defer func() {
			p.Sleep(time.Second) // panics errKilled again: the env is closing
			t.Error("Sleep returned while the process was being killed")
		}()
		Await(p, pr)
	})
	e.Run(time.Second)
	e.Close()
	if !unwound {
		t.Fatal("outer deferred function did not run after Sleep in a defer")
	}
	if e.Live() != 0 {
		t.Fatalf("live = %d after Close, want 0", e.Live())
	}
}

func TestGoexitInProcessReachesScheduler(t *testing.T) {
	done := make(chan bool)
	go func() {
		returned := false
		defer func() { done <- returned }()
		e := NewEnv(1)
		e.Spawn("quit", func(p *Proc) { runtime.Goexit() })
		e.RunAll()
		returned = true
	}()
	if <-done {
		t.Fatal("RunAll returned after runtime.Goexit in a process; want the scheduler goroutine to exit")
	}
}

// TestSpawnAllocs pins the allocations of one process lifetime, Spawn to
// finish: the Proc, the iter.Pull state and closures, and the coroutine's
// goroutine. Switches then allocate nothing (TestProcessSwitchAllocs).
func TestSpawnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	e := NewEnv(1)
	body := func(p *Proc) { p.Sleep(time.Microsecond) }
	for i := 0; i < 64; i++ {
		e.Spawn("warm", body)
	}
	e.RunAll()
	avg := testing.AllocsPerRun(1000, func() {
		e.Spawn("p", body)
		e.RunAll()
	})
	e.Close()
	if avg > 13 {
		t.Errorf("spawn+finish allocates %.2f objects per process, want at most 13", avg)
	}
}
