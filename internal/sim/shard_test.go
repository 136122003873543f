package sim

import (
	"fmt"
	"testing"
	"time"
)

// pingTask bounces between two lanes through Shards.Send, recording each hop
// in the log of the lane it fires on, so every lane's transcript is written
// only by that lane's events.
type pingTask struct {
	s        *Shards
	from, to int
	hop      int
	limit    int
	latency  time.Duration
	logs     [][]string
}

func (p *pingTask) Fire(e *Env) {
	p.logs[p.to] = append(p.logs[p.to], fmt.Sprintf("%d->%d@%v", p.from, p.to, e.Now()))
	p.hop++
	if p.hop >= p.limit {
		return
	}
	next := &pingTask{s: p.s, from: p.to, to: p.from, hop: p.hop,
		limit: p.limit, latency: p.latency, logs: p.logs}
	p.s.Send(p.to, p.from, e.Now()+p.latency, next)
}

// runPingMesh drives a mesh of cross-lane ping-pongs plus lane-local ticking
// tasks and returns a canonical transcript of everything that happened.
func runPingMesh(workers int) string {
	const lanes = 4
	window := 10 * time.Millisecond
	s := NewShards(42, lanes, window)
	logs := make([][]string, lanes)
	for i := 0; i < lanes; i++ {
		i := i
		// Lane-local activity: a self-rescheduling tick drawing from the
		// lane RNG, so RNG streams are exercised too.
		env := s.Env(i)
		env.AfterTask(time.Millisecond, TaskFunc(func(e *Env) {
			var tick func(e *Env)
			tick = func(e *Env) {
				logs[i] = append(logs[i], fmt.Sprintf("tick%d@%v r%d", i, e.Now(), e.Rand().Intn(1000)))
				if e.Now() < 400*time.Millisecond {
					e.AfterTask(time.Duration(1+e.Rand().Intn(20))*time.Millisecond, TaskFunc(tick))
				}
			}
			tick(e)
		}))
		// Cross-lane ping to the next lane, latency comfortably > window.
		dst := (i + 1) % lanes
		first := &pingTask{s: s, from: i, to: dst, limit: 12,
			latency: 25 * time.Millisecond, logs: logs}
		s.Send(i, dst, 25*time.Millisecond, first)
	}
	s.Run(500*time.Millisecond, workers)
	out := ""
	for i, l := range logs {
		out += fmt.Sprintf("lane %d (%d events dispatched):\n", i, s.Env(i).Dispatched())
		for _, line := range l {
			out += "  " + line + "\n"
		}
	}
	out += fmt.Sprintf("total dispatched %d, now %v\n", s.Dispatched(), s.Now())
	s.Close()
	return out
}

// TestShardsWorkerCountInvariance pins the core determinism claim: the
// transcript of a mixed local/cross-lane run is byte-identical for any
// worker count. Run with -race to also check the no-locks round protocol.
func TestShardsWorkerCountInvariance(t *testing.T) {
	want := runPingMesh(1)
	for _, workers := range []int{2, 4, 8} {
		if got := runPingMesh(workers); got != want {
			t.Errorf("workers=%d transcript differs from sequential run:\n--- sequential\n%s--- workers=%d\n%s",
				workers, want, workers, got)
		}
	}
}

// TestShardsClampBelowWindow pins the exactness contract's other half: a
// cross-lane send scheduled closer than the window is clamped to the round
// end, never delivered into a lane's past.
func TestShardsClampBelowWindow(t *testing.T) {
	s := NewShards(1, 2, 50*time.Millisecond)
	var deliveredAt time.Duration
	// Lane 0 activity establishes round [1ms, 51ms].
	s.Env(0).AfterTask(time.Millisecond, TaskFunc(func(e *Env) {
		// Send with only 1ms latency — inside the round, must clamp.
		s.Send(0, 1, e.Now()+time.Millisecond, TaskFunc(func(e *Env) {
			deliveredAt = e.Now()
		}))
	}))
	s.Run(time.Second, 2)
	if deliveredAt != 51*time.Millisecond {
		t.Fatalf("clamped delivery at %v, want 51ms (round end)", deliveredAt)
	}
	s.Close()
}

// TestShardsSameLaneSend checks the same-lane short-circuit schedules
// directly without barrier clamping.
func TestShardsSameLaneSend(t *testing.T) {
	s := NewShards(1, 2, 50*time.Millisecond)
	var deliveredAt time.Duration
	s.Env(0).AfterTask(time.Millisecond, TaskFunc(func(e *Env) {
		s.Send(0, 0, e.Now()+time.Millisecond, TaskFunc(func(e *Env) {
			deliveredAt = e.Now()
		}))
	}))
	s.Run(time.Second, 2)
	if deliveredAt != 2*time.Millisecond {
		t.Fatalf("same-lane delivery at %v, want 2ms", deliveredAt)
	}
	s.Close()
}

// TestShardsProcsInLanes checks goroutine processes work inside lanes: each
// lane's Proc sleeps and the clocks stay in lockstep at barriers.
func TestShardsProcsInLanes(t *testing.T) {
	s := NewShards(7, 3, 10*time.Millisecond)
	wakes := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		s.Env(i).Spawn("sleeper", func(p *Proc) {
			for p.Now() < 100*time.Millisecond {
				p.Sleep(7 * time.Millisecond)
				wakes[i]++
			}
		})
	}
	s.Run(200*time.Millisecond, 3)
	for i, w := range wakes {
		if w != 15 {
			t.Errorf("lane %d woke %d times, want 15", i, w)
		}
		if now := s.Env(i).Now(); now != 200*time.Millisecond {
			t.Errorf("lane %d clock at %v, want 200ms", i, now)
		}
	}
	s.Close()
}
