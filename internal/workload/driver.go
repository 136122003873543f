package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/trace"
)

// Step is one page request within a session.
type Step struct {
	Page   string
	Params map[string]string
}

// Set stores one request parameter, allocating the map on first use. Both
// drivers reuse a Step across generator calls, so in steady state Set writes
// into an already-allocated map and is allocation-free.
func (s *Step) Set(key, value string) {
	if s.Params == nil {
		s.Params = make(map[string]string, 4)
	}
	s.Params[key] = value
}

// reset clears the step for the next generator call, keeping its params map.
func (s *Step) reset() {
	s.Page = ""
	clear(s.Params)
}

// StreamState is the per-session generator state: the step position plus
// three scratch registers generators use to carry cross-step context (the
// Pet Store browser's current category/product, the bidder's item, ...).
type StreamState struct {
	Pos int32
	R   [3]int64
}

// StreamGen is a session generator: it writes the step at position st.Pos of
// one session into step (already cleared) and returns false — writing
// nothing — when the session is complete. The caller advances Pos;
// generators read st.R freely and may draw from rng on any step. A fresh
// session arrives as the zero StreamState. Each application defines one
// StreamGen per usage pattern (the Pet Store Browser draws pages with the
// Table 2 weights, the Buyer follows the fixed Table 3 sequence, and so on).
type StreamGen func(rng *rand.Rand, st *StreamState, step *Step) bool

// nextStep writes the next step of the session in st into step and advances
// st past it. When that session is complete it restarts st as a fresh session
// and reports ended. ok is false only when the fresh session is empty too.
func nextStep(gen StreamGen, rng *rand.Rand, st *StreamState, step *Step) (ok, ended bool) {
	step.reset()
	if !gen(rng, st, step) {
		ended = true
		*st = StreamState{}
		if !gen(rng, st, step) {
			return false, true
		}
	}
	st.Pos++
	return true, ended
}

// Client identifies one simulated client machine process: its network node
// and a unique ID that applications use to key per-client web sessions.
type Client struct {
	Node string
	ID   string
}

// RequestFunc issues one page request on behalf of a client and returns the
// measured response time.
type RequestFunc func(p *sim.Proc, client Client, step Step) (time.Duration, error)

// Group is one client group: the machines collocated with one application
// server, split between browser and writer usage patterns.
type Group struct {
	Name       string // e.g. "local", "remote-1"
	ClientNode string
	Local      bool

	Browsers int // concurrent browser clients
	Writers  int // concurrent buyer/bidder clients

	// Delay is the soft think time: the interval between successive
	// request starts within a session. Offered load per client is
	// 1/Delay regardless of response times (Section 3.3).
	Delay time.Duration

	BrowserPattern string
	WriterPattern  string
	BrowserGen     StreamGen
	WriterGen      StreamGen

	Request RequestFunc
}

// Rate returns the group's offered load in requests per second.
func (g Group) Rate() float64 {
	if g.Delay <= 0 {
		return 0
	}
	return float64(g.Browsers+g.Writers) / g.Delay.Seconds()
}

// Observer sees every completed request — including warm-up and failures,
// which Stats discards or aggregates away. now is the completion time, rt is
// meaningful only when err is nil. Observers must be pure accumulators: they
// run inside client processes and must not touch the RNG or the clock.
type Observer func(now time.Duration, client Client, key SeriesKey, rt time.Duration, err error)

// Config drives one experiment run.
type Config struct {
	Env    *sim.Env
	Groups []Group

	// Warmup is discarded; Duration is the measured interval after it.
	Warmup   time.Duration
	Duration time.Duration

	// Observer, when non-nil, is invoked for every completed request.
	// The availability experiment uses it to score per-node success rates
	// inside a fault window, which Stats cannot express.
	Observer Observer
}

// Run simulates the configured client load and returns collected statistics.
// It spawns one process per client, runs the environment for
// Warmup+Duration of virtual time, then tears the clients down.
func Run(cfg Config) (*Stats, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("workload: nil environment")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("workload: non-positive duration")
	}
	stats := NewStats(cfg.Warmup)
	for _, g := range cfg.Groups {
		if g.Request == nil {
			return nil, fmt.Errorf("workload: group %q has no request function", g.Name)
		}
		if g.Delay <= 0 {
			return nil, fmt.Errorf("workload: group %q has non-positive delay", g.Name)
		}
		if g.Browsers > 0 && g.BrowserGen == nil {
			return nil, fmt.Errorf("workload: group %q has browsers but no generator", g.Name)
		}
		if g.Writers > 0 && g.WriterGen == nil {
			return nil, fmt.Errorf("workload: group %q has writers but no generator", g.Name)
		}
		ids := makeIdentities(cfg.Env, g)
		for i := 0; i < g.Browsers; i++ {
			spawnClient(cfg, stats, g, ids[i], g.BrowserPattern, g.BrowserGen)
		}
		for i := 0; i < g.Writers; i++ {
			spawnClient(cfg, stats, g, ids[g.Browsers+i], g.WriterPattern, g.WriterGen)
		}
	}
	cfg.Env.Run(cfg.Warmup + cfg.Duration)
	cfg.Env.Close()
	return stats, nil
}

// clientIdentity is one client's precomputed name, start jitter and private
// RNG seed.
type clientIdentity struct {
	name   string
	jitter time.Duration
	seed   int64
}

// makeIdentities computes every client identity of a group up front, in the
// exact order clients spawn: browsers then writers, each drawing its jitter
// and then its seed from the env RNG (the draw order the paper goldens pin).
// Names are built with one append-formatted allocation per client instead of
// spawnClient's former fmt.Sprintf, and the per-pattern prefix is shared.
func makeIdentities(env *sim.Env, g Group) []clientIdentity {
	ids := make([]clientIdentity, g.Browsers+g.Writers)
	buf := make([]byte, 0, 64)
	prefix := func(pattern string) []byte {
		buf = buf[:0]
		buf = append(buf, "client/"...)
		buf = append(buf, g.Name...)
		buf = append(buf, '/')
		buf = append(buf, pattern...)
		buf = append(buf, '-')
		return buf
	}
	for i := range ids {
		pattern := g.BrowserPattern
		if i >= g.Browsers {
			pattern = g.WriterPattern
		}
		ids[i] = clientIdentity{
			name:   string(strconv.AppendInt(prefix(pattern), int64(i), 10)),
			jitter: time.Duration(env.Rand().Int63n(int64(g.Delay))),
			seed:   env.Rand().Int63(),
		}
	}
	return ids
}

// spawnClient starts one client process running sessions back to back. Each
// client's first request is jittered across one Delay interval so arrivals
// spread evenly instead of thundering in at t=0.
//
// When a tracer is installed on the environment, every page request gets a
// trace ID derived from the client's stable name and its page ordinal — pure
// logical identity, so the sampler picks the same requests no matter how the
// surrounding experiment is parallelized.
func spawnClient(cfg Config, stats *Stats, g Group, id clientIdentity, pattern string, gen StreamGen) {
	env := cfg.Env
	client := Client{Node: g.ClientNode, ID: id.name}
	tracer := trace.FromEnv(env)
	env.SpawnAt(env.Now()+id.jitter, id.name, func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(id.seed))
		end := cfg.Warmup + cfg.Duration
		var st StreamState
		var step Step
		var traceKey, traceSeq uint64
		if tracer != nil {
			traceKey = trace.ClientKey(id.name)
		}
		for p.Now() < end {
			if ok, _ := nextStep(gen, rng, &st, &step); !ok {
				return
			}
			start := p.Now()
			var endTrace func()
			if tracer != nil {
				endTrace = tracer.StartPage(p, trace.PageTraceID(traceKey, traceSeq), pattern, step.Page, g.ClientNode, g.Local)
				traceSeq++
			}
			rt, err := g.Request(p, client, step)
			if endTrace != nil {
				endTrace()
			}
			if err != nil {
				stats.RecordError(p.Now(), step.Page)
			} else {
				stats.Record(p.Now(), SeriesKey{Pattern: pattern, Page: step.Page, Local: g.Local}, rt)
			}
			if cfg.Observer != nil {
				cfg.Observer(p.Now(), client, SeriesKey{Pattern: pattern, Page: step.Page, Local: g.Local}, rt, err)
			}
			// Soft think time: wait out the remainder of the Delay
			// interval; if the response took longer than Delay, start the
			// next request immediately.
			elapsed := p.Now() - start
			if wait := g.Delay - elapsed; wait > 0 {
				p.Sleep(wait)
			}
		}
	})
}
