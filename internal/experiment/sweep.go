package experiment

import (
	"fmt"
	"strings"
	"time"

	"wadeploy/internal/core"
)

// SweepPoint is one measurement of a sensitivity sweep.
type SweepPoint struct {
	X             float64 // the swept parameter (WAN one-way ms, or offered load req/s)
	LocalBrowser  time.Duration
	RemoteBrowser time.Duration
	LocalWriter   time.Duration
	RemoteWriter  time.Duration
}

// point converts a run's session means into a sweep point.
func point(r *Result, x float64) SweepPoint {
	browser, writer := apps[r.App].patterns[0], apps[r.App].patterns[1]
	return SweepPoint{
		X:             x,
		LocalBrowser:  r.SessionMeans[browser][true],
		RemoteBrowser: r.SessionMeans[browser][false],
		LocalWriter:   r.SessionMeans[writer][true],
		RemoteWriter:  r.SessionMeans[writer][false],
	}
}

// LatencySweep measures session response times as the WAN one-way latency
// varies — how each configuration's benefit scales with network distance
// (not a paper experiment; a sensitivity study over its fixed 100 ms point).
// Each point is the scenario Run(app, cfg, opts) runs, at another latency.
func LatencySweep(app AppID, cfg core.ConfigID, oneWays []time.Duration, opts RunOptions) ([]SweepPoint, error) {
	// Validate every point before launching workers so bad input fails the
	// same way regardless of parallelism.
	for _, wan := range oneWays {
		if wan <= 0 {
			return nil, fmt.Errorf("experiment: non-positive WAN latency %v", wan)
		}
	}
	out := make([]SweepPoint, len(oneWays))
	err := forEachParallel(opts.Parallelism, len(oneWays), func(i int) error {
		s := Scenario{App: app, Config: cfg, WANOneWay: oneWays[i], RunOptions: opts}
		r, err := s.Run()
		if err != nil {
			return fmt.Errorf("latency sweep %v: %w", s.WANOneWay, err)
		}
		out[i] = point(r, float64(s.WANOneWay)/float64(time.Millisecond))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LoadSweep measures session response times as the offered load scales
// around the paper's 30 req/s operating point, exposing where CPU queueing
// begins to dominate. Each point is the scenario Run(app, cfg, opts) runs,
// at another load.
func LoadSweep(app AppID, cfg core.ConfigID, scales []float64, opts RunOptions) ([]SweepPoint, error) {
	for _, s := range scales {
		if s <= 0 {
			return nil, fmt.Errorf("experiment: non-positive load scale %v", s)
		}
	}
	out := make([]SweepPoint, len(scales))
	err := forEachParallel(opts.Parallelism, len(scales), func(i int) error {
		s := Scenario{App: app, Config: cfg, Load: scales[i], RunOptions: opts}
		r, err := s.Run()
		if err != nil {
			return fmt.Errorf("load sweep %v: %w", s.Load, err)
		}
		out[i] = point(r, 30*s.Load)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatSweep renders sweep points as an aligned table.
func FormatSweep(xLabel string, points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %12s %12s %12s\n",
		xLabel, "loc-browse", "rem-browse", "loc-write", "rem-write")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-14.1f %12s %12s %12s %12s\n", pt.X,
			ms(pt.LocalBrowser), ms(pt.RemoteBrowser), ms(pt.LocalWriter), ms(pt.RemoteWriter))
	}
	return b.String()
}
