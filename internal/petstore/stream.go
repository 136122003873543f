package petstore

import (
	"strconv"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/workload"
)

// streamPageCost is the analytic response-time model behind the scale
// workload: per-page base service times loosely following the app's measured
// local means, plus one WAN round trip for remote classes. The model is what
// lets a million sessions run without a million container processes; its
// absolute numbers only need to be stable, not calibrated.
func streamPageCost(page string) time.Duration {
	switch page {
	case PageMain, PageSignin, PageSignout:
		return 12 * time.Millisecond
	case PageCategory, PageProduct, PageSearch:
		return 28 * time.Millisecond
	case PageItem:
		return 22 * time.Millisecond
	case PageVerifySignin, PageCommit:
		return 45 * time.Millisecond
	default: // Cart, Checkout, PlaceOrder, Billing
		return 30 * time.Millisecond
	}
}

const streamWANRoundTrip = 80 * time.Millisecond

// StreamRequestModel returns the synthetic request model for a class: base
// page cost, a WAN round trip when remote, and ±25% load jitter drawn from
// the lane RNG.
func StreamRequestModel(local bool) workload.StreamRequest {
	return func(env *sim.Env, c *workload.StreamClass, st *workload.StreamState, step *workload.Step) (time.Duration, error) {
		rt := streamPageCost(step.Page)
		jitter := time.Duration(env.Rand().Int63n(int64(rt/2))) - rt/4
		rt += jitter
		if !local {
			rt += streamWANRoundTrip
		}
		return rt, nil
	}
}

// StreamTraceWAN is the critical-path hint matching StreamRequestModel: a
// remote class's pages spend one WAN round trip of their response time on
// the wide area; local pages spend none. nil for local classes keeps the
// tracing-on hot path free of a useless indirect call.
func StreamTraceWAN(local bool) func(page string, rt time.Duration) time.Duration {
	if local {
		return nil
	}
	return func(page string, rt time.Duration) time.Duration {
		return streamWANRoundTrip
	}
}

// StreamWorkload builds the scale workload: totalClients spread across eight
// edge nodes (the first co-located with the application main site), each
// node carrying the paper's 80/20 browser/buyer mix with the 8-second soft
// think time. It is the configuration behind BenchmarkWorkloadScaleSessions
// and the `wadeploy scale` subcommand.
func StreamWorkload(totalClients int) []workload.StreamClass {
	const edges = 8
	classes := make([]workload.StreamClass, 0, 2*edges)
	for e := 0; e < edges; e++ {
		node := "edge-" + strconv.Itoa(e+1)
		local := e == 0
		clients := totalClients / edges
		if e < totalClients%edges {
			clients++
		}
		browsers := clients * 4 / 5
		writers := clients - browsers
		classes = append(classes,
			workload.StreamClass{
				Name:     node + "/browser",
				Node:     node,
				Local:    local,
				Pattern:  PatternBrowser,
				Clients:  browsers,
				Delay:    8 * time.Second,
				Gen:      BrowserSession,
				Request:  StreamRequestModel(local),
				TraceWAN: StreamTraceWAN(local),
			},
			workload.StreamClass{
				Name:     node + "/buyer",
				Node:     node,
				Local:    local,
				Pattern:  PatternBuyer,
				Clients:  writers,
				Delay:    8 * time.Second,
				Gen:      BuyerSession,
				Request:  StreamRequestModel(local),
				TraceWAN: StreamTraceWAN(local),
			})
	}
	return classes
}
