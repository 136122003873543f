package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Format renders one trace as an indented causal tree with node
// attribution, cause labels, and async hand-offs marked with "~":
//
//	trace 0x6b9a... petstore/Browser Product (remote)
//	 228.5ms  page Product @ clients-edge-1
//	   0.4ms    tcp handshake clients-edge-1 -> edge-1 @ edge-1
//	 180.0ms    rmi Catalog.getProduct -> main @ main [wan]
//	   2.1ms      sql SELECT ... @ main
//
// Spans print in depth-first causal order; siblings order by start time.
func Format(t *Trace) string {
	var b strings.Builder
	locality := "remote"
	if t.Local {
		locality = "local"
	}
	fmt.Fprintf(&b, "trace %#016x %s %s (%s)\n", uint64(t.ID), t.Pattern, t.Page, locality)
	if len(t.Spans) == 0 {
		return b.String()
	}
	children := make([][]SpanID, len(t.Spans))
	for i := 1; i < len(t.Spans); i++ {
		p := t.Spans[i].Parent
		if p >= 0 && int(p) < len(t.Spans) {
			children[p] = append(children[p], SpanID(i))
		}
	}
	for i := range children {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool {
			sa, sb := t.Spans[kids[a]], t.Spans[kids[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.ID < sb.ID
		})
	}
	var walk func(id SpanID, depth int)
	walk = func(id SpanID, depth int) {
		s := t.Spans[id]
		async := ""
		if s.Async {
			async = "~"
		}
		where := s.Node
		if s.Peer != "" {
			where = s.Peer + " -> " + s.Node
		}
		cause := ""
		if s.Cause != CauseService {
			cause = " [" + s.Cause.String() + "]"
		}
		fmt.Fprintf(&b, "%8s  %s%s%s %s @ %s%s\n",
			s.Dur().Round(100*time.Microsecond),
			strings.Repeat("  ", depth), async, s.Layer, s.Label, where, cause)
		for _, kid := range children[id] {
			walk(kid, depth+1)
		}
	}
	walk(0, 0)
	if t.Dropped > 0 {
		fmt.Fprintf(&b, "          ... %d spans dropped (per-trace cap)\n", t.Dropped)
	}
	return b.String()
}
