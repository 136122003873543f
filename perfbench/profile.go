package main

// Per-layer host time and allocation come from runtime/pprof profiles of the
// benchmark process. The toolchain's `go tool pprof -raw` decodes them; fold
// charges every sample to the innermost frame that belongs to a layer, so
// runtime work done on a layer's behalf (allocation, map access, channel
// hand-off) counts to that layer.

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// layers are the internal packages the benchmark reports one by one. The
// two applications share "app"; every other internal package is "other";
// the benchmark's own frames are "bench". A sample with no such frame is
// background runtime work (GC workers, the idle scheduler): "rt.bg".
var layers = []string{
	"sim", "simnet", "rmi", "container", "sqldb", "core", "web", "jms",
	"workload", "metrics", "trace", "app", "other", "bench",
}

const bgLayer = "rt.bg"

// leafClasses are runtime leaf-frame classes, reported beside the layers
// (a sample counts to its layer and, by its leaf, to at most one class).
var leafClasses = []string{"sched", "stack", "alloc_gc", "map"}

// layerOf returns the layer of a frame's function name, or "" for a frame
// outside wadeploy.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "wadeploy/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		switch pkg {
		case "petstore", "rubis":
			return "app"
		case "sim", "simnet", "rmi", "container", "sqldb", "core", "web", "jms", "workload", "metrics", "trace":
			return pkg
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// Runtime leaf classes by function-name prefix.
var leafPrefixes = []struct{ class, prefix string }{
	{"map", "internal/runtime/maps."},
	{"map", "runtime.map"},
	{"map", "runtime.memhash"},
	{"map", "runtime.strhash"},
	{"map", "runtime.aeshash"},
	{"map", "runtime.interhash"},
	{"map", "runtime.nilinterhash"},
	{"stack", "runtime.morestack"},
	{"stack", "runtime.newstack"},
	{"stack", "runtime.copystack"},
	{"stack", "runtime.stack"},
	{"stack", "runtime.adjust"},
	{"stack", "runtime.shrinkstack"},
	{"stack", "runtime.(*unwinder)"},
	{"stack", "runtime.gentraceback"},
	{"sched", "runtime.chan"},
	{"sched", "runtime.send"},
	{"sched", "runtime.recv"},
	{"sched", "runtime.selectgo"},
	{"sched", "runtime.gopark"},
	{"sched", "runtime.goready"},
	{"sched", "runtime.ready"},
	{"sched", "runtime.park_m"},
	{"sched", "runtime.schedule"},
	{"sched", "runtime.findRunnable"},
	{"sched", "runtime.execute"},
	{"sched", "runtime.runq"},
	{"sched", "runtime.globrunq"},
	{"sched", "runtime.stealWork"},
	{"sched", "runtime.wakep"},
	{"sched", "runtime.startm"},
	{"sched", "runtime.stopm"},
	{"sched", "runtime.mPark"},
	{"sched", "runtime.notesleep"},
	{"sched", "runtime.notewakeup"},
	{"sched", "runtime.futex"},
	{"sched", "runtime.lock"},
	{"sched", "runtime.unlock"},
	{"sched", "runtime.casgstatus"},
	{"sched", "runtime.mcall"},
	{"sched", "runtime.gogo"},
	{"sched", "runtime.gosched"},
	{"sched", "runtime.goexit"},
	{"sched", "runtime.newproc"},
	{"sched", "runtime.gfget"},
	{"sched", "runtime.gfput"},
	{"sched", "runtime.netpoll"},
	{"sched", "runtime.usleep"},
	{"sched", "runtime.osyield"},
	{"sched", "runtime.procyield"},
	{"sched", "runtime.nanotime"},
	{"sched", "runtime.checkTimers"},
	{"sched", "runtime.resetspinning"},
	{"sched", "runtime.releasep"},
	{"sched", "runtime.acquirep"},
	{"sched", "runtime.handoffp"},
	{"alloc_gc", "runtime.malloc"},
	{"alloc_gc", "runtime.nextFree"},
	{"alloc_gc", "runtime.newobject"},
	{"alloc_gc", "runtime.newarray"},
	{"alloc_gc", "runtime.makeslice"},
	{"alloc_gc", "runtime.growslice"},
	{"alloc_gc", "runtime.memclr"},
	{"alloc_gc", "runtime.heap"},
	{"alloc_gc", "runtime.(*mcache)"},
	{"alloc_gc", "runtime.(*mcentral)"},
	{"alloc_gc", "runtime.(*mheap)"},
	{"alloc_gc", "runtime.(*mspan)"},
	{"alloc_gc", "runtime.(*gcWork)"},
	{"alloc_gc", "runtime.(*gcControllerState)"},
	{"alloc_gc", "runtime.(*sweepLocked)"},
	{"alloc_gc", "runtime.(*pageAlloc)"},
	{"alloc_gc", "runtime.(*wbBuf)"},
	{"alloc_gc", "runtime.gc"},
	{"alloc_gc", "runtime.scan"},
	{"alloc_gc", "runtime.greyobject"},
	{"alloc_gc", "runtime.markroot"},
	{"alloc_gc", "runtime.findObject"},
	{"alloc_gc", "runtime.spanOf"},
	{"alloc_gc", "runtime.wbBuf"},
	{"alloc_gc", "runtime.bulkBarrier"},
	{"alloc_gc", "runtime.typePointers"},
	{"alloc_gc", "runtime.sweepone"},
	{"alloc_gc", "runtime.bgsweep"},
	{"alloc_gc", "runtime.bgscavenge"},
	{"alloc_gc", "runtime.deductAssistCredit"},
	{"alloc_gc", "runtime.publicationBarrier"},
	{"alloc_gc", "runtime.(*limiterEvent)"},
}

func leafClass(fn string) string {
	for _, p := range leafPrefixes {
		if strings.HasPrefix(fn, p.prefix) {
			return p.class
		}
	}
	return ""
}

// sample is one profile sample: its stack, leaf first, and its value.
type sample struct {
	Stack []string
	Value int64
}

// folded is a profile charged to layers. Every sample counts once in
// ByLayer (rt.bg included), so the layers sum to Total.
type folded struct {
	Total   int64
	ByLayer map[string]int64
	ByLeaf  map[string]int64
}

func fold(samples []sample) folded {
	f := folded{ByLayer: make(map[string]int64), ByLeaf: make(map[string]int64)}
	for _, s := range samples {
		f.Total += s.Value
		layer := bgLayer
		for _, fn := range s.Stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		f.ByLayer[layer] += s.Value
		if len(s.Stack) > 0 {
			if c := leafClass(s.Stack[0]); c != "" {
				f.ByLeaf[c] += s.Value
			}
		}
	}
	return f
}

// minus returns f - base, per layer and class, where f is a later profile
// of the same cumulative kind (allocations), so it has every key of base.
func (f folded) minus(base folded) folded {
	out := folded{Total: f.Total - base.Total, ByLayer: make(map[string]int64), ByLeaf: make(map[string]int64)}
	for k, v := range f.ByLayer {
		out.ByLayer[k] = v - base.ByLayer[k]
	}
	for k, v := range f.ByLeaf {
		out.ByLeaf[k] = v - base.ByLeaf[k]
	}
	return out
}

// parseRaw reads the text `go tool pprof -raw` prints and returns the
// samples, valued by the sample type whose name starts with valueType
// (e.g. "cpu/" or "alloc_space/").
func parseRaw(text, valueType string) ([]sample, error) {
	lines := strings.Split(text, "\n")
	section := ""
	col := -1
	type rawSample struct {
		value int64
		locs  []int
	}
	var raws []rawSample
	locs := make(map[int][]string)
	lastLoc := -1
	for _, line := range lines {
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "Samples:":
			section = "samples"
			continue
		case trimmed == "Locations":
			section = "locations"
			continue
		case trimmed == "Mappings":
			section = "mappings"
			continue
		}
		if trimmed == "" {
			continue
		}
		switch section {
		case "samples":
			if col < 0 {
				for i, t := range strings.Fields(trimmed) {
					if strings.HasPrefix(t, valueType) {
						col = i
					}
				}
				if col < 0 {
					return nil, fmt.Errorf("pprof: no %q sample type in %q", valueType, trimmed)
				}
				continue
			}
			head, tail, ok := strings.Cut(trimmed, ":")
			if !ok {
				continue
			}
			vals := strings.Fields(head)
			if len(vals) <= col {
				continue
			}
			v, err := strconv.ParseInt(vals[col], 10, 64)
			if err != nil {
				continue // a label line such as "bytes:[512]"
			}
			var rs rawSample
			rs.value = v
			for _, id := range strings.Fields(tail) {
				n, err := strconv.Atoi(id)
				if err != nil {
					return nil, fmt.Errorf("pprof: bad location %q", id)
				}
				rs.locs = append(rs.locs, n)
			}
			raws = append(raws, rs)
		case "locations":
			fields := strings.Fields(trimmed)
			if id, ok := strings.CutSuffix(fields[0], ":"); ok {
				if n, err := strconv.Atoi(id); err == nil {
					lastLoc = n
					fields = fields[1:] // address
					if len(fields) > 0 {
						fields = fields[1:]
					}
					if len(fields) > 0 && strings.HasPrefix(fields[0], "M=") {
						fields = fields[1:]
					}
					locs[n] = appendFrame(locs[n], fields)
					continue
				}
			}
			if lastLoc >= 0 {
				locs[lastLoc] = appendFrame(locs[lastLoc], fields)
			}
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("pprof: no samples section")
	}
	out := make([]sample, 0, len(raws))
	for _, rs := range raws {
		var stack []string
		for _, id := range rs.locs {
			stack = append(stack, locs[id]...)
		}
		out = append(out, sample{Stack: stack, Value: rs.value})
	}
	return out, nil
}

// appendFrame adds the function named by one location line: the fields
// before the trailing "file:line:col s=N" pair.
func appendFrame(frames []string, fields []string) []string {
	if n := len(fields); n >= 3 && strings.HasPrefix(fields[n-1], "s=") {
		fields = fields[:n-2]
	}
	if len(fields) == 0 {
		return frames
	}
	return append(frames, strings.Join(fields, " "))
}

// foldFile decodes a profile file with `go tool pprof -raw` and folds it.
func foldFile(path, valueType string) (folded, error) {
	cmd := exec.Command("go", "tool", "pprof", "-raw", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return folded{}, fmt.Errorf("go tool pprof -raw %s: %w: %s", path, err, stderr.String())
	}
	samples, err := parseRaw(string(out), valueType)
	if err != nil {
		return folded{}, fmt.Errorf("%s: %w", path, err)
	}
	return fold(samples), nil
}

// writeAllocs forces a collection, so the allocation profile is current,
// and writes it to path.
func writeAllocs(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("allocs profile: %w", err)
	}
	return f.Close()
}
