package main

import (
	"reflect"
	"testing"
)

func TestFoldChargesInnermostLayer(t *testing.T) {
	samples := []sample{
		// Runtime frames above a wadeploy frame are charged to it.
		{[]string{"runtime.mallocgc", "runtime.newobject", "wadeploy/internal/sqldb.(*DB).exec",
			"wadeploy/internal/container.(*Server).call", "main.main"}, 50},
		{[]string{"runtime.chanrecv1", "wadeploy/internal/sim.(*Proc).pause",
			"wadeploy/internal/sim.(*Proc).Sleep", "wadeploy/internal/workload.spawnClient.func1"}, 30},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2_faststr",
			"wadeploy/internal/petstore.(*App).RequestFunc.func1"}, 20},
		{[]string{"wadeploy/internal/rubis.(*App).page"}, 5},
		{[]string{"wadeploy/internal/replog.(*Log).Append", "wadeploy/internal/container.(*RWEntity).Commit"}, 7},
		{[]string{"runtime.growslice", "main.(*spanLog).begin", "wadeploy/internal/workload.Run"}, 3},
		// No wadeploy frame: background runtime work.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 40},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, 10},
		{nil, 1},
	}
	f := fold(samples)
	wantLayers := map[string]int64{
		"sqldb": 50, "sim": 30, "app": 25, "other": 7, "bench": 3, bgLayer: 51,
	}
	if !reflect.DeepEqual(f.ByLayer, wantLayers) {
		t.Errorf("ByLayer = %v, want %v", f.ByLayer, wantLayers)
	}
	var sum int64
	for _, v := range f.ByLayer {
		sum += v
	}
	if sum != f.Total || f.Total != 166 {
		t.Errorf("layers sum to %d, total %d, want both 166", sum, f.Total)
	}
	wantLeaf := map[string]int64{"alloc_gc": 50 + 3 + 40, "sched": 30 + 10, "map": 20}
	if !reflect.DeepEqual(f.ByLeaf, wantLeaf) {
		t.Errorf("ByLeaf = %v, want %v", f.ByLeaf, wantLeaf)
	}

	d := fold(samples[:2]).minus(fold(samples[:1]))
	if d.Total != 30 || d.ByLayer["sim"] != 30 || d.ByLayer["sqldb"] != 0 {
		t.Errorf("minus = %+v, want only sim's 30", d)
	}
}

// rawText is `go tool pprof -raw` output in miniature: a label line after a
// sample, and a location whose inlined caller sits on a continuation line.
const rawText = `PeriodType: space bytes
Period: 524288
Samples:
alloc_objects/count alloc_space/bytes[dflt] inuse_objects/count inuse_space/bytes
          3      77016          0          0: 1 2
                bytes:[21760]
          1     114815          0          0: 3
Locations
     1: 0x46c884 M=1 runtime.mallocgc /usr/local/go/src/runtime/malloc.go:1060:0 s=1010
     2: 0x50f4f6 M=1 wadeploy/internal/sqldb.(*DB).scan /src/internal/sqldb/select.go:93:0 s=77
             wadeploy/internal/container.(*Server).load /src/internal/container/entity.go:10:0 s=5
     3: 0x46ca5d M=1 wadeploy/internal/sim.NewPromise[...] /src/internal/sim/sim.go:422:0 s=420
Mappings
1: 0x400000/0x5a0000/0x0 perfbench  [FN]
`

func TestParseRaw(t *testing.T) {
	got, err := parseRaw(rawText, "alloc_space/")
	if err != nil {
		t.Fatal(err)
	}
	want := []sample{
		{[]string{"runtime.mallocgc", "wadeploy/internal/sqldb.(*DB).scan", "wadeploy/internal/container.(*Server).load"}, 77016},
		{[]string{"wadeploy/internal/sim.NewPromise[...]"}, 114815},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseRaw = %v, want %v", got, want)
	}
	if _, err := parseRaw(rawText, "cpu/"); err == nil {
		t.Error("parseRaw found a cpu sample type in an allocation profile")
	}
}
