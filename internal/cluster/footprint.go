package cluster

import (
	"runtime"
	"unsafe"

	"goshmem/internal/obs"
	"goshmem/internal/vclock"
)

// Engine-census reporters for the launcher's own allocations. The cluster
// layer owns what no subsystem can see: the goroutine population (two per
// PE — app thread and conduit progress thread — plus the watchdog and
// sampler), the per-PE result slots, and the virtual-time machinery.

// engineReporter attributes the launcher's state: the goroutine census and
// the result table. Goroutine stacks live outside the Go heap (OffHeap), so
// the row informs the report without entering heap reconciliation; the
// measured StackInuse recorded in every census snapshot is its cross-check.
type engineReporter struct {
	res *Result
}

func (e engineReporter) Footprint() []obs.FootprintItem {
	ng := int64(runtime.NumGoroutine())
	return []obs.FootprintItem{
		{Subsystem: "cluster", Category: "goroutines",
			Bytes: ng * obs.GoroutineStackEstimate, Objects: ng, OffHeap: true},
		{Subsystem: "cluster", Category: "pe-results",
			Bytes: int64(len(e.res.PEs)) * int64(unsafe.Sizeof(PEResult{})), Objects: int64(len(e.res.PEs))},
	}
}

// vclockReporter attributes the virtual-time engine: one clock per PE and
// one barrier per node. Tiny by design — its presence in the table proves
// the max-plus machinery is NOT where the bytes go.
type vclockReporter struct {
	clks []*vclock.Clock
	bars []*vclock.VBarrier
}

func (v vclockReporter) Footprint() []obs.FootprintItem {
	var clkB, barB int64
	for _, c := range v.clks {
		clkB += c.MemSize()
	}
	for _, b := range v.bars {
		barB += b.MemSize()
	}
	return []obs.FootprintItem{
		{Subsystem: "vclock", Category: "clocks", Bytes: clkB, Objects: int64(len(v.clks))},
		{Subsystem: "vclock", Category: "barriers", Bytes: barB, Objects: int64(len(v.bars))},
	}
}

// maxClockVT is the census timestamp for asynchronous engine observations:
// the furthest any PE has progressed in virtual time.
func maxClockVT(clks []*vclock.Clock) (vt int64) {
	for _, c := range clks {
		vt = max(vt, c.Now())
	}
	return vt
}
