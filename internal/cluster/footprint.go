package cluster

import (
	"runtime"
	"sync/atomic"
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
// Goroutine descriptors are on the heap and are never freed (the runtime
// keeps an exited goroutine's for reuse), so a job adds descriptors only past
// the process's high-water mark at its baseline; that row claims those.
type engineReporter struct {
	res    *Result
	baseHW int64 // goroutineHW at the census baseline
}

func (e engineReporter) Footprint() []obs.FootprintItem {
	ng := int64(runtime.NumGoroutine())
	descs := noteGoroutines() - e.baseHW
	return []obs.FootprintItem{
		{Subsystem: "cluster", Category: "goroutines",
			Bytes: ng * obs.GoroutineStackEstimate, Objects: ng, OffHeap: true},
		{Subsystem: "cluster", Category: "goroutine-descs",
			Bytes: descs * obs.GoroutineDescEstimate, Objects: descs},
		{Subsystem: "cluster", Category: "pe-results",
			Bytes: int64(len(e.res.PEs)) * int64(unsafe.Sizeof(PEResult{})), Objects: int64(len(e.res.PEs))},
	}
}

// goroutineHW is the most goroutines this process has been seen running at
// once: about the number of descriptors the runtime holds. Every job raises
// it once its PEs have attached, census or not.
var goroutineHW atomic.Int64

// noteGoroutines raises goroutineHW to the goroutines alive now and returns it.
func noteGoroutines() int64 {
	ng := int64(runtime.NumGoroutine())
	for hw := goroutineHW.Load(); ng > hw; hw = goroutineHW.Load() {
		goroutineHW.CompareAndSwap(hw, ng)
	}
	return goroutineHW.Load()
}

// vclockReporter attributes the virtual-time engine: one clock per PE and
// one barrier (with its condition variable) per node. Tiny by design — its
// presence in the table proves the max-plus machinery is NOT where the bytes
// go.
type vclockReporter struct {
	clks []*vclock.Clock
	bars []*vclock.VBarrier
}

func (v vclockReporter) Footprint() []obs.FootprintItem {
	clks, bars := int64(len(v.clks)), int64(len(v.bars))
	return []obs.FootprintItem{
		{Subsystem: "vclock", Category: "clocks", Bytes: clks * int64(unsafe.Sizeof(vclock.Clock{})), Objects: clks},
		{Subsystem: "vclock", Category: "barriers",
			Bytes: bars * int64(unsafe.Sizeof(vclock.VBarrier{})+unsafe.Sizeof(vclock.Cond{})), Objects: bars},
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
