package obs

import (
	"os"
	"os/exec"
	"runtime"
	"sync"
	"testing"
)

type fakeReporter []FootprintItem

func (f fakeReporter) Footprint() []FootprintItem { return f }

func TestCensusNilIsSafe(t *testing.T) {
	var c *Census
	c.Register(fakeReporter{})
	c.Snapshot("x", 0)
	c.ObserveRuntime(0)
	if c.Snapshots() != nil {
		t.Fatal("nil census leaked snapshots")
	}
	if c.BuildReport() != nil {
		t.Fatal("nil census built a report")
	}
}

func TestCensusAggregatesAndSorts(t *testing.T) {
	c := NewCensus(nil)
	c.Register(fakeReporter{{Subsystem: "ib", Category: "qps", Bytes: 100, Objects: 2}})
	c.Register(fakeReporter{{Subsystem: "ib", Category: "qps", Bytes: 50, Objects: 1}})
	c.Register(fakeReporter{
		{Subsystem: "gasnet", Category: "conns", Bytes: 10, Objects: 1},
		{Subsystem: "cluster", Category: "goroutines", Bytes: 8192, Objects: 1, OffHeap: true},
	})
	c.Snapshot("setup", 7)
	snaps := c.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Label != "setup" || s.VT != 7 {
		t.Fatalf("bad snapshot header: %+v", s)
	}
	if s.HeapBytes <= 0 || s.Goroutines <= 0 {
		t.Fatalf("runtime readings missing: heap=%d goroutines=%d", s.HeapBytes, s.Goroutines)
	}
	want := []FootprintItem{
		{Subsystem: "cluster", Category: "goroutines", Bytes: 8192, Objects: 1, OffHeap: true},
		{Subsystem: "gasnet", Category: "conns", Bytes: 10, Objects: 1},
		{Subsystem: "ib", Category: "qps", Bytes: 150, Objects: 3},
	}
	if len(s.Items) != len(want) {
		t.Fatalf("got %d items, want %d: %+v", len(s.Items), len(want), s.Items)
	}
	for i, it := range s.Items {
		if it != want[i] {
			t.Fatalf("item %d = %+v, want %+v", i, it, want[i])
		}
	}
	if got := s.ModeledHeapBytes(); got != 160 {
		t.Fatalf("ModeledHeapBytes = %d, want 160 (off-heap row must be excluded)", got)
	}
}

// TestCensusReconciliation pins the drift arithmetic: allocate a known slab
// between the baseline and a second snapshot, model exactly that slab, and
// the report must reconcile; model nothing and it must produce a drift row.
func TestCensusReconciliation(t *testing.T) {
	const slabSize = 32 << 20 // far above the 1 MiB drift floor
	var slab []byte
	c := NewCensus(nil)
	var modeled *[]byte
	c.Register(reporterFunc(func() []FootprintItem {
		if modeled == nil {
			return nil
		}
		return []FootprintItem{{Subsystem: "test", Category: "slab", Bytes: int64(len(*modeled)), Objects: 1}}
	}))
	c.Snapshot("baseline", 0)
	slab = make([]byte, slabSize)
	for i := range slab {
		slab[i] = byte(i) // touch every page so the allocation is real
	}
	modeled = &slab
	c.Snapshot("job-end", 1)
	r := c.BuildReport()
	if !r.Reconciled || len(r.Drift) != 0 {
		t.Fatalf("modeled slab should reconcile: %+v", r.Recon)
	}
	// Unrelated baseline garbage may be reclaimed between snapshots, so the
	// delta can undershoot the slab by a little; nine tenths is plenty to
	// prove the slab dominates the measurement.
	if len(r.Recon) != 1 || r.Recon[0].MeasuredBytes < slabSize*9/10 {
		t.Fatalf("measured delta %d should cover the %d-byte slab", r.Recon[0].MeasuredBytes, slabSize)
	}

	// Same allocation, no model: the census must call it out loudly.
	c2 := NewCensus(nil)
	c2.Snapshot("baseline", 0)
	slab2 := make([]byte, slabSize)
	for i := range slab2 {
		slab2[i] = byte(i)
	}
	c2.Snapshot("job-end", 1)
	r2 := c2.BuildReport()
	if r2.Reconciled || len(r2.Drift) != 1 {
		t.Fatalf("unmodeled slab must drift: %+v", r2.Recon)
	}
	if r2.Drift[0].DriftBytes < slabSize*9/10 {
		t.Fatalf("drift %d should cover the unmodeled %d-byte slab", r2.Drift[0].DriftBytes, slabSize)
	}
	runtime.KeepAlive(slab)
	runtime.KeepAlive(slab2)
}

type reporterFunc func() []FootprintItem

func (f reporterFunc) Footprint() []FootprintItem { return f() }

// TestCensusGaugeMirrors checks that snapshots cut engine.* gauge levels as
// deltas: the folded series must end at the last recorded level.
func TestCensusGaugeMirrors(t *testing.T) {
	gs := NewGaugeSet()
	c := NewCensus(gs)
	c.Register(fakeReporter{{Subsystem: "ib", Category: "qps", Bytes: 4096, Objects: 4}})
	c.Snapshot("baseline", 0)
	c.Snapshot("job-end", 100_000)
	var sawHeap, sawSub bool
	for _, sr := range gs.Series(0) {
		switch sr.Name {
		case "engine.heap_bytes":
			sawHeap = true
			if sr.Inst != InstJob || sr.Final <= 0 {
				t.Fatalf("engine.heap_bytes series malformed: %+v", sr)
			}
		case "engine.bytes.ib":
			sawSub = true
			if sr.Final != 4096 {
				t.Fatalf("engine.bytes.ib final = %d, want 4096", sr.Final)
			}
		}
	}
	if !sawHeap || !sawSub {
		t.Fatalf("missing engine.* series (heap=%v sub=%v)", sawHeap, sawSub)
	}
}

func TestPlaneSelfFootprint(t *testing.T) {
	pl := NewPlane(2, Config{Events: true, Metrics: true, Gauges: true, Incidents: true, Footprint: true})
	pe := pl.PE(0)
	pe.Emit(1, LayerGasnet, "x", 1, 0)
	pe.Observe("h", 5)
	pe.Count("c", 1)
	pl.Gauges().Gauge("g", 0).Add(1, 1)
	pl.Ledger().Open("net", "drop", 0, InstJob, 1)
	items := pl.Footprint()
	byCat := map[string]FootprintItem{}
	for _, it := range items {
		if it.Subsystem != "obs" {
			t.Fatalf("plane footprint attributed outside obs: %+v", it)
		}
		byCat[it.Category] = it
	}
	for _, cat := range []string{"event-rings", "histograms", "counters", "gauge-logs", "incidents"} {
		if byCat[cat].Bytes <= 0 || byCat[cat].Objects <= 0 {
			t.Fatalf("category %s empty: %+v", cat, byCat[cat])
		}
	}
	if pl.Census() == nil {
		t.Fatal("Footprint config did not create a census")
	}
}

// TestGoroutineDescEstimate measures the heap one goroutine adds while it is
// parked: its descriptor, plus the 96 B wait record (a runtime sudog) that
// parks it on a channel. The census models only the descriptor — the wait
// record goes back to a runtime cache when the goroutine wakes — so the
// measurement must fall in [estimate, estimate+128). A new goroutine reuses
// the descriptor of one that exited, so the test measures in a process of its
// own, where none has exited yet.
func TestGoroutineDescEstimate(t *testing.T) {
	if os.Getenv("OBS_MEASURE_GOROUTINES") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestGoroutineDescEstimate$", "-test.v", "-test.count=1")
		cmd.Env = append(os.Environ(), "OBS_MEASURE_GOROUTINES=1")
		out, err := cmd.CombinedOutput()
		t.Logf("measuring process:\n%s", out)
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	const n = 4096
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	release := make(chan struct{})
	var parked, done sync.WaitGroup
	parked.Add(n)
	done.Add(n)
	before := heap()
	for i := 0; i < n; i++ {
		go func() {
			parked.Done()
			<-release
			done.Done()
		}()
	}
	parked.Wait()
	per := (heap() - before) / n
	close(release)
	done.Wait()
	t.Logf("%d B of heap per parked goroutine (descriptor estimate %d B)", per, GoroutineDescEstimate)
	if hi := GoroutineDescEstimate + 128; per < GoroutineDescEstimate || per >= hi {
		t.Errorf("%d B of heap per parked goroutine, want [%d, %d)", per, GoroutineDescEstimate, hi)
	}
}
