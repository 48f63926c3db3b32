package cluster

import (
	"testing"

	"goshmem/internal/gasnet"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
)

func runFootprint(t *testing.T, mode gasnet.Mode, np int) *Result {
	t.Helper()
	res, err := Run(Config{
		NP: np, PPN: 16, Mode: mode, HeapSize: 64 << 10,
		Obs: obs.Config{Footprint: true},
	}, ringApp(1, 512))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFootprintReconcilesNP256 is the acceptance gate: at np=256 in both
// connection modes, the modeled subsystem bytes must tile the measured heap
// delta within the documented tolerance — the drift list stays empty.
func TestFootprintReconcilesNP256(t *testing.T) {
	if testing.Short() {
		t.Skip("np=256 census run in -short mode")
	}
	for _, mode := range []gasnet.Mode{gasnet.Static, gasnet.OnDemand} {
		res := runFootprint(t, mode, 256)
		fp := res.Footprint
		if fp == nil {
			t.Fatalf("%v: footprint plane enabled but report missing", mode)
		}
		if !fp.Reconciled || len(fp.Drift) != 0 {
			for _, d := range fp.Drift {
				t.Errorf("%v: drift row %s: modeled %d vs measured %d (%+.0f%%)",
					mode, d.Label, d.ModeledBytes, d.MeasuredBytes, d.DriftFrac*100)
			}
			t.Fatalf("%v: census failed to tile the heap", mode)
		}
		labels := map[string]obs.CensusSnapshot{}
		for _, s := range fp.Snapshots {
			labels[s.Label] = s
		}
		for _, want := range []string{"baseline", "setup", "init-done", "job-end"} {
			if _, ok := labels[want]; !ok {
				t.Fatalf("%v: missing census snapshot %q", mode, want)
			}
		}
		// Two goroutines per PE (app thread + conduit progress thread) must
		// be alive at the init boundary.
		if got := labels["init-done"].Goroutines; got < 2*256 {
			t.Errorf("%v: init-done goroutine census %d, want >= %d", mode, got, 2*256)
		}
		// The modeled attribution must actually attribute: the dominant
		// subsystems all report bytes at init-done.
		initDone := labels["init-done"]
		sub := initDone.SubsystemHeapBytes()
		for _, s := range []string{"ib", "gasnet", "shmem", "pmi", "obs", "vclock", "cluster"} {
			if sub[s] <= 0 {
				t.Errorf("%v: subsystem %s modeled no bytes at init-done", mode, s)
			}
		}
		// The 64 KiB heaps are registered at init but backed per allocation:
		// ib holds no heap bytes at init-done, and by job end exactly the
		// one 512-byte block per PE ringApp allocates.
		for label, want := range map[string]int64{"init-done": 0, "job-end": 256 * 512} {
			if got := pinnedBytes(labels[label]); got != want {
				t.Errorf("%v: %s ib/pinned-bytes = %d, want %d (the allocated blocks)", mode, label, got, want)
			}
		}
	}
}

// pinnedBytes is the census's ib/pinned-bytes total in one snapshot: the
// backed windows of the pinned regions, i.e. the symmetric-heap blocks.
func pinnedBytes(s obs.CensusSnapshot) int64 {
	var n int64
	for _, it := range s.Items {
		if it.Subsystem == "ib" && it.Category == "pinned-bytes" {
			n += it.Bytes
		}
	}
	return n
}

// TestFootprintHeapBackedByAllocation registers the paper's 1 GiB heap on
// each of 256 PEs — 256 GiB if it were backed densely — and allocates one
// 4 KiB block: the census must reconcile and ib/pinned-bytes must be the
// allocation, 0 at init-done and 4,096 B per PE at job end.
func TestFootprintHeapBackedByAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("np=256 census run in -short mode")
	}
	const np = 256
	res, err := Run(Config{
		NP: np, PPN: 16, Mode: gasnet.OnDemand, HeapSize: 1 << 30,
		Obs: obs.Config{Footprint: true},
	}, func(c *shmem.Ctx) { c.Malloc(4096) })
	if err != nil {
		t.Fatal(err)
	}
	fp := res.Footprint
	for _, d := range fp.Drift {
		t.Errorf("drift row %s: modeled %d vs measured %d", d.Label, d.ModeledBytes, d.MeasuredBytes)
	}
	if !fp.Reconciled {
		t.Fatal("census failed to tile the heap")
	}
	want := map[string]int64{"init-done": 0, "job-end": np * 4096}
	for _, s := range fp.Snapshots {
		if w, ok := want[s.Label]; ok {
			if got := pinnedBytes(s); got != w {
				t.Errorf("%s ib/pinned-bytes = %d, want %d", s.Label, got, w)
			}
			delete(want, s.Label)
		}
	}
	for label := range want {
		t.Errorf("missing census snapshot %q", label)
	}
}

// TestFootprintSegDirSparseOnDemand: at the init boundary an on-demand PE has
// heard from no peer, so its segment directory is its own chunk and one index
// entry — not the np-entry table (24 B × 1024 = 24,576 B per PE) it once was,
// nor a pointer per 32 ranks (256 B at np=1024) beside a 32-rank chunk. At
// job end it holds the chunks around the peers it talked to. The census must
// still reconcile.
func TestFootprintSegDirSparseOnDemand(t *testing.T) {
	if testing.Short() {
		t.Skip("np=1024 census run in -short mode")
	}
	const np = 1024
	fp := runFootprint(t, gasnet.OnDemand, np).Footprint
	if fp == nil {
		t.Fatal("footprint plane enabled but report missing")
	}
	for _, d := range fp.Drift {
		t.Errorf("drift row %s: modeled %d vs measured %d", d.Label, d.ModeledBytes, d.MeasuredBytes)
	}
	if !fp.Reconciled {
		t.Fatal("census failed to tile the heap")
	}
	want := map[string]int64{"init-done": 256, "job-end": 4 << 10}
	for _, s := range fp.Snapshots {
		max, ok := want[s.Label]
		if !ok {
			continue
		}
		delete(want, s.Label)
		var segDir int64
		for _, it := range s.Items {
			if it.Subsystem == "shmem" && it.Category == "seg-dir" {
				segDir += it.Bytes
			}
		}
		if perPE := segDir / np; perPE <= 0 || perPE > max {
			t.Errorf("%s shmem/seg-dir %d B per PE, want (0, %d]", s.Label, perPE, max)
		}
	}
	for label := range want {
		t.Errorf("missing census snapshot %q", label)
	}
}

// TestFootprintPerPEIndependentOfNP is the paper's premise per PE: an
// on-demand PE that has heard from no peer yet costs the same whatever the
// job size, so its modeled on-heap bytes at the init boundary are equal
// within 5% at np=256 and np=2,048, and at most 4 KiB. (np=4,096 would run
// 8,192 PE goroutines, past the race detector's limit of 8,128 live ones.)
func TestFootprintPerPEIndependentOfNP(t *testing.T) {
	if testing.Short() {
		t.Skip("np=2048 census run in -short mode")
	}
	perPE := map[int]float64{}
	for _, np := range []int{256, 2048} {
		for _, s := range runFootprint(t, gasnet.OnDemand, np).Footprint.Snapshots {
			if s.Label == "init-done" {
				// The job claims only goroutine descriptors past the
				// process's high-water mark, which depends on what ran
				// before it; a PE's own are its two goroutines'.
				b := 2 * obs.GoroutineDescEstimate * int64(np)
				for _, it := range s.Items {
					if !it.OffHeap && it.Category != "goroutine-descs" {
						b += it.Bytes
					}
				}
				perPE[np] = float64(b) / float64(np)
			}
		}
	}
	t.Logf("init-done modeled on-heap bytes per PE: %.0f at np=256, %.0f at np=2048", perPE[256], perPE[2048])
	if r := perPE[2048] / perPE[256]; !(r >= 0.95 && r <= 1.05) {
		t.Errorf("init-done modeled on-heap bytes per PE: %.0f at np=256, %.0f at np=2048 (%+.1f%%), want within 5%%",
			perPE[256], perPE[2048], (r-1)*100)
	}
	// And it is small: the conduit, its CQ, the shmem context, one seg-dir
	// chunk, two goroutine descriptors and their share of the job's tables.
	for np, b := range perPE {
		if b > 4096 {
			t.Errorf("init-done modeled on-heap bytes per PE at np=%d: %.0f, want <= 4096", np, b)
		}
	}
}

// TestFootprintModeledBytesStable pins byte-stability: two identical
// fault-free static runs must model identical per-category numbers. The
// models use exact lengths (never capacities) and deterministic object
// counts, so any instability here is a model reading schedule-dependent
// state. The goroutine rows are exempt: goroutine exit is asynchronous, so
// the job-end count is inherently schedule-dependent, and the descriptors a
// job claims depend on the jobs the process ran before it.
func TestFootprintModeledBytesStable(t *testing.T) {
	onHeap := func(res *Result) map[string]obs.FootprintItem {
		last := res.Footprint.Snapshots[len(res.Footprint.Snapshots)-1]
		m := map[string]obs.FootprintItem{}
		for _, it := range last.Items {
			if !it.OffHeap && it.Category != "goroutine-descs" {
				m[it.Subsystem+"/"+it.Category] = it
			}
		}
		return m
	}
	a := onHeap(runFootprint(t, gasnet.Static, 64))
	b := onHeap(runFootprint(t, gasnet.Static, 64))
	if len(a) != len(b) {
		t.Fatalf("category sets differ: %d vs %d", len(a), len(b))
	}
	for k, ia := range a {
		if ib, ok := b[k]; !ok || ia != ib {
			t.Errorf("category %s not byte-stable: %+v vs %+v", k, ia, ib)
		}
	}
}

// TestFootprintClaimsOnlyNewGoroutineDescs: the runtime reuses an exited
// goroutine's descriptor, so a job smaller than one the process already ran
// adds no descriptor to the heap and must claim none; a row that claimed them
// would close drift the measured heap delta does not contain.
func TestFootprintClaimsOnlyNewGoroutineDescs(t *testing.T) {
	runFootprint(t, gasnet.OnDemand, 128)
	for _, s := range runFootprint(t, gasnet.OnDemand, 64).Footprint.Snapshots {
		for _, it := range s.Items {
			if it.Category == "goroutine-descs" && it.Bytes != 0 {
				t.Errorf("%s: np=64 job after an np=128 one claims %d goroutine descriptors, want 0", s.Label, it.Objects)
			}
		}
	}
}

// TestFootprintOffByDefault pins satellite behavior: a plain run creates no
// census, takes no snapshots and — per the gated post-job collection — never
// forces a GC on the caller.
func TestFootprintOffByDefault(t *testing.T) {
	res, err := Run(Config{NP: 8, PPN: 4, Mode: gasnet.OnDemand, HeapSize: 1 << 16}, ringApp(1, 256))
	if err != nil {
		t.Fatal(err)
	}
	if res.Footprint != nil {
		t.Fatal("plain run produced a footprint report")
	}
	if res.Obs.Census() != nil {
		t.Fatal("plain run created a census")
	}
}

// TestFootprintGaugeSeries checks the engine.* export path end to end: with
// gauges co-enabled the census mirrors heap/goroutine levels and the
// per-subsystem bytes onto the virtual-time grid.
func TestFootprintGaugeSeries(t *testing.T) {
	res, err := Run(Config{
		NP: 16, PPN: 8, Mode: gasnet.OnDemand, HeapSize: 1 << 16,
		Obs: obs.Config{Footprint: true, Gauges: true},
	}, ringApp(1, 256))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"engine.heap_bytes": false, "engine.goroutines": false,
		"engine.bytes.ib": false, "engine.bytes.gasnet": false,
	}
	for _, st := range res.Obs.Gauges().Stats() {
		if _, ok := want[st.Name]; ok {
			want[st.Name] = true
			if st.Inst != obs.InstJob {
				t.Errorf("%s on inst %d, want job-level %d", st.Name, st.Inst, obs.InstJob)
			}
			if st.Max <= 0 {
				t.Errorf("%s never rose above zero", st.Name)
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("gauge %s missing", name)
		}
	}
}
