package obs

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"unsafe"
)

// Engine footprint census: the observability plane turned on the engine
// itself. The obs plane built so far (events, gauges, flows, incidents)
// observes the *simulated* fabric; nothing could say where the bytes of the
// simulator go — and ROADMAP item 1 (the sharded event engine) needs exactly
// that before it can be judged. The census applies the incident-ledger
// discipline to memory: every allocation-heavy subsystem implements
// FootprintReporter and models its own bytes from first principles
// (object counts × unsafe.Sizeof shells + exact buffer lengths); the census
// collects those models at each startup-phase boundary and at job end, and
// reconciles them against runtime.ReadMemStats — a drift row appears, loudly,
// whenever the modeled bytes fail to tile the measured heap delta within a
// documented tolerance. An attribution table nobody checks against reality
// is a table that silently rots; the reconciliation is the feature.

// FootprintSchemaVersion identifies the `footprint` report section's shape so
// trajectory tooling can evolve with it. Bump on any breaking change.
const FootprintSchemaVersion = 1

// DriftToleranceFrac is the reconciliation tolerance: a census snapshot whose
// modeled bytes differ from the measured heap delta by more than this
// fraction of the measurement earns a drift row. The slack it grants covers
// what the models deliberately leave out — allocator size-class rounding,
// slice growth beyond len (models use exact lengths so fixed seeds stay
// byte-stable while append schedules do not), map bucket arrays estimated at
// a flat per-entry cost, and runtime-internal allocations (timers, channel
// buffers, scheduler state) that belong to no subsystem. Empirically the
// unmodeled remainder sits near 10-20% at np=256; 35% is the loud-failure
// line, not a precision claim.
const DriftToleranceFrac = 0.35

// DriftFloorBytes exempts snapshots whose measured heap delta is too small
// for a fractional comparison to mean anything: below this floor the delta
// is dominated by runtime noise (GC metadata, goroutine bookkeeping), so a
// drift verdict would be a coin flip. 1 MiB is well under one PE's heap in
// any real run.
const DriftFloorBytes = int64(1) << 20

// mapEntryOverhead approximates the per-entry cost of a Go map beyond the
// key and value themselves (bucket array slots, overflow pointers, hash
// metadata). The true cost varies with load factor; the census uses a flat
// estimate because map-heavy structures are a small slice of the total and
// the reconciliation tolerance absorbs the error.
const mapEntryOverhead = 48

// GoroutineStackEstimate is the modeled stack cost of one goroutine. Stacks
// start at 2 KiB and grow on demand; the simulator's PE goroutines settle
// around 4-16 KiB once attach has run its call depth. 8 KiB is the modeling
// constant; the census records the measured runtime.MemStats StackInuse next
// to it in every snapshot, so the estimate is itself reconciled in the
// report rather than trusted. Stacks live outside the Go heap, so rows
// built from this are OffHeap and excluded from heap reconciliation.
const GoroutineStackEstimate = int64(8) << 10

// FootprintItem is one (subsystem, category) attribution row: modeled bytes
// and the object count behind them. OffHeap marks rows whose bytes do not
// live in the Go heap (goroutine stacks); they are reported but excluded
// from the heap reconciliation.
type FootprintItem struct {
	Subsystem string `json:"subsystem"`
	Category  string `json:"category"`
	Bytes     int64  `json:"bytes"`
	Objects   int64  `json:"objects"`
	OffHeap   bool   `json:"off_heap,omitempty"`
}

// FootprintReporter is implemented by every allocation-heavy subsystem (the
// HCAs, each PE's conduit, the vclock pool, the cluster launcher, the obs
// plane itself). Footprint models the receiver's current retained memory
// from deterministic quantities — object counts times struct-shell sizes
// plus exact buffer lengths — so that a fixed-seed run reports byte-stable
// numbers. It is called only at census boundaries (startup phases, job end)
// and may take the receiver's own locks; it must never call back into the
// census.
type FootprintReporter interface {
	Footprint() []FootprintItem
}

// CensusSnapshot is the engine's state at one census boundary: the measured
// runtime numbers and the per-subsystem modeled attribution rows, aggregated
// by (subsystem, category) and sorted.
type CensusSnapshot struct {
	Label      string          `json:"label"`
	VT         int64           `json:"vt_ns"`
	HeapBytes  int64           `json:"heap_bytes"`  // HeapAlloc after a forced GC
	StackBytes int64           `json:"stack_bytes"` // StackInuse (off-heap)
	Goroutines int64           `json:"goroutines"`
	Items      []FootprintItem `json:"items"`
}

// ModeledHeapBytes sums the snapshot's on-heap attribution rows.
func (s *CensusSnapshot) ModeledHeapBytes() int64 {
	var n int64
	for _, it := range s.Items {
		if !it.OffHeap {
			n += it.Bytes
		}
	}
	return n
}

// SubsystemHeapBytes returns the on-heap modeled bytes per subsystem.
func (s *CensusSnapshot) SubsystemHeapBytes() map[string]int64 {
	m := make(map[string]int64)
	for _, it := range s.Items {
		if !it.OffHeap {
			m[it.Subsystem] += it.Bytes
		}
	}
	return m
}

// Census collects footprint snapshots over a job's lifetime. A nil *Census
// is the disabled plane: every method nil-checks and returns, so the cluster
// layer can thread census calls unconditionally. The census keeps references
// to its reporters for the whole job — deliberately: the job-end snapshot
// must see the same objects the run allocated, not whatever a racing GC left.
type Census struct {
	mu        sync.Mutex
	reporters []FootprintReporter
	snaps     []CensusSnapshot

	// Gauge mirrors (engine.* family, job instance). Gauges record signed
	// deltas, so the census tracks the last recorded level per series.
	gauges  *GaugeSet
	lastCut map[string]int64
}

// NewCensus creates a census mirroring its levels into gs (which may be nil:
// snapshots still accumulate, only the gauge series are absent).
func NewCensus(gs *GaugeSet) *Census {
	return &Census{gauges: gs, lastCut: make(map[string]int64)}
}

// Register adds a reporter. Safe to call while the job runs; reporters
// registered after a snapshot simply first appear in the next one.
func (c *Census) Register(r FootprintReporter) {
	if c == nil || r == nil {
		return
	}
	c.mu.Lock()
	c.reporters = append(c.reporters, r)
	c.mu.Unlock()
}

// Snapshot takes a census at a boundary: forces a GC so HeapAlloc measures
// retained bytes rather than float, reads the runtime counters, collects and
// aggregates every reporter's model, and mirrors the levels into the
// engine.* gauge family at virtual time vt. Boundaries are rare (a handful
// per job), so the forced collection is off any hot path.
func (c *Census) Snapshot(label string, vt int64) {
	if c == nil {
		return
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ng := int64(runtime.NumGoroutine())

	c.mu.Lock()
	defer c.mu.Unlock()
	agg := make(map[FootprintItem]FootprintItem) // key: zero-valued Bytes/Objects
	for _, r := range c.reporters {
		for _, it := range r.Footprint() {
			k := FootprintItem{Subsystem: it.Subsystem, Category: it.Category, OffHeap: it.OffHeap}
			a := agg[k]
			a.Subsystem, a.Category, a.OffHeap = it.Subsystem, it.Category, it.OffHeap
			a.Bytes += it.Bytes
			a.Objects += it.Objects
			agg[k] = a
		}
	}
	items := make([]FootprintItem, 0, len(agg))
	for _, it := range agg {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].Subsystem != items[j].Subsystem {
			return items[i].Subsystem < items[j].Subsystem
		}
		return items[i].Category < items[j].Category
	})
	snap := CensusSnapshot{
		Label:      label,
		VT:         vt,
		HeapBytes:  int64(ms.HeapAlloc),
		StackBytes: int64(ms.StackInuse),
		Goroutines: ng,
		Items:      items,
	}
	c.snaps = append(c.snaps, snap)

	c.cutLocked("engine.heap_bytes", vt, snap.HeapBytes)
	c.cutLocked("engine.goroutines", vt, ng)
	for sub, b := range snap.SubsystemHeapBytes() {
		c.cutLocked("engine.bytes."+sub, vt, b)
	}
}

// ObserveRuntime records a lightweight runtime sample (live heap, goroutine
// count) into the engine.* gauges without forcing a collection — the
// -memstats-every soak sampler. Unlike census snapshots, the heap reading
// here includes not-yet-collected garbage; the series shows the engine's
// live pressure, the snapshots show its retained floor.
func (c *Census) ObserveRuntime(vt int64) {
	if c == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ng := int64(runtime.NumGoroutine())
	c.mu.Lock()
	c.cutLocked("engine.heap_bytes", vt, int64(ms.HeapAlloc))
	c.cutLocked("engine.goroutines", vt, ng)
	c.mu.Unlock()
}

// cutLocked records a gauge level by emitting the delta from the last
// recorded level of the same series. Caller holds c.mu.
func (c *Census) cutLocked(name string, vt, level int64) {
	if c.gauges == nil {
		return
	}
	c.gauges.Gauge(name, InstJob).Add(vt, level-c.lastCut[name])
	c.lastCut[name] = level
}

// Snapshots returns the census history, oldest first.
func (c *Census) Snapshots() []CensusSnapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CensusSnapshot(nil), c.snaps...)
}

// FootprintRecon is one snapshot's modeled-vs-measured reconciliation row.
// Measured is the heap delta from the baseline snapshot; Drift is
// measured − modeled (positive: bytes the models failed to claim).
type FootprintRecon struct {
	Label         string  `json:"label"`
	ModeledBytes  int64   `json:"modeled_bytes"`
	MeasuredBytes int64   `json:"measured_bytes"`
	DriftBytes    int64   `json:"drift_bytes"`
	DriftFrac     float64 `json:"drift_frac"`
	Within        bool    `json:"within_tolerance"`
}

// FootprintReport is the schema-versioned `footprint` section of the JSON
// report: the full census history, the per-snapshot reconciliation, and the
// drift rows — the subset of reconciliation rows outside tolerance. An empty
// Drift list is the healthy state; anything in it is a modeling bug or a
// leak, in either direction.
type FootprintReport struct {
	SchemaVersion int     `json:"schema_version"`
	ToleranceFrac float64 `json:"tolerance_frac"`
	FloorBytes    int64   `json:"floor_bytes"`

	Snapshots []CensusSnapshot `json:"snapshots"`
	Recon     []FootprintRecon `json:"reconciliation"`
	Drift     []FootprintRecon `json:"drift"`
	// Reconciled is true when every reconciliation row is within tolerance
	// (the acceptance gate the footprint smoke checks).
	Reconciled bool `json:"reconciled"`
}

// BuildReport reconciles the census history. The first snapshot is the
// baseline: everything the process allocated before the job (test harness,
// CLI, runtime) is subtracted out, so modeled bytes — which only cover
// job-owned objects — are compared against job-owned heap growth.
func (c *Census) BuildReport() *FootprintReport {
	snaps := c.Snapshots()
	if snaps == nil {
		return nil
	}
	rep := &FootprintReport{
		SchemaVersion: FootprintSchemaVersion,
		ToleranceFrac: DriftToleranceFrac,
		FloorBytes:    DriftFloorBytes,
		Snapshots:     snaps,
		Recon:         []FootprintRecon{},
		Drift:         []FootprintRecon{},
		Reconciled:    true,
	}
	if len(snaps) == 0 {
		return rep
	}
	base := snaps[0].HeapBytes
	for _, s := range snaps[1:] {
		row := FootprintRecon{
			Label:         s.Label,
			ModeledBytes:  s.ModeledHeapBytes(),
			MeasuredBytes: s.HeapBytes - base,
		}
		row.DriftBytes = row.MeasuredBytes - row.ModeledBytes
		if row.MeasuredBytes > 0 {
			row.DriftFrac = float64(row.DriftBytes) / float64(row.MeasuredBytes)
		}
		abs := row.DriftBytes
		if abs < 0 {
			abs = -abs
		}
		tol := int64(DriftToleranceFrac * float64(row.MeasuredBytes))
		if tol < DriftFloorBytes {
			tol = DriftFloorBytes
		}
		row.Within = abs <= tol
		rep.Recon = append(rep.Recon, row)
		if !row.Within {
			rep.Drift = append(rep.Drift, row)
			rep.Reconciled = false
		}
	}
	return rep
}

// WriteText renders the report as the `-metrics` footprint table: the census
// timeline, the final snapshot's attribution rows, and the drift verdict.
func (r *FootprintReport) WriteText(w io.Writer) {
	if r == nil || len(r.Snapshots) == 0 {
		return
	}
	fmt.Fprintf(w, "--- engine footprint (census, tolerance %.0f%%) ---\n", r.ToleranceFrac*100)
	fmt.Fprintf(w, "%-12s %12s %12s %10s %12s %12s %8s\n",
		"snapshot", "heap", "stacks", "goroutine", "modeled", "drift", "ok")
	reconBy := make(map[string]FootprintRecon, len(r.Recon))
	for _, row := range r.Recon {
		reconBy[row.Label] = row
	}
	for i, s := range r.Snapshots {
		if i == 0 {
			fmt.Fprintf(w, "%-12s %12d %12d %10d %12s %12s %8s\n",
				s.Label, s.HeapBytes, s.StackBytes, s.Goroutines, "-", "-", "base")
			continue
		}
		row := reconBy[s.Label]
		ok := "ok"
		if !row.Within {
			ok = "DRIFT"
		}
		fmt.Fprintf(w, "%-12s %12d %12d %10d %12d %+12d %8s\n",
			s.Label, s.HeapBytes, s.StackBytes, s.Goroutines,
			row.ModeledBytes, row.DriftBytes, ok)
	}
	last := r.Snapshots[len(r.Snapshots)-1]
	fmt.Fprintf(w, "attribution at %q:\n", last.Label)
	fmt.Fprintf(w, "  %-10s %-18s %14s %10s\n", "subsystem", "category", "bytes", "objects")
	for _, it := range last.Items {
		note := ""
		if it.OffHeap {
			note = "  (off-heap)"
		}
		fmt.Fprintf(w, "  %-10s %-18s %14d %10d%s\n", it.Subsystem, it.Category, it.Bytes, it.Objects, note)
	}
	if r.Reconciled {
		fmt.Fprintf(w, "drift rows: none — modeled bytes tile the measured heap\n")
	} else {
		for _, d := range r.Drift {
			fmt.Fprintf(w, "DRIFT %s: modeled %d vs measured %d (%+.0f%%) — attribution does not tile the heap\n",
				d.Label, d.ModeledBytes, d.MeasuredBytes, d.DriftFrac*100)
		}
	}
}

// Footprint models the obs plane's own retained memory — the observer
// observing itself. Event rings dominate traced runs (ring capacity × the
// Event shell; attr backing is neglected, the strings are constants), the
// fixed 976-bucket histogram arrays dominate metric runs, and gauge delta
// logs grow with fabric churn.
func (pl *Plane) Footprint() []FootprintItem {
	if pl == nil {
		return nil
	}
	eventSize := int64(unsafe.Sizeof(Event{}))
	flowSize := int64(unsafe.Sizeof([NumFlowKinds]FlowCell{}))
	var rings, flows FootprintItem
	for _, pe := range pl.pes {
		pe.mu.Lock()
		rings.Bytes += int64(cap(pe.ring)) * eventSize
		rings.Objects += int64(len(pe.ring))
		flows.Bytes += int64(len(pe.flows)) * (flowSize + mapEntryOverhead)
		flows.Objects += int64(len(pe.flows))
		pe.mu.Unlock()
	}
	peShell := int64(unsafe.Sizeof(PE{}))
	items := []FootprintItem{
		{Subsystem: "obs", Category: "event-rings", Bytes: rings.Bytes + int64(len(pl.pes))*peShell, Objects: rings.Objects},
		{Subsystem: "obs", Category: "flow-matrices", Bytes: flows.Bytes, Objects: flows.Objects},
	}
	items = append(items, pl.reg.footprint()...)
	items = append(items, pl.gauges.footprint()...)
	items = append(items, pl.ledger.footprint()...)
	return items
}

// footprint models the registry: counters are shells, each histogram carries
// its fixed 976-slot bucket array (~7.8 KiB).
func (r *Registry) footprint() []FootprintItem {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	nc, nh := int64(len(r.counters)), int64(len(r.hists))
	r.mu.Unlock()
	cSize := int64(unsafe.Sizeof(Counter{})) + mapEntryOverhead
	hSize := int64(unsafe.Sizeof(Hist{})) + mapEntryOverhead
	return []FootprintItem{
		{Subsystem: "obs", Category: "counters", Bytes: nc * cSize, Objects: nc},
		{Subsystem: "obs", Category: "histograms", Bytes: nh * hSize, Objects: nh},
	}
}

// footprint models the gauge registry: one shell per gauge plus its delta
// log at exact length (caps grow by append schedule and would not be
// byte-stable across runs; the tolerance covers the slack).
func (s *GaugeSet) footprint() []FootprintItem {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	deltaSize := int64(unsafe.Sizeof(gaugeDelta{}))
	shell := int64(unsafe.Sizeof(Gauge{})) + mapEntryOverhead
	it := FootprintItem{Subsystem: "obs", Category: "gauge-logs"}
	for _, g := range s.m {
		g.mu.Lock()
		it.Bytes += shell + int64(len(g.log))*deltaSize
		g.mu.Unlock()
		it.Objects++
	}
	return []FootprintItem{it}
}

// footprint models the incident ledger: incident shells plus their logs.
func (l *Ledger) footprint() []FootprintItem {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	incSize := int64(unsafe.Sizeof(Incident{}))
	evSize := int64(unsafe.Sizeof(IncidentEvent{}))
	it := FootprintItem{Subsystem: "obs", Category: "incidents"}
	for _, in := range l.incs {
		it.Bytes += incSize + int64(len(in.Log))*evSize
		it.Objects++
	}
	return []FootprintItem{it}
}
