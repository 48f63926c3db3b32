// Package obs is the unified observability plane: a low-overhead,
// virtual-time-aware structured event and metric layer threaded through
// every subsystem of the simulator (pmi, ib, gasnet, shmem, mpi, cluster).
//
// The design splits responsibilities three ways:
//
//   - Events are point ("i") or span ("X") records carrying
//     {vt, rank, layer, kind, peer, bytes, dur, attrs}. Each PE owns a
//     private ring buffer so recording never contends across PEs; the
//     job-level Plane merges and deterministically orders them on demand.
//   - Metrics are typed values — monotonic counters and HDR-style latency
//     histograms — registered once by name in a job-level Registry shared
//     by all PEs (see metrics.go).
//
// The disabled path is a nil *PE (obs.Nop): every method starts with a nil
// receiver check and returns immediately, so instrumentation call sites can
// stay unconditional. The overhead of that path is benchmarked (see
// nop_bench_test.go and the cluster-level overhead guard).
//
// Timestamps: the only timestamp of an event is virtual time (VT,
// nanoseconds on the PE's vclock), so every output derived from events
// (traces, the Perfetto export, reports) is a function of VT alone.
package obs

import (
	"cmp"
	"slices"
	"strings"
	"sync"
)

// Layer names used across the codebase. They double as Perfetto thread
// names, so keep them short and stable.
const (
	LayerCluster = "cluster"
	LayerShmem   = "shmem"
	LayerMPI     = "mpi"
	LayerGasnet  = "gasnet"
	LayerPMI     = "pmi"
	LayerIB      = "ib"
)

// Attr is a small string key/value pair attached to an event.
type Attr struct {
	Key string
	Val string
}

// Event is one structured observation. Dur == 0 marks an instant; Dur > 0
// a span beginning at VT and covering [VT, VT+Dur]. Peer is -1 when the
// event has no remote party.
type Event struct {
	VT    int64  // virtual time (ns) at which the event begins
	Rank  int    // PE that recorded the event
	Layer string // one of the Layer* constants
	Kind  string // event kind, e.g. "conn-initiate", "put", "init:pmi-exchange"
	Peer  int    // remote PE, or -1
	Bytes int64  // payload size, or 0
	Dur   int64  // span duration (ns), 0 for instants
	Attrs []Attr // optional extra context
}

// Config selects which planes are live. The zero value disables everything
// (all recorders behave like Nop).
type Config struct {
	// Events enables per-PE event rings (required for -trace / -trace-out).
	Events bool
	// Metrics enables the counter/histogram registry.
	Metrics bool
	// Flows enables the per-PE, per-peer flow matrix (required for
	// -topology and the report's topology section; see flow.go).
	Flows bool
	// Gauges enables the virtual-time gauge time-series (required for
	// -timeseries-out and the gauge columns of -metrics; see gauge.go).
	Gauges bool
	// Incidents enables the causal incident ledger (required for -incidents
	// and the report's incident section; see incident.go).
	Incidents bool
	// Footprint enables the engine self-observability census (required for
	// -footprint and the report's footprint section; see footprint.go). It
	// is deliberately not implied by the other planes: census snapshots read
	// wall-clock runtime state (ReadMemStats, goroutine counts), so the
	// engine.* gauge series they produce are not schedule-deterministic and
	// must never leak into the byte-identity contracts of -timeseries-out.
	Footprint bool
	// RingCap bounds each PE's event ring. 0 means DefaultRingCap;
	// negative means unbounded (needed when a complete trace must be
	// exported). When a bounded ring overflows the oldest events are
	// overwritten and Dropped() counts them.
	RingCap int
}

// DefaultRingCap is the per-PE event ring size when Config.RingCap == 0.
const DefaultRingCap = 1 << 16

// Enabled reports whether any plane is live.
func (c Config) Enabled() bool {
	return c.Events || c.Metrics || c.Flows || c.Gauges || c.Incidents || c.Footprint
}

// Plane is the job-level observability state: one recorder per PE plus the
// shared metric registry.
type Plane struct {
	cfg    Config
	reg    *Registry
	gauges *GaugeSet
	ledger *Ledger
	census *Census
	pes    []*PE
}

// NewPlane creates a plane for np PEs. If cfg disables both events and
// metrics the plane still exists but event and metric calls no-op.
func NewPlane(np int, cfg Config) *Plane {
	if cfg.RingCap == 0 {
		cfg.RingCap = DefaultRingCap
	}
	p := &Plane{cfg: cfg}
	if cfg.Metrics {
		p.reg = NewRegistry()
	}
	if cfg.Gauges {
		p.gauges = NewGaugeSet()
	}
	if cfg.Incidents {
		p.ledger = NewLedger()
	}
	if cfg.Footprint {
		p.census = NewCensus(p.gauges)
		p.census.Register(p) // the plane attributes its own rings/logs
	}
	p.pes = make([]*PE, np)
	for r := range p.pes {
		p.pes[r] = &PE{plane: p, rank: r}
	}
	return p
}

// Config returns the plane's configuration.
func (pl *Plane) Config() Config {
	if pl == nil {
		return Config{}
	}
	return pl.cfg
}

// PE returns the recorder for a rank. Safe on a nil plane (returns Nop).
func (pl *Plane) PE(rank int) *PE {
	if pl == nil || rank < 0 || rank >= len(pl.pes) {
		return Nop
	}
	return pl.pes[rank]
}

// Registry returns the metric registry, or nil when metrics are disabled.
func (pl *Plane) Registry() *Registry {
	if pl == nil {
		return nil
	}
	return pl.reg
}

// Gauges returns the gauge registry, or nil when gauges are disabled.
func (pl *Plane) Gauges() *GaugeSet {
	if pl == nil {
		return nil
	}
	return pl.gauges
}

// Census returns the engine footprint census, or nil when the footprint
// plane is disabled; every Census method is nil-safe.
func (pl *Plane) Census() *Census {
	if pl == nil {
		return nil
	}
	return pl.census
}

// Ledger returns the incident ledger, or nil when incidents are disabled.
func (pl *Plane) Ledger() *Ledger {
	if pl == nil {
		return nil
	}
	return pl.ledger
}

// Events returns all recorded events merged across PEs in deterministic
// order: (VT, Rank, Layer, Kind, Peer, Dur, Bytes), ties in recording order.
// Two runs that produce the same virtual-time event multiset, recorded in
// the same order per PE, serialize identically.
func (pl *Plane) Events() []Event {
	if pl == nil {
		return nil
	}
	n := 0
	for _, pe := range pl.pes {
		pe.mu.Lock()
		n += len(pe.ring)
		pe.mu.Unlock()
	}
	all := make([]Event, 0, n)
	for _, pe := range pl.pes {
		all = pe.appendEvents(all)
	}
	return sortEvents(all)
}

// Dropped returns the total number of events lost to ring overflow.
func (pl *Plane) Dropped() int64 {
	if pl == nil {
		return 0
	}
	var n int64
	for _, pe := range pl.pes {
		pe.mu.Lock()
		n += pe.dropped
		pe.mu.Unlock()
	}
	return n
}

// compareEvents orders events by (VT, Rank, Layer, Kind, Peer, Dur, Bytes).
func compareEvents(a, b *Event) int {
	if a.VT != b.VT {
		return cmp.Compare(a.VT, b.VT)
	}
	return cmp.Or(cmp.Compare(a.Rank, b.Rank), strings.Compare(a.Layer, b.Layer), strings.Compare(a.Kind, b.Kind),
		cmp.Compare(a.Peer, b.Peer), cmp.Compare(a.Dur, b.Dur), cmp.Compare(a.Bytes, b.Bytes))
}

// sortEvents returns evs in compareEvents order, ties in input order. It
// sorts (VT, index) pairs, reading an event only on a VT tie, and moves each
// event once, where a stable sort of the events themselves moves them
// O(n log² n) times.
func sortEvents(evs []Event) []Event {
	keys := make([][2]int64, len(evs))
	for i := range evs {
		keys[i] = [2]int64{evs[i].VT, int64(i)}
	}
	slices.SortFunc(keys, func(a, b [2]int64) int {
		if a[0] != b[0] {
			return cmp.Compare(a[0], b[0])
		}
		return cmp.Or(compareEvents(&evs[a[1]], &evs[b[1]]), cmp.Compare(a[1], b[1]))
	})
	out := make([]Event, len(evs))
	for i, k := range keys {
		out[i] = evs[k[1]]
	}
	return out
}

// Nop is the disabled recorder: every method on a nil *PE returns
// immediately. Pass it wherever instrumentation is wired but observability
// is off.
var Nop *PE

// PE records events for one rank. All methods are safe on a nil
// receiver and safe for concurrent use (a PE's app goroutine and its
// conduit progress goroutine both record).
type PE struct {
	plane *Plane
	rank  int

	mu      sync.Mutex
	ring    []Event
	next    int                             // next overwrite slot once the bounded ring is full
	dropped int64                           // events overwritten
	flows   map[int]*[NumFlowKinds]FlowCell // peer -> per-kind cells (flow.go)
}

// Rank returns the recorder's rank (-1 for Nop).
func (p *PE) Rank() int {
	if p == nil {
		return -1
	}
	return p.rank
}

// Active reports whether any recording (events, metrics or flows) is live.
// Use it to skip expensive argument preparation at instrumentation sites.
func (p *PE) Active() bool {
	return p != nil && (p.plane.cfg.Events || p.plane.cfg.Metrics || p.plane.cfg.Flows)
}

// EventsEnabled reports whether event recording is live.
func (p *PE) EventsEnabled() bool {
	return p != nil && p.plane.cfg.Events
}

// FlowsEnabled reports whether flow-matrix recording is live.
func (p *PE) FlowsEnabled() bool {
	return p != nil && p.plane.cfg.Flows
}

// Emit records an instant event.
func (p *PE) Emit(vt int64, layer, kind string, peer int, bytes int64, attrs ...Attr) {
	if p == nil || !p.plane.cfg.Events {
		return
	}
	p.record(Event{
		VT: vt, Rank: p.rank,
		Layer: layer, Kind: kind, Peer: peer, Bytes: bytes, Attrs: attrs,
	})
}

// Span records an event covering [startVT, endVT].
func (p *PE) Span(startVT, endVT int64, layer, kind string, peer int, bytes int64, attrs ...Attr) {
	if p == nil || !p.plane.cfg.Events {
		return
	}
	d := endVT - startVT
	if d < 0 {
		d = 0
	}
	p.record(Event{
		VT: startVT, Rank: p.rank,
		Layer: layer, Kind: kind, Peer: peer, Bytes: bytes, Dur: d, Attrs: attrs,
	})
}

// Gauge resolves the named gauge for this PE's rank (nil when gauges are
// disabled). Resolve once at setup and keep the pointer; Gauge.Add is
// nil-safe.
func (p *PE) Gauge(name string) *Gauge {
	if p == nil || p.plane.gauges == nil {
		return nil
	}
	return p.plane.gauges.Gauge(name, p.rank)
}

// Ledger returns the job's incident ledger (nil when incidents are
// disabled); every Ledger method is nil-safe.
func (p *PE) Ledger() *Ledger {
	if p == nil {
		return nil
	}
	return p.plane.ledger
}

// Counter resolves a named counter, or nil when metrics are disabled.
// Resolve once at setup and keep the pointer; Counter methods are nil-safe.
func (p *PE) Counter(name string) *Counter {
	if p == nil || p.plane.reg == nil {
		return nil
	}
	return p.plane.reg.Counter(name)
}

// Hist resolves a named histogram, or nil when metrics are disabled.
// Resolve once at setup and keep the pointer; Hist methods are nil-safe.
func (p *PE) Hist(name string) *Hist {
	if p == nil || p.plane.reg == nil {
		return nil
	}
	return p.plane.reg.Hist(name)
}

// Count adds delta to a named counter (registry lookup per call — fine for
// cold paths; hot paths should cache via Counter()).
func (p *PE) Count(name string, delta int64) {
	if p == nil || p.plane.reg == nil {
		return
	}
	p.plane.reg.Counter(name).Add(delta)
}

// Observe records a value into a named histogram (registry lookup per
// call — fine for cold paths; hot paths should cache via Hist()).
func (p *PE) Observe(name string, v int64) {
	if p == nil || p.plane.reg == nil {
		return
	}
	p.plane.reg.Hist(name).Record(v)
}

func (p *PE) record(e Event) {
	p.mu.Lock()
	limit := p.plane.cfg.RingCap
	if limit < 0 || len(p.ring) < limit {
		p.ring = append(p.ring, e)
	} else {
		p.ring[p.next] = e
		p.next++
		if p.next == limit {
			p.next = 0
		}
		p.dropped++
	}
	p.mu.Unlock()
}

// appendEvents appends the PE's events to dst oldest-first.
func (p *PE) appendEvents(dst []Event) []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append(append(dst, p.ring[p.next:]...), p.ring[:p.next]...)
}
