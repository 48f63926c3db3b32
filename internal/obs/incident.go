package obs

import (
	"sort"
	"sync"
)

// Causal incident ledger: every injected fault opens an incident the moment
// the injector fires; the detection events and recovery actions the fault
// provokes (NAK, suspicion, ICRC drop, retransmit, reconnect, eviction,
// relief, fallback exchange, abort) append to the matching open incident;
// the repair that proves the resource healthy again closes it. The ledger
// yields per-fault-kind detection-latency and MTTR distributions, and a
// reconciliation check that every budgeted injected fault maps to exactly
// one closed (or deliberately-aborted) incident.
//
// Incident classes and their keying:
//
//	"ud"    — UD datagram faults (drop/dup/reorder/slow). Rank is the
//	          sender, Inst the destination endpoint key. Closed by the next
//	          successful delivery on the same (sender, endpoint) lane: UD is
//	          best-effort, so delivery is the proof of recovery.
//	"rc"    — RC connection faults (flap/rc-corrupt/torn-write). Rank is the
//	          sender, Inst the destination LID. A corrupted transmission the
//	          adapter retransmits is absorbed on the spot; the rest close at
//	          the next successful RC completion on the lane (the session layer
//	          replays until then).
//	"alloc" — QP/MR allocation faults. Rank -1 (adapter-scoped), Inst the HCA
//	          lid. Synchronously detected (DetectVT == InjectVT); closed by
//	          the next successful allocation of the same kind, or by the
//	          bounce-buffer degradation completing the repair.
//	"pmi"   — control-plane faults (drop/dup/slow/unavail/crash). Rank is the
//	          client rank (-1 for the shared server crash). Closed by the
//	          client's next successful admitted operation.
//	"pe"    — injected process failures (kill/wedge). Rank is the victim.
//	          Never repaired: the sweep marks them aborted (the deliberate
//	          outcome — detection and job abort ARE the recovery).
//	"net"   — rail-scoped fabric faults (port-down/rail-down/partition).
//	          Rank -1 (fabric-scoped); Inst keys the schedule (rail index,
//	          packed lid:rail, or the job instance for partitions). Opened at
//	          schedule time by the cluster layer. A healed partition closes on
//	          the first post-heal liveness proof; permanent port/rail faults
//	          close at job completion — surviving them via the other rails IS
//	          the repair.
const (
	IncidentOpen       = "open"
	IncidentClosed     = "closed"
	IncidentAborted    = "aborted"    // deliberately terminal (PE kills, aborted jobs)
	IncidentUnresolved = "unresolved" // leftover open on a clean run: accounting bug
)

// IncidentEvent is one detection or recovery entry in an incident's log.
type IncidentEvent struct {
	VT   int64  `json:"vt_ns"`
	What string `json:"what"`
}

// Incident is one injected fault's lifecycle record.
type Incident struct {
	ID       int             `json:"id"`
	Class    string          `json:"class"`
	Kind     string          `json:"kind"`
	Rank     int             `json:"rank"` // victim PE rank, or -1
	Inst     int             `json:"inst"` // pair/endpoint/adapter key within the class
	InjectVT int64           `json:"inject_vt_ns"`
	DetectVT int64           `json:"detect_vt_ns,omitempty"`
	RepairVT int64           `json:"repair_vt_ns,omitempty"`
	State    string          `json:"state"`
	Log      []IncidentEvent `json:"log,omitempty"`
}

// DetectLatency is inject -> first detection, in virtual ns.
func (in *Incident) DetectLatency() int64 { return in.DetectVT - in.InjectVT }

// MTTR is inject -> repair, in virtual ns (0 for absorbed faults).
func (in *Incident) MTTR() int64 { return in.RepairVT - in.InjectVT }

// Ledger is the job-level incident store. A nil *Ledger is the disabled
// plane: every method nil-checks and returns.
type Ledger struct {
	mu   sync.Mutex
	incs []*Incident
}

// NewLedger creates an empty incident ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Open records a new open incident and returns its id (-1 when disabled).
func (l *Ledger) Open(class, kind string, rank, inst int, vt int64) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	in := &Incident{ID: len(l.incs), Class: class, Kind: kind, Rank: rank, Inst: inst,
		InjectVT: vt, State: IncidentOpen}
	l.incs = append(l.incs, in)
	return in.ID
}

// OpenDetected records a new open incident whose detection is synchronous
// with the injection (a refused allocation fails the very call that injected
// it): DetectVT is stamped at open, repair stays pending.
func (l *Ledger) OpenDetected(class, kind string, rank, inst int, vt int64, what string) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	in := &Incident{ID: len(l.incs), Class: class, Kind: kind, Rank: rank, Inst: inst,
		InjectVT: vt, DetectVT: vt, State: IncidentOpen,
		Log: []IncidentEvent{{VT: vt, What: what}}}
	l.incs = append(l.incs, in)
	return in.ID
}

// OpenAbsorbed records a fault the system absorbs at the point of injection
// (duplicates suppressed by dedup, slowdowns that only cost time): the
// incident opens and closes instantly with zero MTTR.
func (l *Ledger) OpenAbsorbed(class, kind string, rank, inst int, vt int64, what string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	in := &Incident{ID: len(l.incs), Class: class, Kind: kind, Rank: rank, Inst: inst,
		InjectVT: vt, DetectVT: vt, RepairVT: vt, State: IncidentClosed,
		Log: []IncidentEvent{{VT: vt, What: what}}}
	l.incs = append(l.incs, in)
}

// Detect stamps the oldest open incident of class at rank with its first
// detection time and appends the detection event. Detections key on (class,
// rank) only: the observer often knows the victim lane less precisely than
// the injector did.
func (l *Ledger) Detect(class string, rank int, vt int64, what string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, in := range l.incs {
		if in.State == IncidentOpen && in.Class == class && in.Rank == rank {
			if in.DetectVT == 0 {
				in.DetectVT = vt
			}
			in.Log = append(in.Log, IncidentEvent{VT: vt, What: what})
			return
		}
	}
}

// Act appends a recovery action to the oldest open incident of class at rank.
func (l *Ledger) Act(class string, rank int, vt int64, what string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, in := range l.incs {
		if in.State == IncidentOpen && in.Class == class && in.Rank == rank {
			in.Log = append(in.Log, IncidentEvent{VT: vt, What: what})
			return
		}
	}
}

// CloseAll closes every open incident matching (class, rank, inst) — and one
// of kinds, when non-nil — that was injected no later than vt, stamping the
// repair time. The kind filter keeps a successful QP allocation from closing
// an open MR-allocation incident that shares the adapter key; the time filter
// keeps a delivery that a lagging clock stamped before the fault from
// proving its repair (each PE runs several clocks, so host order is not
// virtual-time order). An incident never detected before its repair gets
// DetectVT = RepairVT, so detection latency is always recorded. Returns the
// number closed.
func (l *Ledger) CloseAll(class string, kinds []string, rank, inst int, vt int64, what string) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, in := range l.incs {
		if in.State != IncidentOpen || in.Class != class || in.Rank != rank || in.Inst != inst || in.InjectVT > vt {
			continue
		}
		if kinds != nil {
			ok := false
			for _, k := range kinds {
				if in.Kind == k {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
		}
		in.RepairVT = vt
		if in.DetectVT == 0 {
			in.DetectVT = vt
		}
		in.State = IncidentClosed
		in.Log = append(in.Log, IncidentEvent{VT: vt, What: what})
		n++
	}
	return n
}

// Sweep resolves incidents still open at job end (finalVT). PE-failure
// incidents become aborted always — detection plus job abort is their
// designed outcome, and on a surviving job the injection window may simply
// never have fired a probe. On a cleanly completed job, leftover data-plane
// incidents (ud, rc) close as absorbed: clean completion is proof, because
// a lost datagram was recovered by retransmission or was irrelevant, and
// the end-of-job barrier quiesces every retained RC window — Quiet cannot
// complete over a lost or torn payload, so an rc incident still open here
// was a fault whose effects were already durable (e.g. a flap landing after
// the final delivery to that adapter, with no later op to stamp the close).
// Rail-scoped fabric faults (net) close the same way: a completed job proves
// the surviving rails (or the healed partition) carried every byte, and
// permanent port/rail failures have no explicit repair event to close on.
// Anything else (alloc, pmi) becomes unresolved — a loud reconciliation
// failure, because those lanes have explicit repair points (alloc-ok,
// op-admitted) and a leftover means one leaked. On an aborted job
// everything leftover is aborted: the abort tore the recovery machinery
// down mid-flight, deliberately.
func (l *Ledger) Sweep(finalVT int64, jobAborted bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, in := range l.incs {
		if in.State != IncidentOpen {
			continue
		}
		switch {
		case in.Class == "pe":
			in.State = IncidentAborted
			if in.DetectVT == 0 {
				in.DetectVT = finalVT
			}
			in.RepairVT = finalVT
			in.Log = append(in.Log, IncidentEvent{VT: finalVT, What: "job-end"})
		case jobAborted:
			in.State = IncidentAborted
			if in.DetectVT == 0 {
				in.DetectVT = finalVT
			}
			in.RepairVT = finalVT
			in.Log = append(in.Log, IncidentEvent{VT: finalVT, What: "job-abort"})
		case in.Class == "ud" || in.Class == "rc" || in.Class == "net":
			in.State = IncidentClosed
			if in.DetectVT == 0 {
				in.DetectVT = finalVT
			}
			in.RepairVT = finalVT
			in.Log = append(in.Log, IncidentEvent{VT: finalVT, What: "job-complete"})
		default:
			in.State = IncidentUnresolved
			in.Log = append(in.Log, IncidentEvent{VT: finalVT, What: "job-complete-unresolved"})
		}
	}
}

// Snapshot returns a deep copy of every incident, sorted by (InjectVT,
// class, kind, rank, inst, id) so renders are deterministic whenever the
// inject times are.
func (l *Ledger) Snapshot() []Incident {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]Incident, len(l.incs))
	for i, in := range l.incs {
		out[i] = *in
		out[i].Log = append([]IncidentEvent(nil), in.Log...)
	}
	l.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.InjectVT != b.InjectVT {
			return a.InjectVT < b.InjectVT
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Inst != b.Inst {
			return a.Inst < b.Inst
		}
		return a.ID < b.ID
	})
	return out
}

// IncidentKindSummary aggregates one (class, kind)'s incidents.
type IncidentKindSummary struct {
	Class       string `json:"class"`
	Kind        string `json:"kind"`
	Total       int    `json:"total"`
	Closed      int    `json:"closed"`
	Aborted     int    `json:"aborted"`
	Open        int    `json:"open"`
	Unresolved  int    `json:"unresolved"`
	DetectP50NS int64  `json:"detect_p50_ns"`
	DetectMaxNS int64  `json:"detect_max_ns"`
	MTTRP50NS   int64  `json:"mttr_p50_ns"`
	MTTRMaxNS   int64  `json:"mttr_max_ns"`
}

// SummarizeIncidents reduces a snapshot to per-(class, kind) rows, sorted by
// (class, kind). Detection/MTTR percentiles cover closed and aborted
// incidents (the resolved ones, whose timestamps are final).
func SummarizeIncidents(incs []Incident) []IncidentKindSummary {
	type acc struct {
		row    IncidentKindSummary
		detect []int64
		mttr   []int64
	}
	byKind := make(map[[2]string]*acc)
	for i := range incs {
		in := &incs[i]
		k := [2]string{in.Class, in.Kind}
		a := byKind[k]
		if a == nil {
			a = &acc{row: IncidentKindSummary{Class: in.Class, Kind: in.Kind}}
			byKind[k] = a
		}
		a.row.Total++
		switch in.State {
		case IncidentClosed:
			a.row.Closed++
		case IncidentAborted:
			a.row.Aborted++
		case IncidentUnresolved:
			a.row.Unresolved++
		default:
			a.row.Open++
		}
		if in.State == IncidentClosed || in.State == IncidentAborted {
			a.detect = append(a.detect, in.DetectLatency())
			a.mttr = append(a.mttr, in.MTTR())
		}
	}
	pct := func(v []int64, p float64) int64 {
		if len(v) == 0 {
			return 0
		}
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		idx := int(p * float64(len(v)-1))
		return v[idx]
	}
	out := make([]IncidentKindSummary, 0, len(byKind))
	for _, a := range byKind {
		a.row.DetectP50NS = pct(a.detect, 0.5)
		a.row.DetectMaxNS = pct(a.detect, 1.0)
		a.row.MTTRP50NS = pct(a.mttr, 0.5)
		a.row.MTTRMaxNS = pct(a.mttr, 1.0)
		out = append(out, a.row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}
