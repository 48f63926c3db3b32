package ib

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
)

// ParseAllocFaults parses an allocation-failure specification: a
// comma-separated list of kind:n items ("qp:3,mr:2"), each failing an
// adapter's n-th allocation (1-based) of that kind. The launcher validates
// specs with it up front and the cluster applies the result via
// FailQPAllocOn/FailMRAllocOn.
func ParseAllocFaults(s string) (qp, mr []int, err error) {
	if s == "" {
		return nil, nil, nil
	}
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		kind, num, ok := strings.Cut(item, ":")
		if !ok {
			return nil, nil, fmt.Errorf("alloc-fault item %q: want kind:n (e.g. qp:3)", item)
		}
		n, nerr := strconv.Atoi(num)
		if nerr != nil || n < 1 {
			return nil, nil, fmt.Errorf("alloc-fault item %q: n must be a positive integer (1-based allocation index)", item)
		}
		switch kind {
		case "qp":
			qp = append(qp, n)
		case "mr":
			mr = append(mr, n)
		default:
			return nil, nil, fmt.Errorf("alloc-fault item %q: unknown kind %q (want qp or mr)", item, kind)
		}
	}
	return qp, mr, nil
}

// UDVerdict is the decision a UDFilter returns for one datagram.
type UDVerdict uint8

const (
	// VerdictDefault applies the injector's probabilistic fate.
	VerdictDefault UDVerdict = iota
	// VerdictDrop drops the datagram unconditionally.
	VerdictDrop
	// VerdictDeliver delivers the datagram, bypassing drop/dup/reorder.
	VerdictDeliver
)

// FaultInjector is the fabric's fault plane. It perturbs the
// unreliable-datagram transport — drops, duplicates and bounded reordering —
// and, separately, injects the reliable-transport faults a real fabric
// suffers: RC link faults (a queue pair transitions to the Error state
// mid-stream, so in-flight work fails back to the sender) and PE slowdowns
// (extra virtual time charged to the caller, modeling OS jitter or a
// descheduled process). UD loss/duplication is what the UD hardware permits;
// RC link faults model cable pulls, retry exhaustion and endpoint-cache
// evictions that upper layers must recover from. A nil *FaultInjector
// injects nothing and is the default.
//
// The injector is deterministic for a given seed and call sequence, which
// keeps connection-manager fault tests reproducible.
type FaultInjector struct {
	mu  sync.Mutex
	rng *rand.Rand

	// DropProb is the probability a UD datagram is silently dropped.
	DropProb float64
	// DupProb is the probability a UD datagram is delivered twice.
	DupProb float64
	// MaxDrops caps the number of drops (0 = unlimited) so a test can
	// guarantee eventual delivery.
	MaxDrops int

	// DropFirstN drops the first N UD datagrams outright, regardless of
	// probability — handy for forcing the retransmission path.
	DropFirstN int

	// ReorderProb is the probability a UD datagram is held back and
	// delivered late: its delivery is deferred until up to ReorderWindow
	// subsequent datagrams have been sent, so the receiver observes it out
	// of order. MaxReorders caps the number of held datagrams (0 =
	// unlimited).
	ReorderProb   float64
	ReorderWindow int // max datagrams that may overtake a held one (default 4)
	MaxReorders   int

	// FlapProb is the probability an RC operation triggers a link fault:
	// both queue pairs of the connection transition to the Error state
	// before any data moves, and the sender sees a synchronous ErrLinkDown.
	// MaxFlaps caps the number of injected faults (0 = unlimited).
	FlapProb float64
	MaxFlaps int

	// SlowProb is the probability an operation charges SlowTime extra
	// virtual nanoseconds to the calling PE's clock (PE slowdown injection).
	SlowProb float64
	SlowTime int64

	// CorruptProb is the probability a single bit of a UD datagram is
	// flipped in flight. UD has no hardware end-to-end payload protection in
	// this model, so detection is the receiver's job: checksummed control
	// frames discard the damage and the sender's retransmission recovers it.
	// MaxCorrupts caps the number of corruptions (0 = unlimited) so a test
	// can guarantee eventual convergence.
	CorruptProb float64
	MaxCorrupts int

	// RCCorruptProb is the probability an RC payload is corrupted in flight.
	// The two transport classes fail differently, matching real hardware. A
	// two-sided send suffers the end-to-end-argument failure: the flip slips
	// past the link CRCs (introduced before ICRC computation, or in switch
	// buffer memory), the damaged copy is delivered silently, and detection
	// is the job of the conduit's software integrity trailer. A one-sided
	// RDMA write or read suffers an in-flight flip that the receiving
	// adapter's per-packet ICRC catches before DMA: the damaged packet is
	// dropped, both queue pairs die and the sender sees ErrRCCorrupt — no
	// garbage ever lands, but the clean packets delivered before the fault
	// have, so replay-after-reconnect must overwrite the partial landing.
	// MaxRCCorrupts caps the number of injections (0 = unlimited).
	RCCorruptProb float64
	MaxRCCorrupts int

	// TornWriteProb is the probability an RDMA write spanning more than one
	// RCMTU packet suffers a link fault between packets: a deterministic
	// whole-packet prefix of the payload (at least one packet, never all of
	// them) is applied to the target memory region before both queue pairs
	// error out and the sender sees ErrTornWrite. This is the partially-
	// completed-RDMA failure mode of a torn-down QP; it breaks the
	// all-or-nothing delivery the reconnect replay would otherwise assume.
	// Single-packet writes cannot tear: a packet is the link's all-or-nothing
	// delivery unit. MaxTornWrites caps the number of injections (0 =
	// unlimited).
	TornWriteProb float64
	MaxTornWrites int

	// UDFilter, if non-nil, inspects each UD datagram payload and may force
	// its fate, overriding the probabilistic knobs. Tests use it to lose one
	// specific protocol leg (e.g. exactly the first ConnRep).
	UDFilter func(payload []byte) UDVerdict

	drops      int
	dups       int
	seen       int
	reorders   int
	flaps      int
	slowdowns  int
	corrupts   int
	rcCorrupts int
	tornWrites int
	held       []heldDelivery

	// failQP and failMR schedule specific allocation attempts (1-based,
	// counted per adapter) to fail with the matching exhaustion error, so
	// tests can fail "the Nth registration" deterministically regardless of
	// how big the budgets are. See FailQPAllocOn / FailMRAllocOn.
	failQP     map[int]bool
	failMR     map[int]bool
	allocFails int

	peSched  map[int]*peFault
	peKills  int
	peWedges int

	// Rail-scoped fault schedules (see rail.go): port failures, whole-rail
	// failures and partition windows, all tripping on the virtual clock. The
	// *Injected counters advance at scheduling time — a scheduled network
	// fault IS the injection.
	portFaults         []portFault
	railFaults         []railFault
	partitions         []partitionWindow
	portFaultsInjected int
	railFaultsInjected int
	partitionsInjected int
}

// PEFate is a PE's failure state under the injected kill/wedge schedule.
type PEFate uint8

const (
	// PEAlive is the normal state: no failure scheduled, or not yet due.
	PEAlive PEFate = iota
	// PEKilled models a process crash: the PE vanishes at the scheduled
	// virtual time — its queue pairs die and it stops sending and receiving.
	PEKilled
	// PEWedged models a hung process: the PE stops making software progress
	// (no AM handlers, no heartbeat replies, no new sends) but its queue
	// pairs stay alive, so the fabric still ACKs RDMA against its memory.
	PEWedged
)

// peFault is one scheduled PE failure.
type peFault struct {
	fate  PEFate
	at    int64 // virtual trigger time
	fired bool
}

// heldDelivery is a datagram delivery deferred for reordering. ttl is the
// number of subsequent datagrams that may still overtake it.
type heldDelivery struct {
	deliver func()
	ttl     int
}

// NewFaultInjector returns a deterministic injector.
func NewFaultInjector(seed int64) *FaultInjector {
	return &FaultInjector{rng: rand.New(rand.NewSource(seed))}
}

// Drops reports how many datagrams have been dropped so far.
func (fi *FaultInjector) Drops() int {
	if fi == nil {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.drops
}

// Dups reports how many datagrams have been delivered twice.
func (fi *FaultInjector) Dups() int {
	if fi == nil {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.dups
}

// Reorders reports how many datagrams have been held for late delivery.
func (fi *FaultInjector) Reorders() int {
	if fi == nil {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.reorders
}

// Flaps reports how many RC link faults have been injected.
func (fi *FaultInjector) Flaps() int {
	if fi == nil {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.flaps
}

// Slowdowns reports how many PE slowdowns have been injected.
func (fi *FaultInjector) Slowdowns() int {
	if fi == nil {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.slowdowns
}

// Corrupts reports how many datagrams have had a bit flipped in flight.
func (fi *FaultInjector) Corrupts() int {
	if fi == nil {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.corrupts
}

// corruptData decides whether to corrupt one in-flight datagram and, when it
// does, flips a single random bit of data in place. The flip never changes
// the buffer length, so detection must come from content verification (the
// control-frame checksum), not framing.
func (fi *FaultInjector) corruptData(data []byte) bool {
	if fi == nil || len(data) == 0 {
		return false
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.CorruptProb <= 0 || (fi.MaxCorrupts > 0 && fi.corrupts >= fi.MaxCorrupts) {
		return false
	}
	if fi.rng.Float64() >= fi.CorruptProb {
		return false
	}
	bit := fi.rng.Intn(len(data) * 8)
	data[bit/8] ^= 1 << (bit % 8)
	fi.corrupts++
	return true
}

// RCCorrupts reports how many RC payloads have been corrupted in flight.
func (fi *FaultInjector) RCCorrupts() int {
	if fi == nil {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.rcCorrupts
}

// TornWrites reports how many RDMA writes have been torn mid-transfer.
func (fi *FaultInjector) TornWrites() int {
	if fi == nil {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.tornWrites
}

// rcCorruptLocked is the shared RC-corruption decision: probability and cap
// check plus the counter bump. Callers hold fi.mu.
func (fi *FaultInjector) rcCorruptLocked() bool {
	if fi.RCCorruptProb <= 0 || (fi.MaxRCCorrupts > 0 && fi.rcCorrupts >= fi.MaxRCCorrupts) {
		return false
	}
	if fi.rng.Float64() >= fi.RCCorruptProb {
		return false
	}
	fi.rcCorrupts++
	return true
}

// rcCorruptData decides whether to corrupt one two-sided RC payload and, when
// it does, flips a single random bit of data in place — the silent,
// delivered-past-the-link-CRC flavor of corruption.
func (fi *FaultInjector) rcCorruptData(data []byte) bool {
	if fi == nil || len(data) == 0 {
		return false
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if !fi.rcCorruptLocked() {
		return false
	}
	bit := fi.rng.Intn(len(data) * 8)
	data[bit/8] ^= 1 << (bit % 8)
	return true
}

// rcCorruptHit is the decision-only form for operations with no sender-side
// buffer to damage (RDMA reads: the corrupt response packet is dropped by
// the requester's ICRC check, so the requester simply gets nothing back).
func (fi *FaultInjector) rcCorruptHit() bool {
	if fi == nil {
		return false
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.rcCorruptLocked()
}

// rcCorruptWrite decides whether one packet of an RDMA write spanning pkts
// link packets is corrupted in flight. The receiving adapter's ICRC check
// drops the damaged packet before DMA, so the injection reports how many
// clean packets preceded it — possibly 0 — and that prefix is all that lands
// before the link dies.
func (fi *FaultInjector) rcCorruptWrite(pkts int) (prefix int, hit bool) {
	if fi == nil || pkts < 1 {
		return 0, false
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if !fi.rcCorruptLocked() {
		return 0, false
	}
	return fi.rng.Intn(pkts), true
}

// tornWrite decides whether an RDMA write spanning pkts link packets is torn
// mid-transfer. It returns the number of whole packets that land at the
// target — at least 1, strictly fewer than pkts — or 0 when no tear is
// injected. Single-packet writes cannot tear: a packet is the link's
// all-or-nothing delivery unit.
func (fi *FaultInjector) tornWrite(pkts int) int {
	if fi == nil || fi.TornWriteProb <= 0 || pkts < 2 {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.MaxTornWrites > 0 && fi.tornWrites >= fi.MaxTornWrites {
		return 0
	}
	if fi.rng.Float64() >= fi.TornWriteProb {
		return 0
	}
	fi.tornWrites++
	return 1 + fi.rng.Intn(pkts-1)
}

// KillPE schedules rank to crash at virtual time at. The injection trips the
// first time the PE (or traffic destined for it) observes a virtual time at
// or past the schedule.
func (fi *FaultInjector) KillPE(rank int, at int64) { fi.schedulePE(rank, PEKilled, at) }

// WedgePE schedules rank to stop making progress at virtual time at while its
// queue pairs keep ACKing at the fabric level.
func (fi *FaultInjector) WedgePE(rank int, at int64) { fi.schedulePE(rank, PEWedged, at) }

func (fi *FaultInjector) schedulePE(rank int, fate PEFate, at int64) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.peSched == nil {
		fi.peSched = make(map[int]*peFault)
	}
	fi.peSched[rank] = &peFault{fate: fate, at: at}
}

// PEFaultsScheduled reports whether any kill/wedge injections exist. Upper
// layers arm their failure detector only when this is true (the analogue of
// Fabric.Lossy gating the retransmission timer), so fault-free runs pay
// nothing for the failure plane.
func (fi *FaultInjector) PEFaultsScheduled() bool {
	if fi == nil {
		return false
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return len(fi.peSched) > 0
}

// PEFate returns rank's failure state at virtual time now. The first call at
// or past the scheduled trigger time trips the injection and counts it.
func (fi *FaultInjector) PEFate(rank int, now int64) PEFate {
	if fi == nil {
		return PEAlive
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	f := fi.peSched[rank]
	if f == nil || now < f.at {
		return PEAlive
	}
	if !f.fired {
		f.fired = true
		if f.fate == PEKilled {
			fi.peKills++
		} else {
			fi.peWedges++
		}
	}
	return f.fate
}

// PEKills reports how many scheduled crashes have tripped.
func (fi *FaultInjector) PEKills() int {
	if fi == nil {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.peKills
}

// PEWedges reports how many scheduled wedges have tripped.
func (fi *FaultInjector) PEWedges() int {
	if fi == nil {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.peWedges
}

// FailQPAllocOn schedules the given queue-pair allocation attempts (1-based,
// counted per adapter across all its PEs) to fail with ErrQPExhausted.
func (fi *FaultInjector) FailQPAllocOn(ns ...int) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.failQP == nil {
		fi.failQP = make(map[int]bool)
	}
	for _, n := range ns {
		fi.failQP[n] = true
	}
}

// FailMRAllocOn schedules the given memory-registration attempts (1-based,
// counted per adapter) to fail with ErrMRExhausted.
func (fi *FaultInjector) FailMRAllocOn(ns ...int) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.failMR == nil {
		fi.failMR = make(map[int]bool)
	}
	for _, n := range ns {
		fi.failMR[n] = true
	}
}

// AllocFailsInjected reports how many scheduled allocation failures tripped.
func (fi *FaultInjector) AllocFailsInjected() int {
	if fi == nil {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.allocFails
}

// failQPAlloc reports whether the adapter's n-th QP allocation is scheduled
// to fail.
func (fi *FaultInjector) failQPAlloc(n int) bool {
	if fi == nil {
		return false
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.failQP[n] {
		fi.allocFails++
		return true
	}
	return false
}

// failMRAlloc reports whether the adapter's n-th MR registration is scheduled
// to fail.
func (fi *FaultInjector) failMRAlloc(n int) bool {
	if fi == nil {
		return false
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.failMR[n] {
		fi.allocFails++
		return true
	}
	return false
}

// udFate decides the fate of one UD datagram. hold means the delivery must
// be deferred via holdDelivery so later datagrams overtake it.
func (fi *FaultInjector) udFate(payload []byte) (drop, dup, hold bool) {
	if fi == nil {
		return false, false, false
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.seen++
	if fi.UDFilter != nil {
		switch fi.UDFilter(payload) {
		case VerdictDrop:
			fi.drops++
			return true, false, false
		case VerdictDeliver:
			return false, false, false
		}
	}
	if fi.seen <= fi.DropFirstN {
		fi.drops++
		return true, false, false
	}
	if fi.DropProb > 0 && (fi.MaxDrops == 0 || fi.drops < fi.MaxDrops) &&
		fi.rng.Float64() < fi.DropProb {
		fi.drops++
		return true, false, false
	}
	if fi.ReorderProb > 0 && (fi.MaxReorders == 0 || fi.reorders < fi.MaxReorders) &&
		fi.rng.Float64() < fi.ReorderProb {
		fi.reorders++
		return false, false, true
	}
	if fi.DupProb > 0 && fi.rng.Float64() < fi.DupProb {
		fi.dups++
		return false, true, false
	}
	return false, false, false
}

// holdDelivery parks a datagram delivery chosen for reordering. It is
// released after a bounded number of subsequent datagrams (drawn from
// [1, ReorderWindow]) have been sent, or by ReleaseHeld.
func (fi *FaultInjector) holdDelivery(deliver func()) {
	fi.mu.Lock()
	w := fi.ReorderWindow
	if w <= 0 {
		w = 4
	}
	// +1 compensates for the aging pass the holding send itself performs on
	// return, so the effective delay is 1..ReorderWindow subsequent sends.
	fi.held = append(fi.held, heldDelivery{deliver: deliver, ttl: 2 + fi.rng.Intn(w)})
	fi.mu.Unlock()
}

// dueDeliveries ages every held datagram by one send and returns the
// deliveries whose reorder window expired. The caller invokes them outside
// the injector lock.
func (fi *FaultInjector) dueDeliveries() []func() {
	if fi == nil {
		return nil
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if len(fi.held) == 0 {
		return nil
	}
	var due []func()
	kept := fi.held[:0]
	for _, h := range fi.held {
		h.ttl--
		if h.ttl <= 0 {
			due = append(due, h.deliver)
		} else {
			kept = append(kept, h)
		}
	}
	fi.held = kept
	return due
}

// ReleaseHeld immediately delivers every datagram still parked for
// reordering. Tests and teardown paths use it to flush the window.
func (fi *FaultInjector) ReleaseHeld() {
	if fi == nil {
		return
	}
	fi.mu.Lock()
	held := fi.held
	fi.held = nil
	fi.mu.Unlock()
	for _, h := range held {
		h.deliver()
	}
}

// rcFlap reports whether this RC operation suffers an injected link fault.
func (fi *FaultInjector) rcFlap() bool {
	if fi == nil || fi.FlapProb <= 0 {
		return false
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.MaxFlaps > 0 && fi.flaps >= fi.MaxFlaps {
		return false
	}
	if fi.rng.Float64() < fi.FlapProb {
		fi.flaps++
		return true
	}
	return false
}

// slowdown returns the extra virtual time to charge the caller, usually 0.
func (fi *FaultInjector) slowdown() int64 {
	if fi == nil || fi.SlowProb <= 0 || fi.SlowTime <= 0 {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.rng.Float64() < fi.SlowProb {
		fi.slowdowns++
		return fi.SlowTime
	}
	return 0
}
