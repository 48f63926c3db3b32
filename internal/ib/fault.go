package ib

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"goshmem/internal/obs"
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

// FaultInjector is the fabric's fault plane: what a real fabric can do to
// traffic, drawn from one seeded generator. It is asked, never woven in — a
// send asks for an admission verdict before the operation can be refused or
// vanish (admitUD, admitRC) and for a payload verdict once delivery is certain
// (landUD, damageRC), each a plain value whose zero means "clean"; the fabric
// then does verbs. Injected lists every kind. A nil *FaultInjector injects
// nothing and is the default.
//
// The injector is deterministic for a given seed and call sequence
// (TestInjectionScriptGolden). It has two halves with two owners. The
// schedule — PE kills and wedges, Nth-allocation failures, and the port, rail
// and partition faults of rail.go — is written by the launcher before traffic
// flows and never again, so it is read without a lock. The dice — generator,
// tallies, the reorder window — belong to mu.
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

	// RCCorruptProb is the probability one transmission of an RC send, RDMA
	// write or RDMA read is corrupted in flight. As on InfiniBand, the receiving
	// adapter's ICRC check drops the damaged packet before DMA and the
	// requester retransmits it: each hit costs one retransmission in virtual
	// time and the bytes delivered are the clean ones. RetryCnt consecutive
	// hits on one work request exhaust the hardware's retries: the request
	// fails with ErrRCCorrupt and both queue pairs go to Error, as after a
	// flap. A corrupted UD datagram is simply lost (DropProb). MaxRCCorrupts
	// caps the number of hits (0 = unlimited).
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

	n    Injected
	seen int // datagrams admitted, for DropFirstN
	held []udDelivery

	// failQP and failMR schedule specific allocation attempts (1-based,
	// counted per adapter) to fail with the matching exhaustion error, so
	// tests can fail "the Nth registration" deterministically regardless of
	// how big the budgets are. See FailQPAllocOn / FailMRAllocOn.
	failQP, failMR map[int]bool
	peSched        map[int]*peFault

	// Rail-scoped fault schedules (see rail.go), all tripping on the virtual
	// clock. Their tallies advance at scheduling time — a scheduled network
	// fault IS the injection.
	portFaults []portFault
	railFaults []railFault
	partitions []partitionWindow
}

// Injected is the injector's tally and the single declaration of each fault
// kind: the field counts it, `ctr` names it in the metric registry (published
// once after the run, like HCAStats) and `lanes` lists the incident-ledger
// (class/kind) lanes its incidents are recorded under, which is what the
// incident report reconciles the count against. A kind without lanes is a
// consequence rather than an injection: PE fates trip from the launcher's
// schedule, and a blackholed datagram or a refused post is the effect of a
// port, rail or partition fault that has its own incident.
type Injected struct {
	Drops      int `ctr:"ib.fault.drop" lanes:"ud/drop" help:"UD datagrams the injector dropped"`
	Dups       int `ctr:"ib.fault.dup" lanes:"ud/dup" help:"UD datagrams the injector delivered twice"`
	Reorders   int `ctr:"ib.fault.reorder" lanes:"ud/reorder" help:"UD datagrams held back and delivered late"`
	Flaps      int `ctr:"ib.fault.flap" lanes:"rc/flap" help:"injected RC link faults (both queue pairs to Error before any byte moves)"`
	RCCorrupts int `ctr:"ib.fault.rc_corrupt" lanes:"rc/rc-corrupt" help:"RC transmissions corrupted in flight and dropped by the receiving adapter's ICRC check"`
	TornWrites int `ctr:"ib.fault.torn_write" lanes:"rc/torn-write" help:"multi-packet RDMA writes torn between packets"`
	Slowdowns  int `ctr:"ib.fault.slowdown" lanes:"ud/slow,rc/slow" help:"PE slowdowns charged to a sender's clock"`
	AllocFails int `ctr:"ib.fault.alloc_fail" lanes:"alloc/qp,alloc/mr" help:"scheduled Nth QP/MR allocations refused"`
	PortFaults int `ctr:"ib.fault.port_down" lanes:"net/port-down" help:"port failures scheduled"`
	RailFaults int `ctr:"ib.fault.rail_down" lanes:"net/rail-down" help:"whole-rail failures scheduled"`
	Partitions int `ctr:"ib.fault.partition" lanes:"net/partition" help:"partition windows scheduled"`
	PEKills    int `ctr:"ib.fault.pe_kill" help:"scheduled PE crashes that tripped"`
	PEWedges   int `ctr:"ib.fault.pe_wedge" help:"scheduled PE wedges that tripped"`
	Blackholes int `ctr:"ib.fault.blackhole" help:"UD datagrams lost to a pair severed on every rail"`
	PathDowns  int `ctr:"ib.fault.path_down" help:"RC posts refused because the primary rail was dark"`
}

// Injected returns the tally so far; all zero on a nil injector.
func (fi *FaultInjector) Injected() Injected {
	if fi == nil {
		return Injected{}
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.n
}

// NewFaultInjector returns a deterministic injector.
func NewFaultInjector(seed int64) *FaultInjector {
	return &FaultInjector{rng: rand.New(rand.NewSource(seed))}
}

// faultKind names what a verdict found; the zero value is "nothing".
type faultKind uint8

const (
	kindNone faultKind = iota
	kindSlow
	kindBlackhole
	kindDrop
	kindReorder
	kindDup
	kindPathDown
	kindFlap
	kindRCCorrupt
	kindRetryExceeded
	kindTornWrite
)

// faultKinds is how each kind is reported (see injected): the trace event,
// the ledger kind — empty for the path effects, whose incident the schedule
// opened — and the note of a fault absorbed where it is injected.
var faultKinds = [...]struct{ event, kind, absorbed string }{
	kindSlow:      {event: "fault-slow", kind: "slow", absorbed: "latency-absorbed"},
	kindBlackhole: {event: "fault-blackhole"},
	kindDrop:      {event: "fault-drop", kind: "drop"},
	kindReorder:   {event: "fault-reorder", kind: "reorder", absorbed: "late-delivery"},
	kindDup:       {event: "fault-dup", kind: "dup", absorbed: "dedup-absorbed"},
	kindPathDown:  {event: "fault-path-down"},
	kindFlap:      {event: "fault-flap", kind: "flap"},
	kindRCCorrupt: {event: "fault-rc-corrupt", kind: "rc-corrupt", absorbed: "hw-retransmit"},
	// The hit that exhausts a work request's retries is the same injection,
	// left open for the reconnect's first clean completion to close.
	kindRetryExceeded: {event: "fault-rc-retry-exceeded", kind: "rc-corrupt"},
	kindTornWrite:     {event: "fault-torn-write", kind: "torn-write"},
}

// hit rolls one capped probabilistic injection and tallies it in *n. A zero
// probability or a spent cap (max > 0) consumes no random number. Caller
// holds fi.mu.
func (fi *FaultInjector) hit(prob float64, max int, n *int) bool {
	if prob <= 0 || (max > 0 && *n >= max) || fi.rng.Float64() >= prob {
		return false
	}
	*n++
	return true
}

// slowLocked is the first draw of either admission verdict: the extra virtual
// time to charge the sender (PE slowdown), usually 0.
func (fi *FaultInjector) slowLocked() int64 {
	if fi.SlowTime > 0 && fi.hit(fi.SlowProb, 0, &fi.n.Slowdowns) {
		return fi.SlowTime
	}
	return 0
}

// udFate is the admission verdict on one datagram: the slowdown charged to
// its sender and what becomes of it — lost (kindBlackhole, kindDrop), held
// back for reordering (kindReorder) or delivered twice (kindDup).
type udFate struct {
	slow int64
	kind faultKind
}

// admitUD draws the admission verdict for a datagram from src to dst that
// would enter the fabric at virtual time now were it not slowed. A pair
// severed on every rail (failed ports or rails, an active partition window)
// blackholes it before the probabilistic fate is drawn, and deliberately not
// as an injected drop: the blackhole is the schedule's effect.
func (fi *FaultInjector) admitUD(src, dst uint16, rails int, now int64, payload []byte) (v udFate) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	v.slow = fi.slowLocked()
	if dark, _ := fi.severed(src, dst, rails, now+v.slow); dark {
		fi.n.Blackholes++
		v.kind = kindBlackhole
		return v
	}
	fi.seen++
	forced := VerdictDefault
	if fi.UDFilter != nil {
		forced = fi.UDFilter(payload)
	}
	switch {
	case forced == VerdictDeliver:
	case forced == VerdictDrop, fi.seen <= fi.DropFirstN:
		fi.n.Drops++
		v.kind = kindDrop
	case fi.hit(fi.DropProb, fi.MaxDrops, &fi.n.Drops):
		v.kind = kindDrop
	case fi.hit(fi.ReorderProb, fi.MaxReorders, &fi.n.Reorders):
		v.kind = kindReorder
	case fi.hit(fi.DupProb, 0, &fi.n.Dups):
		v.kind = kindDup
	}
	return v
}

// udDelivery is one datagram on its way into a receive queue, as a value: the
// completion with its arrival stamped, where it lands, and the incident lane
// a clean copy repairs. Delivered at once it never leaves the stack; held for
// reordering it waits in the injector with ttl, the number of later datagrams
// that may still overtake it.
type udDelivery struct {
	c          Completion
	cq         *CQ
	dh         *HCA
	led        *obs.Ledger
	rank, lane int
	clean      bool
	ttl        int
}

// land pushes the datagram. A duplicate copy vouches for nothing and must not
// close an incident; any other delivery repairs the lane.
func (d *udDelivery) land() {
	d.dh.countDelivery(len(d.c.Data))
	d.cq.Push(d.c)
	if d.clean {
		d.led.CloseAll("ud", nil, d.rank, d.lane, d.c.VTime, "delivered")
	}
}

// landUD is the second and last question a datagram asks, once nothing can
// stop it being delivered (d non-nil) or once it is lost (d nil): it parks d
// when the admission verdict held it, for 1..ReorderWindow later sends
// (default 4), and ages the reorder window by this send, returning the held
// datagrams now due. Lost datagrams age it too, so the window drains even on a
// stream of drops. The caller lands them outside the lock.
func (fi *FaultInjector) landUD(d *udDelivery, hold bool) (due []udDelivery) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if hold {
		w := fi.ReorderWindow
		if w <= 0 {
			w = 4
		}
		// +1 for the aging pass just below, which this same send performs.
		d.ttl = 2 + fi.rng.Intn(w)
		fi.held = append(fi.held, *d)
	}
	kept := fi.held[:0]
	for _, h := range fi.held {
		if h.ttl--; h.ttl <= 0 {
			due = append(due, h)
		} else {
			kept = append(kept, h)
		}
	}
	fi.held = kept
	return due
}

// rcFate is the admission verdict on an RC post: the slowdown charged to its
// sender and what refuses it before any byte moves — kindPathDown when the
// queue pair's primary rail is dark between the adapters (both queue pairs
// stay healthy, so the connection manager can migrate and re-post), else
// possibly an injected kindFlap.
type rcFate struct {
	slow    int64
	refused faultKind
}

// admitRC draws the admission verdict for a post from src to dst over rail
// that would enter the fabric at virtual time now were it not slowed.
func (fi *FaultInjector) admitRC(src, dst uint16, rail int, now int64) (v rcFate) {
	if fi.SlowProb <= 0 && fi.FlapProb <= 0 && !fi.netFaulty() {
		return v // armed for something else: no dice to roll, no lock to take
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	v.slow = fi.slowLocked()
	switch {
	case fi.pathBlocked(src, dst, rail, now+v.slow):
		fi.n.PathDowns++
		v.refused = kindPathDown
	case fi.hit(fi.FlapProb, fi.MaxFlaps, &fi.n.Flaps):
		v.refused = kindFlap
	}
	return v
}

// RetryCnt is the retry_cnt attribute of every RC queue pair: how many
// transmissions of one work request the ICRC check may drop before the
// requester gives up on the connection.
const RetryCnt = 7

// rcDamage is the payload verdict on an RC operation that passed every check
// and will otherwise be delivered: hits consecutive transmissions corrupted in
// flight (RetryCnt of them exhaust the work request), or, of a torn write
// (torn > 0), the whole clean packets that reach target memory before the link
// dies — at least one and never all.
type rcDamage struct {
	hits, torn int
}

// damageRC draws the payload verdict for a send, write or read op, pkts the
// link packets a write spans. A single packet cannot tear — it is the link's
// all-or-nothing unit — and a torn write draws no corruption; any other
// transmission may be corrupted, each retransmission drawn anew. Atomics are
// never asked: on a lossy fabric the conduit carries them as sends.
func (fi *FaultInjector) damageRC(op Opcode, pkts int) (d rcDamage) {
	if fi.RCCorruptProb <= 0 && fi.TornWriteProb <= 0 {
		return d
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if op == OpRDMAWrite && pkts >= 2 && fi.hit(fi.TornWriteProb, fi.MaxTornWrites, &fi.n.TornWrites) {
		d.torn = 1 + fi.rng.Intn(pkts-1)
		return d
	}
	for d.hits < RetryCnt && fi.hit(fi.RCCorruptProb, fi.MaxRCCorrupts, &fi.n.RCCorrupts) {
		d.hits++
	}
	return d
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
	fired bool  // tallied; guarded by fi.mu
}

// KillPE schedules rank to crash at virtual time at. The injection trips the
// first time the PE (or traffic destined for it) observes a virtual time at
// or past the schedule.
func (fi *FaultInjector) KillPE(rank int, at int64) { fi.schedulePE(rank, PEKilled, at) }

// WedgePE schedules rank to stop making progress at virtual time at while its
// queue pairs keep ACKing at the fabric level.
func (fi *FaultInjector) WedgePE(rank int, at int64) { fi.schedulePE(rank, PEWedged, at) }

func (fi *FaultInjector) schedulePE(rank int, fate PEFate, at int64) {
	if fi.peSched == nil {
		fi.peSched = make(map[int]*peFault)
	}
	fi.peSched[rank] = &peFault{fate: fate, at: at}
}

// peFate returns rank's failure state at virtual time now. The first call at
// or past the scheduled trigger time trips the injection and tallies it.
func (fi *FaultInjector) peFate(rank int, now int64) PEFate {
	f := fi.peSched[rank]
	if f == nil || now < f.at {
		return PEAlive
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if !f.fired {
		f.fired = true
		if f.fate == PEKilled {
			fi.n.PEKills++
		} else {
			fi.n.PEWedges++
		}
	}
	return f.fate
}

// FailQPAllocOn schedules the given queue-pair allocation attempts (1-based,
// counted per adapter across all its PEs) to fail with ErrQPExhausted.
func (fi *FaultInjector) FailQPAllocOn(ns ...int) { scheduleAllocs(&fi.failQP, ns) }

// FailMRAllocOn schedules the given memory-registration attempts (1-based,
// counted per adapter) to fail with ErrMRExhausted.
func (fi *FaultInjector) FailMRAllocOn(ns ...int) { scheduleAllocs(&fi.failMR, ns) }

func scheduleAllocs(sched *map[int]bool, ns []int) {
	if *sched == nil {
		*sched = make(map[int]bool)
	}
	for _, n := range ns {
		(*sched)[n] = true
	}
}

// refusesAlloc reports whether an adapter's n-th allocation (of a memory
// region if mr, else of a queue pair) is scheduled to fail, and tallies it.
func (fi *FaultInjector) refusesAlloc(mr bool, n int) bool {
	if fi == nil || (mr && !fi.failMR[n]) || (!mr && !fi.failQP[n]) {
		return false
	}
	fi.mu.Lock()
	fi.n.AllocFails++
	fi.mu.Unlock()
	return true
}
