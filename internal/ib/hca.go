package ib

import (
	"encoding/binary"
	"sync"

	"goshmem/internal/obs"
	"goshmem/internal/vclock"
)

// HCA is a simulated host channel adapter. The cluster layer creates one HCA
// per simulated node; the node's PEs share it, exactly like 8-16 processes
// per node sharing a physical ConnectX adapter in the paper's testbeds.
type HCA struct {
	f   *Fabric
	lid uint16

	mu     sync.Mutex // guards qps, mrs, counters
	qps    []*QP      // index qpn-1
	mrs    map[uint32]*MR
	nextVA uint64
	nextRK uint32

	limits   Limits
	slab     *MR // pre-registered bounce slab (see RegisterBounced)
	liveQPs  int // QPs not yet destroyed, counted against Limits.MaxQPs
	qpAllocs int // QP allocation attempts (drives injected Nth-alloc faults)
	mrAllocs int // MR allocation attempts

	// memMu serializes remote RDMA/atomic access to this HCA's registered
	// memory, giving network atomics their atomicity guarantee. A change to
	// a region's window table holds both mu and memMu (MR.Back).
	memMu sync.Mutex

	// Pressure-relief registry: each tenant (connection manager) sharing the
	// adapter registers a callback that releases one idle endpoint on demand.
	// Guarded by its own mutex — callbacks tear down queue pairs, which takes
	// h.mu, so they must never be invoked under it.
	reliefMu sync.Mutex
	relief   []func(vt int64) bool
	reliefRR int

	// Telemetry (AttachObs): adapter-level gauge series keyed by lid, and the
	// job's incident ledger for injected allocation failures. All nil-safe —
	// an unattached adapter records nothing.
	gLiveQPs *obs.Gauge
	gPinned  *obs.Gauge
	gRQOcc   *obs.Gauge
	ledger   *obs.Ledger

	stats HCAStats
}

// HCAStats counts resource usage and traffic through one adapter. Tagged
// fields are exported counters, declared here and nowhere else (see
// obs.CounterDef for the tags).
type HCAStats struct {
	QPsCreatedUD   int64 `ctr:"ib.qps_created_ud" faultfree:"nonzero" help:"UD queue pairs created on the adapter"`
	QPsCreatedRC   int64 `ctr:"ib.qps_created_rc" faultfree:"nonzero" help:"RC queue pairs created on the adapter"`
	QPsDestroyed   int64 // monotone; allocation ladders key retries to it (internal: not exported)
	RCEstablished  int64 `ctr:"ib.rc_established" faultfree:"nonzero" help:"RC queue pairs that reached RTS"`
	LiveRC         int64 `ctr:"ib.live_rc" faultfree:"nonzero" help:"RC queue pairs still in RTS at job end"`
	MsgsDelivered  int64 `ctr:"ib.msgs_delivered" faultfree:"nonzero" help:"messages the fabric delivered to the adapter"`
	BytesDelivered int64 `ctr:"ib.bytes_delivered" faultfree:"nonzero" help:"payload bytes the fabric delivered to the adapter"`
	CacheMisses    int64 `ctr:"ib.cache_misses" help:"endpoint-cache misses (more live RC QPs than the HCA caches: static-mode pressure)"`
	MRsRegistered  int64 `ctr:"ib.mrs_registered" faultfree:"nonzero" help:"memory regions registered"`
	BytesPinned    int64 `ctr:"ib.bytes_pinned" faultfree:"nonzero" help:"registered-memory bytes pinned at job end"`
	AllocFailures  int64 `ctr:"ib.alloc_failures" help:"QP/MR allocations refused (budget or injected)"`
	RNRNaks        int64 `ctr:"ib.rnr_naks" help:"sends NAKed by a full receive queue"`
	BouncedMRs     int64 `ctr:"ib.bounced_mrs" help:"regions degraded to bounce-buffering"`
}

// LID returns the adapter's local identifier on the fabric.
func (h *HCA) LID() uint16 { return h.lid }

// Fabric returns the fabric this adapter is attached to.
func (h *HCA) Fabric() *Fabric { return h.f }

// Stats returns a snapshot of the adapter's counters.
func (h *HCA) Stats() HCAStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// LiveRC returns the number of RC queue pairs currently in RTS on this
// adapter. Connection managers consult it to enforce a live-QP cap (the
// endpoint-cache pressure the paper's section I describes).
func (h *HCA) LiveRC() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats.LiveRC
}

// AttachObs wires the adapter to the job's gauge registry and incident
// ledger. Call it at setup, before any QP or MR is allocated (including
// SetLimits' bounce slab), so the gauge series start from zero. Either
// argument may be nil: gauges and incidents enable independently.
func (h *HCA) AttachObs(gs *obs.GaugeSet, led *obs.Ledger) {
	inst := obs.InstHCA(h.lid)
	h.mu.Lock()
	h.gLiveQPs = gs.Gauge("ib.live_qps", inst)
	h.gPinned = gs.Gauge("ib.pinned_bytes", inst)
	h.gRQOcc = gs.Gauge("ib.rq_occupancy", inst)
	h.ledger = led
	h.mu.Unlock()
}

// RegisterRelief registers a pressure-relief callback for one of the
// adapter's tenants: invoked (vt is the requester's virtual time) when a
// sibling process cannot allocate a queue pair, it should release one idle
// endpoint and report whether it did. Callbacks must tolerate concurrent
// invocation and must not call back into allocation.
func (h *HCA) RegisterRelief(f func(vt int64) bool) {
	h.reliefMu.Lock()
	h.relief = append(h.relief, f)
	h.reliefMu.Unlock()
}

// RequestRelief asks the adapter's tenants, round-robin, to release one idle
// queue pair, returning true as soon as one does. A per-process connection
// cache can only evict its own endpoints; on a shared adapter that is not
// enough — a process with no idle connections of its own would starve while
// its node-local siblings pin the whole budget with connections they may
// never touch again. This is the cross-process half of on-demand eviction.
func (h *HCA) RequestRelief(vt int64) bool {
	h.reliefMu.Lock()
	cbs := append([]func(vt int64) bool(nil), h.relief...)
	start := h.reliefRR
	h.reliefRR++
	h.reliefMu.Unlock()
	for i := range cbs {
		if cbs[(start+i)%len(cbs)](vt) {
			return true
		}
	}
	return false
}

// CreateQP creates a queue pair in the RESET state, charging the owner's
// clock. sendCQ may be nil if the owner does not consume send completions
// (e.g. a UD QP used only for datagram receive/transmit of control traffic);
// recvCQ receives inbound messages once the QP reaches RTR. On a budgeted
// adapter it panics when the budget is exhausted; callers that can degrade
// use TryCreateQP instead.
func (h *HCA) CreateQP(typ QPType, clk *vclock.Clock, sendCQ, recvCQ *CQ) *QP {
	q, err := h.TryCreateQP(typ, clk, sendCQ, recvCQ)
	if err != nil {
		panic("ib: CreateQP: " + err.Error())
	}
	return q
}

// RegisterMR registers (pins) len(buf) bytes with the adapter and backs the
// whole region with buf as one window. The registration cost is charged on
// the registered size. On a budgeted adapter it panics when the budget is
// exhausted; callers that can degrade use TryRegisterMR/RegisterBounced
// instead.
func (h *HCA) RegisterMR(buf []byte, clk *vclock.Clock) *MR {
	m, err := h.TryRegisterMR(len(buf), clk)
	if err != nil {
		panic("ib: RegisterMR: " + err.Error())
	}
	m.Back(0, buf)
	return m
}

// registerLocked assigns a size-byte region of the adapter's virtual address
// space and an rkey; nothing is backed yet. Bounced regions do not count
// against the pinned budget: their remote traffic stages through the
// pre-registered slab instead.
func (h *HCA) registerLocked(size int, bounced bool) *MR {
	if h.mrs == nil {
		h.mrs = make(map[uint32]*MR)
	}
	h.nextRK++
	// Separate regions by a guard page in the fake virtual address space so
	// out-of-bounds accesses cannot silently land in a neighbouring region.
	h.nextVA += 0x1000
	m := &MR{hca: h, base: h.nextVA, size: size, rkey: h.nextRK | 0x80000000, bounced: bounced}
	h.nextVA += uint64(size)
	if rem := h.nextVA % 0x1000; rem != 0 {
		h.nextVA += 0x1000 - rem
	}
	h.mrs[m.rkey] = m
	h.stats.MRsRegistered++
	if !bounced {
		h.stats.BytesPinned += int64(size)
	}
	return m
}

// DeregisterMR removes the region; later remote accesses fail with
// StatusRemoteAccessErr.
func (h *HCA) DeregisterMR(m *MR) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.mrs, m.rkey)
	if !m.bounced {
		h.stats.BytesPinned -= int64(m.size)
	}
}

// QP returns the queue pair with the given number, or nil.
func (h *HCA) QP(qpn uint32) *QP {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.qpLocked(qpn)
}

func (h *HCA) qpLocked(qpn uint32) *QP {
	if qpn == 0 || int(qpn) > len(h.qps) {
		return nil
	}
	q := h.qps[qpn-1]
	if q == nil || q.state == StateDestroyed {
		return nil
	}
	return q
}

// cachePenalty returns the extra latency a message pays at this adapter when
// the endpoint cache is oversubscribed by live RC connections.
func (h *HCA) cachePenalty() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(h.stats.LiveRC) > h.f.model.HCACacheQPs {
		h.stats.CacheMisses++
		return h.f.model.HCACacheMissPenalty
	}
	return 0
}

// AtomicRMW executes a fetching atomic (OpFetchAdd/OpCmpSwap/OpSwap) against
// this adapter's registered memory on behalf of a software agent: the gasnet
// conduit's active-message atomic path uses it when atomics ride framed sends
// instead of fabric-level atomic work requests, so the exactly-once dedup
// ledger can guard them. The memory effect and the onWrite notification are
// the fabric's atomic path's own (rmw); ok is false when the (rkey, addr)
// pair does not resolve to an aligned uint64 in a live window.
func (h *HCA) AtomicRMW(op Opcode, addr uint64, rkey uint32, add, compare, swap uint64, vt int64) (old uint64, ok bool) {
	mr, off, word, ok := h.resolve(addr, rkey, 8)
	if !ok || addr%8 != 0 {
		return 0, false
	}
	return h.rmw(mr, off, word, op, add, compare, swap, vt)
}

// rmw executes one fetching atomic on word, the backed bytes at off of mr,
// under the adapter's memory lock, then counts the delivery and notifies the
// region's watcher with the arrival time vt. ok is false, and nothing
// happens, for an opcode that is not an atomic.
func (h *HCA) rmw(mr *MR, off int, word []byte, op Opcode, add, compare, swap uint64, vt int64) (old uint64, ok bool) {
	h.memMu.Lock()
	old = binary.LittleEndian.Uint64(word)
	switch op {
	case OpFetchAdd:
		binary.LittleEndian.PutUint64(word, old+add)
	case OpCmpSwap:
		if old == compare {
			binary.LittleEndian.PutUint64(word, swap)
		}
	case OpSwap:
		binary.LittleEndian.PutUint64(word, swap)
	default:
		h.memMu.Unlock()
		return 0, false
	}
	h.memMu.Unlock()
	h.countDelivery(8)
	if mr.onWrite != nil {
		mr.onWrite(off, 8, vt)
	}
	return old, true
}

func (h *HCA) countDelivery(bytes int) {
	h.mu.Lock()
	h.stats.MsgsDelivered++
	h.stats.BytesDelivered += int64(bytes)
	h.mu.Unlock()
}
