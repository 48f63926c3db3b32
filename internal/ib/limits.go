package ib

import (
	"goshmem/internal/obs"
	"goshmem/internal/vclock"
)

// Limits are an adapter's finite resource budgets — the scarcity the paper's
// endpoint-economy argument rests on. Zero fields are unbounded, and the zero
// value disables the whole resource plane, so unbudgeted runs behave (and
// time) exactly as before.
type Limits struct {
	// MaxQPs caps the number of live queue pairs (UD and RC) on the adapter.
	MaxQPs int
	// MaxMRBytes caps the pinned (registered) bytes on the adapter.
	MaxMRBytes int64
	// RQDepth is the per-RC-QP receive-queue depth: how many delivered but
	// not-yet-reposted messages the target can hold before NAKing senders
	// with ErrRNR.
	RQDepth int
}

const (
	// bounceSlabBytes is the preferred size of the pre-registered bounce
	// slab an adapter keeps for degraded (unpinned) memory regions.
	bounceSlabBytes = 64 << 10
	// minBounceSlab is the smallest useful slab (one page). A pinned-memory
	// budget that cannot spare this leaves no degradation path: registration
	// failures become fatal.
	minBounceSlab = 4 << 10
)

// SetLimits arms the adapter's budgets. When a pinned-memory budget is set,
// it also pre-registers the bounce slab (at most half the budget) while the
// budget is still empty, so the degraded registration path is available
// deterministically from the start rather than racing the first exhausted
// caller. The cluster calls this once per adapter at setup.
func (h *HCA) SetLimits(l Limits, clk *vclock.Clock) {
	h.mu.Lock()
	h.limits = l
	haveSlab := h.slab != nil
	h.mu.Unlock()
	if l != (Limits{}) && h.f.sched == nil {
		// Finite budgets mean refusals, and refusals are retried after a
		// back-off: the fabric needs its timer queue.
		h.f.sched = vclock.NewSched()
	}
	if l.MaxMRBytes <= 0 || haveSlab {
		return
	}
	slab := int64(bounceSlabBytes)
	if slab > l.MaxMRBytes/2 {
		slab = l.MaxMRBytes / 2
	}
	if slab < minBounceSlab {
		return // budget too small to stage through: no bounce path
	}
	h.mu.Lock()
	h.slab = h.registerLocked(int(slab), false)
	g := h.gPinned
	h.mu.Unlock()
	h.slab.Back(0, make([]byte, slab))
	clk.Advance(h.f.model.MemRegTime(int(slab)))
	g.Add(clk.Now(), slab)
}

// Limits returns the adapter's budgets (zero value when unbudgeted).
func (h *HCA) Limits() Limits {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.limits
}

// QPImpossible reports whether a queue-pair allocation can never succeed on
// this adapter: the budget is exhausted and no RC queue pair is live to ever
// be evicted (the remaining slots are held by UD endpoints, which live for
// the whole job). Connection managers abort — rather than retry — only then.
func (h *HCA) QPImpossible() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.limits.MaxQPs <= 0 || h.liveQPs < h.limits.MaxQPs {
		return false
	}
	for _, q := range h.qps {
		if q != nil && q.typ == RC && q.State() != StateError { // a destroyed QP's slot is nil
			return false
		}
	}
	return true
}

// TryCreateQP is CreateQP under the adapter's budget: it fails with
// ErrQPExhausted when the queue-pair cap is reached or the fault injector
// scheduled this allocation to fail, charging nothing. RC queue pairs
// created under a receive-queue budget get the finite depth.
func (h *HCA) TryCreateQP(typ QPType, clk *vclock.Clock, sendCQ, recvCQ *CQ) (*QP, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.qpAllocs++
	// Injected failures open a detected "alloc" incident (they are budgeted
	// faults the ledger must reconcile); ordinary budget refusals are the
	// resource plane working as designed and stay off the ledger.
	if h.f.faults.refusesAlloc(false, h.qpAllocs) {
		h.stats.AllocFailures++
		h.ledger.OpenDetected("alloc", "qp", obs.InstJob, obs.InstHCA(h.lid), clk.Now(), "alloc-refused")
		return nil, ErrQPExhausted
	}
	if h.limits.MaxQPs > 0 && h.liveQPs >= h.limits.MaxQPs {
		h.stats.AllocFailures++
		return nil, ErrQPExhausted
	}
	switch typ {
	case UD:
		clk.Advance(h.f.model.UDQPCreate)
	case RC:
		clk.Advance(h.f.model.RCQPCreate)
	}
	sendCQ.bind(h.f.sched)
	recvCQ.bind(h.f.sched)
	q := &QP{hca: h, typ: typ, clk: clk, sendCQ: sendCQ, recvCQ: recvCQ}
	if typ == RC {
		q.rqDepth = int32(h.limits.RQDepth)
	}
	h.qps = append(h.qps, q)
	q.qpn = uint32(len(h.qps))
	h.liveQPs++
	if typ == UD {
		h.stats.QPsCreatedUD++
	} else {
		h.stats.QPsCreatedRC++
	}
	h.gLiveQPs.Add(clk.Now(), 1)
	h.ledger.CloseAll("alloc", []string{"qp"}, obs.InstJob, obs.InstHCA(h.lid), clk.Now(), "alloc-ok")
	return q, nil
}

// TryRegisterMR registers size bytes under the adapter's budget, backing
// none of them (see MR.Back): it fails with ErrMRExhausted when pinning them
// would exceed the pinned-byte budget or the fault injector scheduled this
// allocation to fail. Callers degrade to RegisterBounced.
func (h *HCA) TryRegisterMR(size int, clk *vclock.Clock) (*MR, error) {
	h.mu.Lock()
	h.mrAllocs++
	if h.f.faults.refusesAlloc(true, h.mrAllocs) {
		h.stats.AllocFailures++
		h.mu.Unlock()
		h.ledger.OpenDetected("alloc", "mr", obs.InstJob, obs.InstHCA(h.lid), clk.Now(), "alloc-refused")
		return nil, ErrMRExhausted
	}
	if h.limits.MaxMRBytes > 0 && h.stats.BytesPinned+int64(size) > h.limits.MaxMRBytes {
		h.stats.AllocFailures++
		h.mu.Unlock()
		return nil, ErrMRExhausted
	}
	m := h.registerLocked(size, false)
	g := h.gPinned
	h.mu.Unlock()
	clk.Advance(h.f.model.MemRegTime(size))
	g.Add(clk.Now(), int64(size))
	h.ledger.CloseAll("alloc", []string{"mr"}, obs.InstJob, obs.InstHCA(h.lid), clk.Now(), "alloc-ok")
	return m, nil
}

// RegisterBounced registers size bytes as a degraded, unpinned region that
// stages its remote traffic through the adapter's pre-registered bounce
// slab. The region keeps a real rkey and is backed window by window like any
// other — remote RDMA and atomics work unchanged — but only the slab's bytes
// count against the pinned budget (they were charged at SetLimits), and
// every data operation through the region pays an extra staging copy. Fails
// when no slab exists.
func (h *HCA) RegisterBounced(size int, clk *vclock.Clock) (*MR, error) {
	h.mu.Lock()
	if h.slab == nil {
		h.mu.Unlock()
		return nil, ErrMRExhausted
	}
	m := h.registerLocked(size, true)
	h.stats.BouncedMRs++
	h.mu.Unlock()
	clk.Advance(h.f.model.MemRegBase) // descriptor only: nothing is pinned
	h.ledger.CloseAll("alloc", []string{"mr"}, obs.InstJob, obs.InstHCA(h.lid), clk.Now(), "bounced")
	return m, nil
}
