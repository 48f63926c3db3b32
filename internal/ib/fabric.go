package ib

import (
	"encoding/binary"
	"sync/atomic"

	"goshmem/internal/obs"
	"goshmem/internal/vclock"
)

// Fabric is the simulated switched interconnect: a set of HCAs addressed by
// LID plus the cost model and fault injector shared by all traffic.
type Fabric struct {
	model  *vclock.CostModel
	faults *FaultInjector
	// sched is the job's virtual-time timer queue: present exactly where
	// something can go missing and have to be waited out — a fault injector
	// (datagram loss, link flaps, PE and rail schedules) or a finite adapter
	// budget (HCA.SetLimits) — and nil on a lossless, unbudgeted fabric, whose
	// upper layers then arm no timer and count no waiter.
	sched *vclock.Sched

	// rails is the number of independent physical rails (switch planes) the
	// fabric provides; every HCA exposes one port per rail. Each rail is its
	// own fault domain: a failed rail or port blocks only the paths crossing
	// it, and RC queue pairs migrate to their alternate path (IB APM) while
	// other rails stay up. Default 1 — the flat single-rail fabric. Set at
	// setup (SetRails) and read without a lock.
	rails int

	// hcas is the adapter table, published whole by AddHCA so that HCA(lid),
	// asked on every post, takes no lock.
	hcas atomic.Pointer[[]*HCA]
}

// NewFabric creates an empty fabric. faults may be nil.
func NewFabric(model *vclock.CostModel, faults *FaultInjector) *Fabric {
	if model == nil {
		model = vclock.Default()
	}
	f := &Fabric{model: model, faults: faults, rails: 1}
	f.hcas.Store(new([]*HCA))
	if faults != nil {
		f.sched = vclock.NewSched()
	}
	return f
}

// Sched returns the job's timer queue, nil on a lossless, unbudgeted fabric.
// Every layer reaches it through the fabric the job already shares.
func (f *Fabric) Sched() *vclock.Sched { return f.sched }

// SetRails sets the number of independent rails (ports per HCA). Call it at
// setup, before traffic flows; values below 1 are clamped to 1.
func (f *Fabric) SetRails(n int) { f.rails = max(n, 1) }

// Rails returns the number of independent rails the fabric provides.
func (f *Fabric) Rails() int { return f.rails }

// Model returns the fabric's cost model.
func (f *Fabric) Model() *vclock.CostModel { return f.model }

// Lossy reports whether a fault injector can drop datagrams on this fabric.
// Upper layers frame, retain and acknowledge only on lossy fabrics: in a
// fault-free simulation nothing is ever lost.
func (f *Fabric) Lossy() bool { return f.faults != nil }

// PEFaulty reports whether PE crash/wedge injections are scheduled on this
// fabric. Upper layers arm their failure detector only then, so fault-free
// runs record zero heartbeat activity.
func (f *Fabric) PEFaulty() bool { return f.faults != nil && len(f.faults.peSched) > 0 }

// NetFaulty reports whether any port/rail/partition injections are scheduled.
// The failure detector also arms on it, so a partitioned-but-alive peer can
// be told apart from a dead one (and a permanent partition can abort with its
// own exit code instead of wedging into the watchdog).
func (f *Fabric) NetFaulty() bool { return f.faults != nil && f.faults.netFaulty() }

// The path and PE questions upper layers ask of the fault schedule. All are
// answered from the immutable schedule without a lock, and all answer
// "healthy" on a fault-free fabric.

// RailLive reports whether the src->dst path over one rail is up at virtual
// time now. The connection manager uses it for least-loaded-live-rail path
// selection and for deciding whether APM (vs reconnect, vs suspension) can
// recover a path error.
func (f *Fabric) RailLive(src, dst uint16, rail int, now int64) bool {
	return f.faults == nil || !f.faults.pathBlocked(src, dst, rail, now)
}

// Severed reports whether EVERY rail between the two adapters is dark at
// virtual time now — the true-partition condition: UD datagrams blackhole, no
// reconnect on any rail can succeed, and the failure detector must suspend
// rather than confirm-dead — and, if so, when the schedule heals it (-1:
// never).
func (f *Fabric) Severed(src, dst uint16, now int64) (dark bool, heal int64) {
	if f.faults == nil {
		return false, 0
	}
	return f.faults.severed(src, dst, f.Rails(), now)
}

// SeveredDuring reports whether a partition window severed the two adapters
// at any instant of the virtual-time span [from, to].
func (f *Fabric) SeveredDuring(src, dst uint16, from, to int64) bool {
	return f.faults != nil && f.faults.partitionedDuring(src, dst, from, to)
}

// PEFate returns rank's scheduled failure state at virtual time now; the first
// answer other than PEAlive trips the injection.
func (f *Fabric) PEFate(rank int, now int64) PEFate {
	if f.faults == nil {
		return PEAlive
	}
	return f.faults.peFate(rank, now)
}

// AddHCA attaches a new adapter and assigns it the next LID (LIDs start at 1,
// as LID 0 is reserved, like the permissive LID in real InfiniBand). Like
// SetRails it is setup: call it from one goroutine, before traffic flows.
// The append may fill the published table's spare capacity, past the length
// any reader holds.
func (f *Fabric) AddHCA() *HCA {
	hs := *f.hcas.Load()
	h := &HCA{f: f, lid: uint16(len(hs) + 1)}
	h.mrs.Store(new([]*MR))
	hs = append(hs, h)
	f.hcas.Store(&hs)
	return h
}

// HCA returns the adapter with the given LID, or nil.
func (f *Fabric) HCA(lid uint16) *HCA {
	hs := *f.hcas.Load()
	if lid == 0 || int(lid) > len(hs) {
		return nil
	}
	return hs[lid-1]
}

// HCAs returns all adapters (for stats aggregation).
func (f *Fabric) HCAs() []*HCA { return append([]*HCA(nil), *f.hcas.Load()...) }

// oneWay returns the one-way wire time for n payload bytes between two
// adapters, including endpoint-cache penalties on both sides.
func (f *Fabric) oneWay(src, dst *HCA, base int64, n int) int64 {
	if src == dst {
		return f.model.IntraNodeLatency + f.model.IntraXferTime(n)
	}
	return base + f.model.XferTime(n) + src.cachePenalty() + dst.cachePenalty()
}

// latencyOnly is oneWay without the serialization term, for operations whose
// sender already paid the wire occupancy (see occupancy).
func (f *Fabric) latencyOnly(src, dst *HCA, base int64) int64 {
	if src == dst {
		return f.model.IntraNodeLatency
	}
	return base + src.cachePenalty() + dst.cachePenalty()
}

// occupancy is the sender-side injection time of n payload bytes (the LogGP
// gap-per-byte term): a sender cannot post payload faster than the wire
// drains it, which is what bounds streaming bandwidth at the modeled rate.
func (f *Fabric) occupancy(src, dst *HCA, n int) int64 {
	if src == dst {
		return f.model.IntraXferTime(n)
	}
	return f.model.XferTime(n)
}

// clock is the clock a work request charges: its own override, else the
// queue pair owner's.
func (q *QP) clock(wr *SendWR) *vclock.Clock {
	if wr.Clk != nil {
		return wr.Clk
	}
	return q.clk
}

// live reports whether q exists as a typ queue pair that can receive.
func (q *QP) live(typ QPType) bool {
	if q == nil || q.typ != typ {
		return false
	}
	st := q.State()
	return st == StateRTR || st == StateRTS
}

// peerOf returns q's connected remote queue pair on dh, nil when it was
// destroyed before q ever posted. It is looked up under dh.mu on the first
// post and kept (QPNs are never reused), so every later post learns whether
// the far half is alive from one atomic load of its state.
func (q *QP) peerOf(dh *HCA) *QP {
	p := q.peer.Load()
	if p == nil {
		if p = dh.QP(q.remote.QPN); p != nil {
			q.peer.Store(p)
		}
	}
	return p
}

// injected reports one injected fault of kind k on q's traffic: the trace
// event (n is its size argument) and, for the kinds that are injections in
// their own right, an incident on the lane (sender rank, lane) — absorbed on
// the spot or left open for the recovery that repairs the lane to close. The
// tally is the injector's own (Injected), taken when the verdict was drawn.
func injected(q *QP, clk *vclock.Clock, k faultKind, lane, n int) {
	d, now := &faultKinds[k], clk.Now()
	q.obs.Emit(now, obs.LayerIB, d.event, -1, int64(n))
	class := "ud"
	if q.typ == RC {
		class = "rc"
	}
	switch {
	case d.kind == "":
	case d.absorbed != "":
		q.hca.ledger.OpenAbsorbed(class, d.kind, q.obs.Rank(), lane, now, d.absorbed)
	default:
		q.hca.ledger.Open(class, d.kind, q.obs.Rank(), lane, now)
	}
}

// sendUD delivers an unreliable datagram. Unknown targets and datagrams the
// admission verdict loses vanish silently, exactly like UD. The incident lane
// is (sender rank, packed destination address): every injected fault opens
// (or instantly absorbs) an incident on it and the next clean delivery on the
// same lane closes whatever is open.
func (f *Fabric) sendUD(q *QP, wr SendWR) error {
	clk := q.clock(&wr)
	lane := int(wr.Dest.LID)<<20 | int(wr.Dest.QPN)
	var fate udFate
	if f.faults != nil {
		fate = f.faults.admitUD(q.hca.lid, wr.Dest.LID, f.Rails(), clk.Now()+f.model.SendPostOverhead, wr.Data)
	}
	if fate.slow > 0 {
		clk.Advance(fate.slow)
		injected(q, clk, kindSlow, lane, len(wr.Data))
	}
	depart := clk.Advance(f.model.SendPostOverhead)
	if q.sendCQ != nil && !wr.NoSendCompletion {
		q.sendCQ.Push(Completion{WRID: wr.WRID, QPN: q.qpn, Op: OpSend, Status: StatusOK, VTime: depart})
	}
	if fate.kind != kindNone {
		injected(q, clk, fate.kind, lane, len(wr.Data))
	}
	if fate.kind == kindBlackhole {
		return nil // the blackhole is outside the fabric's bookkeeping: no aging
	}
	d := udDelivery{led: q.hca.ledger, rank: q.obs.Rank(), lane: lane, clean: true}
	if fate.kind != kindDrop {
		d.dh, d.cq = f.udTarget(wr.Dest)
	}
	if d.cq == nil {
		landAll(f.settleUD(nil, false))
		return nil
	}
	depart = clk.Advance(f.occupancy(q.hca, d.dh, len(wr.Data)))
	d.c = Completion{QPN: wr.Dest.QPN, Src: q.Addr(), Op: OpSend, Recv: true, Imm: wr.Imm, Status: StatusOK,
		Data:  append([]byte(nil), wr.Data...),
		VTime: depart + f.latencyOnly(q.hca, d.dh, f.model.UDSendLatency)}
	due := f.settleUD(&d, fate.kind == kindReorder)
	if fate.kind == kindDup { // an independent flight of the pristine payload; it vouches for nothing
		d.c.Data, d.clean = append([]byte(nil), wr.Data...), false
		d.c.VTime += f.model.UDSendLatency
		d.land()
	}
	landAll(due)
	return nil
}

// udTarget returns the adapter and receive queue a datagram to dest lands in,
// or nils when no live UD queue pair is there to take it.
func (f *Fabric) udTarget(dest Dest) (*HCA, *CQ) {
	dh := f.HCA(dest.LID)
	if dh == nil {
		return nil, nil
	}
	if dq := dh.QP(dest.QPN); dq.live(UD) && dq.recvCQ != nil {
		return dh, dq.recvCQ
	}
	return nil, nil
}

// settleUD asks the second question of a datagram's send (see landUD): d,
// nil when the datagram was lost, is landed or — if the admission verdict held
// it — parked, and the held datagrams whose reorder window this send closed
// are returned for the caller to land behind it. On a fault-free fabric that
// is just d.land().
func (f *Fabric) settleUD(d *udDelivery, hold bool) (due []udDelivery) {
	if f.faults != nil {
		due = f.faults.landUD(d, hold)
	}
	if d != nil && !hold {
		d.land()
	}
	return due
}

func landAll(due []udDelivery) {
	for i := range due {
		due[i].land()
	}
}

// rcOp is one admitted RC work request on its way to the peer: what sendRC's
// prologue established and every operation needs.
type rcOp struct {
	f      *Fabric
	q      *QP
	dh     *HCA // the peer's adapter
	dq     *QP  // the peer queue pair (peerOf), nil when already destroyed
	clk    *vclock.Clock
	depart int64
	// lane is the connection's incident lane, (sender rank, destination LID).
	// It survives QP teardown, so the reconnect's first clean completion
	// closes the flap or exhausted-retry incident that killed the old queue
	// pair.
	lane int
}

// sendRC executes a reliable-connected operation against the connected peer:
// a prologue every opcode shares — the admission verdict, then the peer's
// liveness — and one small operation per opcode. A dead remote queue pair —
// destroyed, evicted or flapped into the Error state — fails the operation
// synchronously with ErrLinkDown before any data moves, transitioning the
// local QP to Error too (real RC reports retry exhaustion the same way: both
// halves of the connection die). The sender's connection manager recovers by
// tearing down and re-running the handshake.
func (f *Fabric) sendRC(q *QP, wr SendWR) error {
	dh := f.HCA(q.remote.LID)
	if dh == nil {
		return ErrBadLID
	}
	x := rcOp{f: f, q: q, dh: dh, dq: q.peerOf(dh), clk: q.clock(&wr), lane: int(q.remote.LID)}
	var fate rcFate
	if f.faults != nil {
		fate = f.faults.admitRC(q.hca.lid, q.remote.LID, q.Rail(), x.clk.Now()+f.model.SendPostOverhead)
	}
	if fate.slow > 0 {
		x.clk.Advance(fate.slow)
		injected(q, x.clk, kindSlow, x.lane, len(wr.Data))
	}
	x.depart = x.clk.Advance(f.model.SendPostOverhead)
	switch fate.refused {
	case kindPathDown:
		// Refused before any byte moves and before any teardown: only when
		// every rail is dead does the caller escalate from migration (APM) to
		// the reconnect/suspension machinery.
		injected(q, x.clk, kindPathDown, x.lane, q.Rail())
		return ErrPathDown
	case kindFlap:
		// Both queue pairs error out mid-stream, before this operation's
		// payload moves, so no byte is delivered twice.
		injected(q, x.clk, kindFlap, x.lane, 0)
		x.errorBoth()
		return ErrLinkDown
	}
	if !x.dq.live(RC) {
		q.ToError()
		return ErrLinkDown
	}
	switch wr.Op {
	case OpSend:
		return x.rcSend(&wr)
	case OpRDMAWrite:
		return x.rcWrite(&wr)
	case OpRDMARead:
		return x.rcRead(&wr)
	case OpFetchAdd, OpCmpSwap, OpSwap:
		return x.rcAtomic(&wr)
	}
	return ErrOpUnsupported
}

// complete pushes the operation's send completion, unless it is unsignaled,
// and — when the completion can vouch for the lane (clean) — closes the
// incidents open on it.
func (x *rcOp) complete(wr *SendWR, c Completion, clean bool) {
	if x.q.sendCQ != nil && !wr.NoSendCompletion {
		c.WRID, c.QPN, c.Op = wr.WRID, x.q.qpn, wr.Op
		x.q.sendCQ.Push(c)
	}
	if clean {
		x.q.hca.ledger.CloseAll("rc", nil, x.q.obs.Rank(), x.lane, c.VTime, "completed")
	}
}

// accessErr completes the operation with a remote access error: the (rkey,
// addr, len) triple did not resolve at the target.
func (x *rcOp) accessErr(wr *SendWR) error {
	x.complete(wr, Completion{Status: StatusRemoteAccessErr, VTime: x.depart + x.f.model.RCSendLatency}, false)
	return nil
}

// damage asks the injector for the operation's payload verdict; nothing on a
// fault-free fabric.
func (x *rcOp) damage(op Opcode, pkts int) rcDamage {
	if x.f.faults == nil {
		return rcDamage{}
	}
	return x.f.faults.damageRC(op, pkts)
}

// retransmit is the requester's answer to hits corrupted transmissions of an
// n-byte payload, each dropped by the receiver's ICRC check: every hit is one
// more round of the payload on the wire (its occupancy, the one-way latency
// and the ACK timeout's share, RCAckLatency) by which delivery is late, and an
// incident absorbed on the spot — unless it is the RetryCnt-th, which fails
// the work request and kills the connection like a flap.
func (x *rcOp) retransmit(hits, n int) (delay int64, err error) {
	for i := 1; i <= hits; i++ {
		if i == RetryCnt {
			injected(x.q, x.clk, kindRetryExceeded, x.lane, n)
			x.errorBoth()
			return 0, ErrRCCorrupt
		}
		injected(x.q, x.clk, kindRCCorrupt, x.lane, n)
	}
	m := x.f.model
	return int64(hits) * (m.RCSendLatency + m.RCAckLatency + x.f.occupancy(x.q.hca, x.dh, n)), nil
}

// errorBoth kills the connection, as a link fault does on real RC: both queue
// pairs go to Error.
func (x *rcOp) errorBoth() {
	x.q.ToError()
	if x.dq != nil && x.dq.typ == RC {
		x.dq.ToError()
	}
}

// rcSend delivers a two-sided message. The sender pays the wire occupancy
// (LogGP gap); the receiver sees the last byte one latency later.
//
// The per-target in-order clamp and receive-queue slot are the one piece of
// the data path under the target adapter's mu.
func (x *rcOp) rcSend(wr *SendWR) error {
	f, q, dh, dq := x.f, x.q, x.dh, x.dq
	depart := x.clk.Advance(f.occupancy(q.hca, dh, len(wr.Data)))
	arrival := depart + f.latencyOnly(q.hca, dh, f.model.RCSendLatency)
	if dmg := x.damage(wr.Op, 0); dmg.hits > 0 {
		delay, err := x.retransmit(dmg.hits, len(wr.Data))
		if err != nil {
			return err
		}
		arrival += delay
	}
	dh.mu.Lock()
	if !dq.live(RC) || dq.recvCQ == nil {
		// The remote died between the liveness check and delivery.
		dh.mu.Unlock()
		q.ToError()
		return ErrLinkDown
	}
	// RC delivery is in-order: clamp arrival monotone per target QP.
	if arrival <= dq.lastArr {
		arrival = dq.lastArr + 1
	}
	if dq.rqDepth > 0 && !dh.takeRQSlotLocked(dq, arrival) {
		dh.mu.Unlock()
		return ErrRNR
	}
	dq.lastArr = arrival
	recvCQ := dq.recvCQ
	dh.mu.Unlock()

	data := append([]byte(nil), wr.Data...)
	dh.countDelivery(len(data))
	recvCQ.Push(Completion{QPN: q.remote.QPN, Src: q.Addr(), Op: OpSend, Recv: true,
		Data: data, Imm: wr.Imm, Status: StatusOK, VTime: arrival})
	x.complete(wr, Completion{Status: StatusOK, VTime: arrival + f.model.RCAckLatency}, true)
	return nil
}

// takeRQSlotLocked claims a slot of dq's finite receive queue for a message
// arriving at arrival: each delivered message holds one until the receiver's
// software reposts it at arrival+RQDrain. What has drained by now is released
// first; if the queue is still full the send is NAKed (false) before any byte
// moves and without consuming the arrival slot — the in-order clamp is
// untouched, so the retry (at a later virtual time, after the sender's
// backoff) preserves ordering. Caller holds h.mu.
func (h *HCA) takeRQSlotLocked(dq *QP, arrival int64) bool {
	i := 0
	for i < len(dq.rqRel) && dq.rqRel[i] <= arrival {
		// Each slot's release is recorded at its own drain time; the
		// gauge fold sorts by VT, so observing it late is harmless.
		h.gRQOcc.Add(dq.rqRel[i], -1)
		i++
	}
	if i > 0 {
		dq.rqRel = append(dq.rqRel[:0], dq.rqRel[i:]...)
	}
	if len(dq.rqRel) >= int(dq.rqDepth) {
		h.stats.RNRNaks++
		return false
	}
	dq.rqRel = append(dq.rqRel, arrival+h.f.model.RQDrain)
	h.gRQOcc.Add(arrival, 1)
	return true
}

// land copies data, a write's payload or a prefix of it, into mem, the
// resolved target bytes at off, and notifies the region's watcher with no
// lock held. One aligned word lands as one atomic store; anything longer
// copies under the region's mu, ordered against its other multi-word
// transfers.
func (x *rcOp) land(mr *MR, off int, mem, data []byte, arrival int64) {
	n := len(data)
	if n == 8 && off%8 == 0 {
		atomic.StoreUint64(wordOf(mem), binary.NativeEndian.Uint64(data))
	} else {
		mr.mu.Lock()
		n = copy(mem, data)
		mr.mu.Unlock()
	}
	x.dh.countDelivery(n)
	if mr.onWrite != nil {
		mr.onWrite(off, n, arrival)
	}
}

// rcWrite executes an RDMA write. The wire carries the message as
// ceil(n/RCMTU) packets, each protected by an invariant CRC the receiving
// adapter verifies before DMA, so a corrupted packet is retransmitted (or,
// retries exhausted, the write fails having landed nothing) and target memory
// never sees a damaged byte. A torn write is a link fault between packets: a
// clean whole-packet prefix lands, the link dies, and the prefix stays visible
// — a concurrent polling reader (flag waits, signal spins) can observe stale
// or partially-updated memory, never garbage — until the sender's reconnect
// replays the write. wr.Data is never touched.
func (x *rcOp) rcWrite(wr *SendWR) error {
	f := x.f
	mr, off, mem, ok := x.dh.resolve(wr.RemoteAddr, wr.RKey, len(wr.Data))
	if !ok {
		return x.accessErr(wr)
	}
	// A bounced (unpinned) target region stages the payload through the
	// adapter's bounce slab: one extra copy at intra-node bandwidth.
	if mr.bounced {
		x.clk.Advance(f.model.IntraXferTime(len(wr.Data)))
	}
	depart := x.clk.Advance(f.occupancy(x.q.hca, x.dh, len(wr.Data)))
	arrival := depart + f.latencyOnly(x.q.hca, x.dh, f.model.RCSendLatency)
	if dmg := x.damage(wr.Op, (len(wr.Data)+RCMTU-1)/RCMTU); dmg != (rcDamage{}) {
		if dmg.torn > 0 {
			injected(x.q, x.clk, kindTornWrite, x.lane, dmg.torn*RCMTU)
			x.land(mr, off, mem, wr.Data[:dmg.torn*RCMTU], arrival)
			x.errorBoth()
			return ErrTornWrite
		}
		delay, err := x.retransmit(dmg.hits, len(wr.Data))
		if err != nil {
			return err
		}
		arrival += delay
	}
	x.land(mr, off, mem, wr.Data, arrival)
	x.complete(wr, Completion{Status: StatusOK, VTime: arrival + f.model.RCAckLatency}, true)
	return nil
}

// rcRead executes an RDMA read. A corrupted request or response is
// retransmitted; retries exhausted, the read returns nothing, the connection
// dies and the requester re-issues it after reconnect. Reads have no remote
// side effect to tear.
func (x *rcOp) rcRead(wr *SendWR) error {
	f, q, dh := x.f, x.q, x.dh
	mr, off, mem, ok := dh.resolve(wr.RemoteAddr, wr.RKey, wr.Len)
	if !ok {
		return x.accessErr(wr)
	}
	if mr.bounced {
		x.clk.Advance(f.model.IntraXferTime(wr.Len)) // stage through the slab
	}
	req := f.oneWay(q.hca, dh, f.model.RCSendLatency, 0)
	if dmg := x.damage(wr.Op, 0); dmg.hits > 0 {
		delay, err := x.retransmit(dmg.hits, wr.Len)
		if err != nil {
			return err
		}
		req += delay
	}
	data := make([]byte, wr.Len)
	if wr.Len == 8 && off%8 == 0 { // one aligned word: one atomic load, as land stores it
		binary.NativeEndian.PutUint64(data, atomic.LoadUint64(wordOf(mem)))
	} else {
		mr.mu.Lock()
		copy(data, mem)
		mr.mu.Unlock()
	}
	resp := f.oneWay(dh, q.hca, f.model.RCSendLatency, wr.Len)
	dh.countDelivery(wr.Len)
	x.complete(wr, Completion{Status: StatusOK, Data: data, VTime: x.depart + req + resp}, true)
	return nil
}

// rcAtomic executes a fetching atomic on an aligned remote word.
func (x *rcOp) rcAtomic(wr *SendWR) error {
	f, q, dh := x.f, x.q, x.dh
	mr, off, _, ok := dh.resolve(wr.RemoteAddr, wr.RKey, 8)
	if !ok {
		return x.accessErr(wr)
	}
	if wr.RemoteAddr%8 != 0 {
		return ErrUnaligned
	}
	if mr.bounced {
		x.clk.Advance(f.model.IntraXferTime(8)) // stage through the slab
	}
	arrival := x.depart + f.oneWay(q.hca, dh, f.model.RCSendLatency, 8) + f.model.AtomicLatency
	old, _ := dh.rmw(mr, off, wr.Op, wr.Add, wr.Compare, wr.Swap, arrival)
	resp := f.oneWay(dh, q.hca, f.model.RCSendLatency, 8)
	x.complete(wr, Completion{Status: StatusOK, Old: old, VTime: arrival + resp}, true)
	return nil
}

// resolve validates an (rkey, addr, len) triple against the adapter's
// memory-region table and returns the region, the byte offset and the n
// backed bytes there. An access outside the region or outside every single
// live window of it fails alike: the caller reports StatusRemoteAccessErr.
// A window released after resolve returns keeps its bytes as storage nobody
// reads, and an atomic that finds its word gone changes nothing: OpenSHMEM's
// shmem_free barriers first, so a correct program's accesses to a block have
// all landed before it is released. Neither table read takes a lock.
func (h *HCA) resolve(addr uint64, rkey uint32, n int) (*MR, int, []byte, bool) {
	for _, mr := range *h.mrs.Load() {
		if mr.rkey == rkey && addr >= mr.base && addr-mr.base <= uint64(mr.size) {
			mem, ok := mr.View(int(addr-mr.base), n)
			return mr, int(addr - mr.base), mem, ok
		}
	}
	return nil, 0, nil, false
}
