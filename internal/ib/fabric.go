package ib

import (
	"sync"

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
	// other rails stay up. Default 1 — the flat single-rail fabric.
	rails int

	mu   sync.RWMutex
	hcas []*HCA
}

// NewFabric creates an empty fabric. faults may be nil.
func NewFabric(model *vclock.CostModel, faults *FaultInjector) *Fabric {
	if model == nil {
		model = vclock.Default()
	}
	f := &Fabric{model: model, faults: faults, rails: 1}
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
func (f *Fabric) SetRails(n int) {
	if n < 1 {
		n = 1
	}
	f.mu.Lock()
	f.rails = n
	f.mu.Unlock()
}

// Rails returns the number of independent rails the fabric provides.
func (f *Fabric) Rails() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.rails
}

// Model returns the fabric's cost model.
func (f *Fabric) Model() *vclock.CostModel { return f.model }

// Lossy reports whether a fault injector can drop datagrams on this fabric.
// Upper layers frame, retain and acknowledge only on lossy fabrics: in a
// fault-free simulation nothing is ever lost.
func (f *Fabric) Lossy() bool { return f.faults != nil }

// Faults returns the fabric's fault injector, nil on a fault-free fabric.
func (f *Fabric) Faults() *FaultInjector { return f.faults }

// PEFaulty reports whether PE crash/wedge injections are scheduled on this
// fabric. Upper layers arm their failure detector only then, so fault-free
// runs record zero heartbeat activity.
func (f *Fabric) PEFaulty() bool { return f.faults.PEFaultsScheduled() }

// NetFaulty reports whether any port/rail/partition injections are scheduled.
// The failure detector also arms on it, so a partitioned-but-alive peer can
// be told apart from a dead one (and a permanent partition can abort with its
// own exit code instead of wedging into the watchdog).
func (f *Fabric) NetFaulty() bool { return f.faults.NetFaultsScheduled() }

// PathsSevered reports whether EVERY rail between the two adapters is blocked
// at virtual time now — the true-partition condition: UD datagrams blackhole,
// no reconnect on any rail can succeed, and the failure detector must suspend
// rather than confirm-dead. Always false on a fault-free fabric.
func (f *Fabric) PathsSevered(src, dst uint16, now int64) bool {
	if f.faults == nil {
		return false
	}
	return f.faults.allPathsBlocked(src, dst, f.Rails(), now)
}

// AddHCA attaches a new adapter and assigns it the next LID (LIDs start at 1,
// as LID 0 is reserved, like the permissive LID in real InfiniBand).
func (f *Fabric) AddHCA() *HCA {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := &HCA{f: f, lid: uint16(len(f.hcas) + 1)}
	f.hcas = append(f.hcas, h)
	return h
}

// HCA returns the adapter with the given LID, or nil.
func (f *Fabric) HCA(lid uint16) *HCA {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if lid == 0 || int(lid) > len(f.hcas) {
		return nil
	}
	return f.hcas[lid-1]
}

// HCAs returns all adapters (for stats aggregation).
func (f *Fabric) HCAs() []*HCA {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*HCA, len(f.hcas))
	copy(out, f.hcas)
	return out
}

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

// sendUD delivers an unreliable datagram. Unknown targets and datagrams that
// the fault injector drops vanish silently, exactly like UD. Datagrams the
// injector holds for reordering are delivered once enough later traffic has
// overtaken them; each send also flushes any held datagram whose bounded
// reorder window has expired.
func (f *Fabric) sendUD(q *QP, wr SendWR) error {
	clk := q.clk
	if wr.Clk != nil {
		clk = wr.Clk
	}
	// Incident lane for this datagram: (sender rank, packed dest address).
	// Every injected UD fault opens (or instantly absorbs) an incident on the
	// lane; the next clean delivery on the same lane closes whatever is open.
	led := q.hca.ledger
	rank := q.obs.Rank()
	destKey := int(wr.Dest.LID)<<20 | int(wr.Dest.QPN)
	if extra := f.faults.slowdown(); extra > 0 {
		clk.Advance(extra)
		q.obs.Emit(clk.Now(), obs.LayerIB, "fault-slow", -1, int64(len(wr.Data)))
		q.obs.Count("ib.fault.slowdown", 1)
		led.OpenAbsorbed("ud", "slow", rank, destKey, clk.Now(), "latency-absorbed")
	}
	depart := clk.Advance(f.model.SendPostOverhead)
	if q.sendCQ != nil && !wr.NoSendCompletion {
		q.sendCQ.Push(Completion{WRID: wr.WRID, QPN: q.qpn, Op: OpSend, Status: StatusOK, VTime: depart})
	}
	// A datagram whose source and destination are severed on every rail
	// (failed ports/rails, or an active partition window) vanishes in the
	// switch fabric, exactly like UD. It is deliberately NOT counted as an
	// injected drop: the blackhole is the port/rail/partition fault's own
	// effect, and its incident is opened by the schedule, not per datagram.
	if f.faults != nil && f.faults.allPathsBlocked(q.hca.lid, wr.Dest.LID, f.Rails(), clk.Now()) {
		q.obs.Emit(clk.Now(), obs.LayerIB, "fault-blackhole", -1, int64(len(wr.Data)))
		q.obs.Count("ib.fault.blackhole", 1)
		return nil
	}
	// Age the reorder window before deciding this datagram's fate so held
	// datagrams flush even on a stream of drops.
	defer func() {
		for _, deliver := range f.faults.dueDeliveries() {
			deliver()
		}
	}()
	drop, dup, hold := f.faults.udFate(wr.Data)
	if drop {
		q.obs.Emit(clk.Now(), obs.LayerIB, "fault-drop", -1, int64(len(wr.Data)))
		q.obs.Count("ib.fault.drop", 1)
		// Open until the conduit's retransmission lands a clean datagram on
		// this lane (or, for fire-and-forget traffic, the end-of-job sweep).
		led.Open("ud", "drop", rank, destKey, clk.Now())
		return nil
	}
	dh := f.HCA(wr.Dest.LID)
	if dh == nil {
		return nil
	}
	dh.mu.Lock()
	dq := dh.qpLocked(wr.Dest.QPN)
	if dq == nil || dq.typ != UD || (dq.state != StateRTR && dq.state != StateRTS) || dq.recvCQ == nil {
		dh.mu.Unlock()
		return nil
	}
	recvCQ := dq.recvCQ
	dh.mu.Unlock()

	depart = clk.Advance(f.occupancy(q.hca, dh, len(wr.Data)))
	arrival := depart + f.latencyOnly(q.hca, dh, f.model.UDSendLatency)
	data := append([]byte(nil), wr.Data...)
	// Bit-flip corruption hits only the primary delivered copy: a duplicate
	// below re-copies the pristine wr.Data, modeling an independent flight.
	corrupted := f.faults.corruptData(data)
	if corrupted {
		q.obs.Emit(clk.Now(), obs.LayerIB, "fault-corrupt", -1, int64(len(data)))
		q.obs.Count("ib.fault.corrupt", 1)
		// Open until the receiver's checksum rejects this copy and the
		// sender's retransmission lands a clean one.
		led.Open("ud", "corrupt", rank, destKey, clk.Now())
	}
	src := q.Addr()
	deliver := func() {
		dh.countDelivery(len(data))
		recvCQ.Push(Completion{QPN: wr.Dest.QPN, Src: src, Op: OpSend, Recv: true,
			Data: data, Imm: wr.Imm, Status: StatusOK, VTime: arrival})
		// A clean delivery repairs the lane; the delivery that carries an
		// injected corruption must not close its own incident.
		if !corrupted {
			led.CloseAll("ud", nil, rank, destKey, arrival, "delivered")
		}
	}
	if hold {
		q.obs.Emit(clk.Now(), obs.LayerIB, "fault-reorder", -1, int64(len(data)))
		q.obs.Count("ib.fault.reorder", 1)
		led.OpenAbsorbed("ud", "reorder", rank, destKey, clk.Now(), "late-delivery")
		f.faults.holdDelivery(deliver)
		return nil
	}
	deliver()
	if dup {
		q.obs.Emit(clk.Now(), obs.LayerIB, "fault-dup", -1, int64(len(wr.Data)))
		q.obs.Count("ib.fault.dup", 1)
		led.OpenAbsorbed("ud", "dup", rank, destKey, clk.Now(), "dedup-absorbed")
		dupData := append([]byte(nil), wr.Data...)
		dh.countDelivery(len(dupData))
		recvCQ.Push(Completion{QPN: wr.Dest.QPN, Src: src, Op: OpSend, Recv: true,
			Data: dupData, Imm: wr.Imm, Status: StatusOK, VTime: arrival + f.model.UDSendLatency})
	}
	return nil
}

// sendRC executes a reliable-connected operation against the connected peer.
// A dead remote queue pair — destroyed, evicted or flapped into the Error
// state — fails the operation synchronously with ErrLinkDown before any data
// moves, transitioning the local QP to Error too (real RC reports retry
// exhaustion the same way: both halves of the connection die). The sender's
// connection manager recovers by tearing down and re-running the handshake.
func (f *Fabric) sendRC(q *QP, wr SendWR) error {
	clk := q.clk
	if wr.Clk != nil {
		clk = wr.Clk
	}
	// Incident lane for this connection: (sender rank, destination LID). The
	// lane survives QP teardown, so the reconnect's first clean completion
	// closes the flap/corruption incident that killed the old queue pair.
	led := q.hca.ledger
	rank := q.obs.Rank()
	destLID := int(q.remote.LID)
	if extra := f.faults.slowdown(); extra > 0 {
		clk.Advance(extra)
		q.obs.Emit(clk.Now(), obs.LayerIB, "fault-slow", -1, int64(len(wr.Data)))
		q.obs.Count("ib.fault.slowdown", 1)
		led.OpenAbsorbed("rc", "slow", rank, destLID, clk.Now(), "latency-absorbed")
	}
	depart := clk.Advance(f.model.SendPostOverhead)
	dh := f.HCA(q.remote.LID)
	if dh == nil {
		return ErrBadLID
	}
	// Path error: the QP's primary rail is severed between the endpoints
	// (port/rail failure or partition window). The operation is refused
	// before any byte moves and before any teardown — both queue pairs stay
	// healthy, so the connection manager can migrate to the loaded alternate
	// path (APM) and simply re-post. Only when every rail is dead does the
	// caller escalate to the reconnect/suspension machinery.
	if f.faults != nil && f.faults.pathBlocked(q.hca.lid, q.remote.LID, q.Rail(), clk.Now()) {
		q.obs.Emit(clk.Now(), obs.LayerIB, "fault-path-down", -1, int64(q.Rail()))
		q.obs.Count("ib.fault.path_down", 1)
		return ErrPathDown
	}
	if f.faults.rcFlap() {
		// Injected link fault: both queue pairs error out mid-stream, before
		// this operation's payload moves, so no byte is delivered twice.
		q.obs.Emit(clk.Now(), obs.LayerIB, "fault-flap", -1, 0)
		q.obs.Count("ib.fault.flap", 1)
		led.Open("rc", "flap", rank, destLID, clk.Now())
		dh.mu.Lock()
		dq := dh.qpLocked(q.remote.QPN)
		dh.mu.Unlock()
		q.ToError()
		if dq != nil && dq.typ == RC {
			dq.ToError()
		}
		return ErrLinkDown
	}
	dh.mu.Lock()
	rdq := dh.qpLocked(q.remote.QPN)
	remoteLive := rdq != nil && rdq.typ == RC && (rdq.state == StateRTR || rdq.state == StateRTS)
	dh.mu.Unlock()
	if !remoteLive {
		q.ToError()
		return ErrLinkDown
	}

	completeSend := func(c Completion) {
		if q.sendCQ != nil && !wr.NoSendCompletion {
			c.WRID = wr.WRID
			c.QPN = q.qpn
			c.Op = wr.Op
			q.sendCQ.Push(c)
		}
	}

	switch wr.Op {
	case OpSend:
		// The sender pays the wire occupancy (LogGP gap); the receiver sees
		// the last byte one latency later. Compute the latency before taking
		// the target HCA lock: the cache-penalty accounting locks both
		// adapters itself.
		depart = clk.Advance(f.occupancy(q.hca, dh, len(wr.Data)))
		lat := f.latencyOnly(q.hca, dh, f.model.RCSendLatency)
		dh.mu.Lock()
		dq := dh.qpLocked(q.remote.QPN)
		if dq == nil || dq.typ != RC || (dq.state != StateRTR && dq.state != StateRTS) || dq.recvCQ == nil {
			// The remote died between the liveness check and delivery.
			dh.mu.Unlock()
			q.ToError()
			return ErrLinkDown
		}
		arrival := depart + lat
		// RC delivery is in-order: clamp arrival monotone per target QP.
		if arrival <= dq.lastArr {
			arrival = dq.lastArr + 1
		}
		if dq.rqDepth > 0 {
			// Finite receive queue: each delivered message holds a slot until
			// the receiver's software reposts it at arrival+RQDrain. Release
			// what has drained by this arrival; if the queue is still full,
			// NAK the send before any byte moves and without consuming the
			// arrival slot — the clamp is untouched, so the retry (at a later
			// virtual time, after the sender's backoff) preserves ordering.
			i := 0
			for i < len(dq.rqRel) && dq.rqRel[i] <= arrival {
				// Each slot's release is recorded at its own drain time; the
				// gauge fold sorts by VT, so observing it late is harmless.
				dh.gRQOcc.Add(dq.rqRel[i], -1)
				i++
			}
			if i > 0 {
				dq.rqRel = append(dq.rqRel[:0], dq.rqRel[i:]...)
			}
			if len(dq.rqRel) >= dq.rqDepth {
				dh.stats.RNRNaks++
				dh.mu.Unlock()
				return ErrRNR
			}
			dq.rqRel = append(dq.rqRel, arrival+f.model.RQDrain)
			dh.gRQOcc.Add(arrival, 1)
		}
		dq.lastArr = arrival
		recvCQ := dq.recvCQ
		dh.mu.Unlock()

		data := append([]byte(nil), wr.Data...)
		// Injected RC payload corruption: the delivered copy is damaged while
		// wr.Data stays pristine for any software retransmission. Two-sided
		// sends carry a software integrity trailer in this runtime, so the
		// flip is delivered silently and detection is the receiver's job.
		corrupted := f.faults.rcCorruptData(data)
		if corrupted {
			q.obs.Emit(clk.Now(), obs.LayerIB, "fault-rc-corrupt", -1, int64(len(data)))
			q.obs.Count("ib.fault.rc_corrupt", 1)
			// Open until the receiver's integrity trailer rejects the copy
			// and a clean (software-retransmitted) send completes.
			led.Open("rc", "rc-corrupt", rank, destLID, clk.Now())
		}
		dh.countDelivery(len(data))
		recvCQ.Push(Completion{QPN: q.remote.QPN, Src: q.Addr(), Op: OpSend, Recv: true,
			Data: data, Imm: wr.Imm, Status: StatusOK, VTime: arrival})
		completeSend(Completion{Status: StatusOK, VTime: arrival + f.model.RCAckLatency})
		// The completion that carried an injected corruption cannot vouch for
		// the lane; only a clean completion closes open incidents on it.
		if !corrupted {
			led.CloseAll("rc", nil, rank, destLID, arrival+f.model.RCAckLatency, "completed")
		}
		return nil

	case OpRDMAWrite:
		mr, off, ok := f.resolve(dh, wr.RemoteAddr, wr.RKey, len(wr.Data))
		if !ok {
			completeSend(Completion{Status: StatusRemoteAccessErr, VTime: depart + f.model.RCSendLatency})
			return nil
		}
		// A bounced (unpinned) target region stages the payload through the
		// adapter's bounce slab: one extra copy at intra-node bandwidth.
		if mr.bounced {
			clk.Advance(f.model.IntraXferTime(len(wr.Data)))
		}
		depart = clk.Advance(f.occupancy(q.hca, dh, len(wr.Data)))
		arrival := depart + f.latencyOnly(q.hca, dh, f.model.RCSendLatency)
		errorBoth := func() {
			dh.mu.Lock()
			dq := dh.qpLocked(q.remote.QPN)
			dh.mu.Unlock()
			q.ToError()
			if dq != nil && dq.typ == RC {
				dq.ToError()
			}
		}
		// Injected one-sided data-plane faults, at the link's packet
		// granularity: the wire carries the message as ceil(n/RCMTU) packets,
		// each protected by an invariant CRC the receiving adapter verifies
		// before DMA, so what lands at the target is always a clean
		// whole-packet prefix — never damaged bytes. A concurrent polling
		// reader (flag waits, signal spins) can therefore observe stale or
		// partially-updated memory, but never garbage.
		pkts := (len(wr.Data) + RCMTU - 1) / RCMTU
		// Torn write: a link fault between packets. The packets already
		// delivered stay visible until the sender's reconnect replays the
		// write; the rest never arrive.
		if n := f.faults.tornWrite(pkts); n > 0 {
			landed := n * RCMTU
			q.obs.Emit(clk.Now(), obs.LayerIB, "fault-torn-write", -1, int64(landed))
			q.obs.Count("ib.fault.torn_write", 1)
			led.Open("rc", "torn-write", rank, destLID, clk.Now())
			dh.memMu.Lock()
			copy(mr.buf[off:off+landed], wr.Data[:landed])
			dh.memMu.Unlock()
			dh.countDelivery(landed)
			if mr.onWrite != nil {
				mr.onWrite(off, landed, arrival)
			}
			errorBoth()
			return ErrTornWrite
		}
		// Payload corruption: the damaged packet fails the ICRC check and is
		// dropped before DMA; the clean packets ahead of it (possibly none)
		// have landed, then the link dies. wr.Data is never touched — the
		// sender retains the pristine payload for replay.
		if prefix, hit := f.faults.rcCorruptWrite(pkts); hit {
			landed := prefix * RCMTU
			q.obs.Emit(clk.Now(), obs.LayerIB, "fault-rc-corrupt", -1, int64(landed))
			q.obs.Count("ib.fault.rc_corrupt", 1)
			led.Open("rc", "rc-corrupt", rank, destLID, clk.Now())
			if landed > 0 {
				dh.memMu.Lock()
				copy(mr.buf[off:off+landed], wr.Data[:landed])
				dh.memMu.Unlock()
				dh.countDelivery(landed)
				if mr.onWrite != nil {
					mr.onWrite(off, landed, arrival)
				}
			}
			errorBoth()
			return ErrRCCorrupt
		}
		dh.memMu.Lock()
		copy(mr.buf[off:], wr.Data)
		dh.memMu.Unlock()
		dh.countDelivery(len(wr.Data))
		if mr.onWrite != nil {
			mr.onWrite(off, len(wr.Data), arrival)
		}
		completeSend(Completion{Status: StatusOK, VTime: arrival + f.model.RCAckLatency})
		led.CloseAll("rc", nil, rank, destLID, arrival+f.model.RCAckLatency, "completed")
		return nil

	case OpRDMARead:
		mr, off, ok := f.resolve(dh, wr.RemoteAddr, wr.RKey, wr.Len)
		if !ok {
			completeSend(Completion{Status: StatusRemoteAccessErr, VTime: depart + f.model.RCSendLatency})
			return nil
		}
		// Injected corruption of the read response: no usable data reaches
		// the requester; the link-CRC failure kills the connection and the
		// requester re-issues the read after reconnect. Target memory is
		// untouched — reads have no remote side effect to tear.
		if f.faults.rcCorruptHit() {
			q.obs.Emit(clk.Now(), obs.LayerIB, "fault-rc-corrupt", -1, int64(wr.Len))
			q.obs.Count("ib.fault.rc_corrupt", 1)
			led.Open("rc", "rc-corrupt", rank, destLID, clk.Now())
			dh.mu.Lock()
			dq := dh.qpLocked(q.remote.QPN)
			dh.mu.Unlock()
			q.ToError()
			if dq != nil && dq.typ == RC {
				dq.ToError()
			}
			return ErrRCCorrupt
		}
		if mr.bounced {
			clk.Advance(f.model.IntraXferTime(wr.Len)) // stage through the slab
		}
		req := f.oneWay(q.hca, dh, f.model.RCSendLatency, 0)
		data := make([]byte, wr.Len)
		dh.memMu.Lock()
		copy(data, mr.buf[off:off+wr.Len])
		dh.memMu.Unlock()
		resp := f.oneWay(dh, q.hca, f.model.RCSendLatency, wr.Len)
		dh.countDelivery(wr.Len)
		completeSend(Completion{Status: StatusOK, Data: data, VTime: depart + req + resp})
		led.CloseAll("rc", nil, rank, destLID, depart+req+resp, "completed")
		return nil

	case OpFetchAdd, OpCmpSwap, OpSwap:
		mr, off, ok := f.resolve(dh, wr.RemoteAddr, wr.RKey, 8)
		if !ok {
			completeSend(Completion{Status: StatusRemoteAccessErr, VTime: depart + f.model.RCSendLatency})
			return nil
		}
		if wr.RemoteAddr%8 != 0 {
			return ErrUnaligned
		}
		if mr.bounced {
			clk.Advance(f.model.IntraXferTime(8)) // stage through the slab
		}
		req := f.oneWay(q.hca, dh, f.model.RCSendLatency, 8)
		dh.memMu.Lock()
		old := leU64(mr.buf[off : off+8])
		switch wr.Op {
		case OpFetchAdd:
			putLeU64(mr.buf[off:off+8], old+wr.Add)
		case OpCmpSwap:
			if old == wr.Compare {
				putLeU64(mr.buf[off:off+8], wr.Swap)
			}
		case OpSwap:
			putLeU64(mr.buf[off:off+8], wr.Swap)
		}
		dh.memMu.Unlock()
		arrival := depart + req + f.model.AtomicLatency
		dh.countDelivery(8)
		if mr.onWrite != nil {
			mr.onWrite(off, 8, arrival)
		}
		resp := f.oneWay(dh, q.hca, f.model.RCSendLatency, 8)
		completeSend(Completion{Status: StatusOK, Old: old, VTime: arrival + resp})
		led.CloseAll("rc", nil, rank, destLID, arrival+resp, "completed")
		return nil
	}
	return ErrOpUnsupported
}

// resolve validates an (rkey, addr, len) triple against the target adapter's
// memory-region table and returns the region and byte offset.
func (f *Fabric) resolve(dh *HCA, addr uint64, rkey uint32, n int) (*MR, int, bool) {
	mr := dh.lookupMR(rkey)
	if mr == nil || mr.dead || n < 0 {
		return nil, 0, false
	}
	if addr < mr.base || addr+uint64(n) > mr.base+uint64(len(mr.buf)) {
		return nil, 0, false
	}
	return mr, int(addr - mr.base), true
}
