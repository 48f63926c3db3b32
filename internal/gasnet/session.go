package gasnet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"goshmem/internal/ib"
	"goshmem/internal/vclock"
)

// Data-plane session layer: end-to-end integrity and exactly-once effects for
// RC payloads. Armed only on lossy fabrics (Fabric.Lossy) — a fault-free run
// never frames, retains, ACKs or dedups anything, so its traffic and traces
// stay byte-identical.
//
// Sender side: every two-sided RC send is framed with the integrity trailer
// (integrity.go) under a per-pair monotone sequence and retained until the
// receiver's cumulative ACK covers it. Retained frames are replayed — original
// bytes, original sequence numbers — on NAK, on timeout, and first thing
// after every reconnect, so a transfer the old connection damaged or tore is
// always overwritten by a clean copy. Quiet blocks until the retained window
// is empty, which is what turns "replayed eventually" into the OpenSHMEM
// ordering guarantee.
//
// Receiver side: conn.rxMax is the dedup ledger — the highest in-order
// sequence executed from the peer. Exactly the next sequence is admitted;
// duplicates (a replay whose original did land, because only the ACK was the
// casualty) are re-acknowledged without re-execution; corrupt frames and gaps
// are NAKed before any byte becomes visible to a handler. The ledger survives
// reconnect by riding the handshake payload, so non-idempotent operations —
// atomics, signal AMs, collective contributions — apply exactly once across
// any number of connection teardowns.
//
// One-sided RDMA cannot carry a software trailer; its payload faults surface
// as typed link faults (ib.ErrTornWrite, ib.ErrRCCorrupt) after the damage
// lands, and recovery is the existing pending-replay reconnect: the failed
// work request stays queued (its Quiet hold intact) and the replacement
// connection re-executes it, overwriting the torn prefix.

// Reserved active-message handler ids for the conduit's own session traffic.
// RegisterHandler refuses them; upper layers use 1..253.
const (
	amAtomicReq uint8 = 254
	amAtomicRep uint8 = 255
)

// retainedTx is one framed send awaiting cumulative acknowledgement. data is
// the framed bytes exactly as posted and is treated as immutable.
type retainedTx struct {
	seq  uint64
	data []byte
}

// atomicResult is the reply to a framed atomic (atomicOverAM).
type atomicResult struct {
	old uint64
	ok  bool
	at  int64
}

// mapQPLocked records the local RC queue pair serving peer, so an inbound
// framed payload can be attributed to its sender without trusting the frame's
// content (a corrupt frame's source field is garbage; the QP it arrived on is
// not). Queue-pair numbers are never reused, so stale entries are harmless.
// Caller holds connMu.
func (c *Conduit) mapQPLocked(qp *ib.QP, peer int) {
	if c.lossy && qp != nil {
		c.qpPeer[qp.QPN()] = peer
	}
}

// postFramedLocked frames wr's payload with the integrity trailer under the
// next transfer sequence and posts it on clk, retaining the framed bytes
// until the peer's cumulative ACK covers them. Posting under connMu keeps
// wire order equal to sequence order (flushLocked posts under connMu for the
// same reason). A failed post rolls the sequence back — an errored RC send
// delivers nothing, so the number is safe to reuse on the retry.
func (c *Conduit) postFramedLocked(cn *conn, wr ib.SendWR, clk *vclock.Clock) error {
	cn.txSeq++
	framed := appendRCTrailer(wr.Data, cn.txSeq, uint32(cn.seq))
	wr.Data = framed
	wr.Clk = clk
	if err := c.postRNR(cn.qp, wr); err != nil {
		cn.txSeq--
		return err
	}
	cn.unacked = append(cn.unacked, retainedTx{seq: cn.txSeq, data: framed})
	cn.lastData = clk.Now()
	c.gRetFrames.Add(clk.Now(), 1)
	c.gRetBytes.Add(clk.Now(), int64(len(framed)))
	c.outMu.Lock()
	c.unackedWin++
	c.outMu.Unlock()
	c.armForLocked(cn)
	return nil
}

// trimAckedLocked releases retained frames up to and including the peer's
// cumulative sequence and wakes Quiet waiters. Cumulative ACKs are monotone,
// so a stale (duplicated or reordered) acknowledgement trims nothing. vt is
// the acknowledgement's virtual arrival time, stamping the retained-window
// gauge release. Caller holds connMu.
func (c *Conduit) trimAckedLocked(cn *conn, seq uint64, vt int64) {
	i := 0
	var bytes int64
	for i < len(cn.unacked) && cn.unacked[i].seq <= seq {
		bytes += int64(len(cn.unacked[i].data))
		i++
	}
	if i == 0 {
		return
	}
	c.gRetFrames.Add(vt, int64(-i))
	c.gRetBytes.Add(vt, -bytes)
	cn.unacked = append(cn.unacked[:0], cn.unacked[i:]...)
	c.outMu.Lock()
	c.unackedWin -= i
	c.outMu.Unlock()
	c.outCond.Broadcast()
	if len(cn.unacked) == 0 {
		c.connCond.Broadcast() // Close drains on this
	}
}

// dropUnackedLocked discards a dead peer's retained frames so Quiet cannot
// wait forever on acknowledgements that will never come. Caller holds connMu.
func (c *Conduit) dropUnackedLocked(cn *conn, vt int64) {
	n := len(cn.unacked)
	if n == 0 {
		return
	}
	var bytes int64
	for _, tx := range cn.unacked {
		bytes += int64(len(tx.data))
	}
	c.gRetFrames.Add(vt, int64(-n))
	c.gRetBytes.Add(vt, -bytes)
	cn.unacked = nil
	c.outMu.Lock()
	c.unackedWin -= n
	c.outMu.Unlock()
	c.outCond.Broadcast()
	c.connCond.Broadcast()
}

// resendUnackedLocked re-posts every retained frame, in sequence order, on
// the given clock: original bytes, original numbers, no send completion (the
// original post already carries any Quiet hold). The receiver's ledger
// suppresses whatever it already executed. A link fault mid-replay tears the
// connection down and restarts the handshake — the frames stay retained for
// the post-reconnect flush; they are released only by acknowledgement.
// Returns false on a teardown. Caller holds connMu.
func (c *Conduit) resendUnackedLocked(cn *conn, peer int, clk *vclock.Clock) bool {
	sent := 0
	ok := true
	for i := 0; i < len(cn.unacked); i++ {
		wr := ib.SendWR{Op: ib.OpSend, Data: cn.unacked[i].data, Clk: clk, NoSendCompletion: true}
		err := c.postRNR(cn.qp, wr)
		if err != nil && errors.Is(err, ib.ErrPathDown) && c.tryMigrateLocked(cn, peer, clk.Now()) {
			// Primary rail died mid-replay; APM swapped to the live alternate
			// without leaving RTS, so replay the same frame there.
			i--
			continue
		}
		if err != nil {
			if isLinkFault(err) {
				c.linkFaultLocked(cn, peer, cn.epoch, err, true, c.mgrClk)
				ok = false
			}
			// A path-down with no live alternate breaks the replay WITHOUT a
			// teardown: both queue pairs are healthy, the frames stay
			// retained, and the next timeout — put off to the partition's
			// scheduled heal — replays them.
			break
		}
		sent++
	}
	if sent > 0 {
		c.statMu.Lock()
		c.stats.IntegrityRetransmits += sent
		c.statMu.Unlock()
		c.led.Act("rc", c.cfg.Rank, clk.Now(), "integrity-retransmit")
	}
	return ok
}

// sessionAccept verifies and dedups one framed RC payload on the receive
// path. It returns the inner frame and whether it should be dispatched; every
// outcome is acknowledged (ACK for in-order and duplicate frames, NAK for
// corruption and gaps) so the sender's retained window drains.
func (c *Conduit) sessionAccept(comp ib.Completion) ([]byte, bool) {
	c.connMu.Lock()
	peer, known := c.qpPeer[comp.QPN]
	if !known {
		c.connMu.Unlock()
		return nil, false
	}
	cn := c.conns.getOrCreate(peer)
	cn.quiet = 0
	inner, seq, _, ok := splitRCTrailer(comp.Data)
	var (
		accept bool
		kind   uint8
		ackSeq uint64
		evt    string
	)
	switch {
	case !ok:
		// Trailer checksum failed: nothing in the frame is trustworthy, not
		// even its sequence. Count it and NAK our cumulative position.
		kind, ackSeq, evt = msgDataNak, cn.rxMax, "rc-corrupt"
		c.statMu.Lock()
		c.stats.RCCorruptFrames++
		c.statMu.Unlock()
	case seq == cn.rxMax+1:
		cn.rxMax = seq
		kind, ackSeq, accept = msgDataAck, seq, true
	case seq <= cn.rxMax:
		// Duplicate: the original executed but its ACK was the casualty (or
		// the replay raced the ACK). Re-acknowledge without re-executing —
		// this is the exactly-once guarantee for non-idempotent payloads.
		kind, ackSeq, evt = msgDataAck, cn.rxMax, "dup-suppressed"
		c.statMu.Lock()
		c.stats.DupOpsSuppressed++
		c.statMu.Unlock()
	default:
		// Sequence gap: an earlier frame died with its connection. NAK so the
		// sender replays from our position; this frame is dropped and will be
		// re-delivered in order.
		kind, ackSeq = msgDataNak, cn.rxMax
	}
	c.connMu.Unlock()
	if evt != "" {
		c.event(evt, peer, comp.VTime)
	}
	if evt == "rc-corrupt" {
		// Detection moment for the sender's rc-corrupt incident: our trailer
		// check caught the damage and the NAK below starts the replay.
		c.led.Detect("rc", peer, comp.VTime, "nak-sent")
	}
	c.sendDataCtl(peer, kind, ackSeq, comp.VTime)
	return inner, accept
}

// sendDataCtl sends a data-plane ACK/NAK on a detached clock — session
// acknowledgements are background control traffic and must not advance the
// receiver's virtual clock. An unresolved peer is skipped (TryLock semantics,
// like the heartbeat prober); the sender's timeout replay recovers.
func (c *Conduit) sendDataCtl(peer int, kind uint8, seq uint64, vt int64) {
	ud, err := c.resolveUDOpt(peer, false)
	if err != nil {
		return
	}
	m := connMsg{Kind: kind, SrcRank: int32(c.cfg.Rank), UD: c.udQP.Addr(),
		Payload: encodeSeqPayload(seq)}
	c.sendControl(peer, ud, m, vclock.NewClock(vt))
}

// handleDataProbe answers a sender's window probe (retransScan): re-advertise
// our cumulative data sequence so a sender whose connection was torn down can
// trim frames whose acknowledgements were lost — without either side spending
// queue-pair budget on a reconnect. A peer we have no state for gets sequence
// zero: we executed nothing, and the sender's replay reconnect takes over.
func (c *Conduit) handleDataProbe(peer int, svc *vclock.Clock) {
	if !c.lossy {
		return
	}
	var rx uint64
	c.connMu.Lock()
	if cn := c.conns.get(peer); cn != nil {
		rx = cn.rxMax
	}
	c.connMu.Unlock()
	c.sendDataCtl(peer, msgDataAck, rx, svc.Now())
}

// handleDataAck processes a data-plane ACK or NAK from peer: release every
// retained frame the cumulative sequence covers and, on a NAK against a live
// connection, replay the remainder immediately. An acknowledgement that
// leaves frames retained on a torn-down connection proves the peer never
// executed them — the data itself was the casualty, not the ACK — so this is
// the one place a reconnect is started purely for replay. It is demand-driven
// and bounded: probes fire on the sender's timeout and each reply can start at
// most one handshake.
func (c *Conduit) handleDataAck(peer int, payload []byte, nak bool, svc *vclock.Clock) {
	seq, ok := decodeSeqPayload(payload)
	if !ok {
		return
	}
	reinit := false
	c.connMu.Lock()
	cn := c.conns.get(peer)
	if cn == nil {
		c.connMu.Unlock()
		return
	}
	cn.quiet = 0
	c.trimAckedLocked(cn, seq, svc.Now())
	switch {
	case nak && cn.state == connReady && len(cn.unacked) > 0:
		c.resendUnackedLocked(cn, peer, svc)
	case cn.state == connNone && len(cn.unacked) > 0 && len(cn.pending) == 0:
		reinit = true
	}
	c.armForLocked(cn)
	c.connMu.Unlock()
	if reinit {
		c.sched.Go(func() { c.initiate(peer) })
	}
}

// noteDataFault classifies a link-fault error from a data-plane post: torn
// writes and corrupted payloads are link faults whose damage already landed
// at the target, counted so chaos runs can prove the overwrite-on-replay
// recovery actually fired.
func (c *Conduit) noteDataFault(err error) {
	switch {
	case errors.Is(err, ib.ErrTornWrite):
		c.statMu.Lock()
		c.stats.TornWrites++
		c.statMu.Unlock()
		c.event("torn-write", -1, c.clk.Now())
		c.led.Detect("rc", c.cfg.Rank, c.clk.Now(), "torn-write-detected")
	case errors.Is(err, ib.ErrRCCorrupt):
		c.statMu.Lock()
		c.stats.RCCorruptFrames++
		c.statMu.Unlock()
		c.event("rc-corrupt", -1, c.clk.Now())
		c.led.Detect("rc", c.cfg.Rank, c.clk.Now(), "icrc-drop")
	}
}

// connPayloadLocked builds the handshake payload for peer: on a lossy fabric
// the receiver's cumulative data sequence is prefixed ([rxMax u64]) ahead of
// the upper layer's payload, so a reconnect re-seeds the sender's
// retransmission point and the dedup ledger survives the new connection.
// Caller holds connMu.
func (c *Conduit) connPayloadLocked(peer int) []byte {
	user := c.payload()
	if !c.lossy {
		return user
	}
	var rx uint64
	if cn := c.conns.get(peer); cn != nil {
		rx = cn.rxMax
	}
	out := make([]byte, 8+len(user))
	binary.LittleEndian.PutUint64(out, rx)
	copy(out[8:], user)
	return out
}

// stripSessionPayloadLocked consumes the rxMax prefix from a lossy handshake
// payload — trimming our retained frames the peer has already executed — and
// returns the upper layer's portion. The trim runs on every REQ/REP (not just
// the first), since cumulative sequences make stale prefixes harmless. Caller
// holds connMu.
func (c *Conduit) stripSessionPayloadLocked(cn *conn, payload []byte, vt int64) []byte {
	if !c.lossy {
		return payload
	}
	if len(payload) < 8 {
		return nil
	}
	c.trimAckedLocked(cn, binary.LittleEndian.Uint64(payload), vt)
	return payload[8:]
}

// atomicOverAM executes a fetching atomic as a framed active-message round
// trip so the receiver's dedup ledger guards it: if the request is replayed
// after a reconnect, the duplicate is suppressed and the read-modify-write
// applies exactly once. Lossy fabrics only — the fault-free path keeps the
// one-round-trip fabric-level atomic.
func (c *Conduit) atomicOverAM(peer int, wr ib.SendWR) (uint64, error) {
	ch := make(chan atomicResult, 1)
	c.atomicMu.Lock()
	c.atomicTok++
	tok := c.atomicTok
	c.atomicWait[tok] = ch
	c.atomicMu.Unlock()
	a1 := wr.Add
	if wr.Op == ib.OpCmpSwap {
		a1 = wr.Compare
	}
	payload := make([]byte, 12)
	binary.LittleEndian.PutUint32(payload, wr.RKey)
	binary.LittleEndian.PutUint64(payload[4:], tok)
	data := encodeAM(amAtomicReq, c.cfg.Rank, [4]uint64{wr.RemoteAddr, a1, wr.Swap, uint64(wr.Op)}, payload)
	if err := c.post(peer, ib.SendWR{Op: ib.OpSend, Data: data, NoSendCompletion: true}, false); err != nil {
		c.atomicMu.Lock()
		delete(c.atomicWait, tok)
		c.atomicMu.Unlock()
		return 0, err
	}
	c.sched.Park() // whoever takes our entry out of c.atomicWait unparks us
	select {
	case r := <-ch:
		c.clk.AdvanceTo(r.at)
		if !r.ok {
			return 0, fmt.Errorf("gasnet: remote operation failed: %v", ib.StatusRemoteAccessErr)
		}
		return r.old, nil
	case <-c.abortCh:
		c.atomicMu.Lock()
		_, mine := c.atomicWait[tok]
		delete(c.atomicWait, tok)
		c.atomicMu.Unlock()
		if mine {
			c.sched.Unpark(1)
		}
		return 0, c.Err()
	}
}

// handleAtomicReq executes a framed atomic against this PE's registered
// memory and replies. It runs on the progress goroutine behind the dedup
// ledger, so a replayed request never reaches the memory twice; the reply
// itself rides a framed send and is deduped at the requester the same way.
func (c *Conduit) handleAtomicReq(src int, args [4]uint64, payload []byte, at int64) {
	if len(payload) < 12 {
		return
	}
	rkey := binary.LittleEndian.Uint32(payload)
	tok := binary.LittleEndian.Uint64(payload[4:])
	op := ib.Opcode(args[3])
	var add, compare uint64
	switch op {
	case ib.OpFetchAdd:
		add = args[1]
	case ib.OpCmpSwap:
		compare = args[1]
	}
	old, ok := c.cfg.HCA.AtomicRMW(op, args[0], rkey, add, compare, args[2], at)
	okU := uint64(0)
	if ok {
		okU = 1
	}
	rep := encodeAM(amAtomicRep, c.cfg.Rank, [4]uint64{tok, old, okU, 0}, nil)
	c.post(src, ib.SendWR{Op: ib.OpSend, Data: rep, NoSendCompletion: true}, false)
}

// handleAtomicRep completes a framed atomic: wake the issuer blocked in
// atomicOverAM. A reply whose waiter is gone (the issuer aborted) is dropped.
func (c *Conduit) handleAtomicRep(src int, args [4]uint64, payload []byte, at int64) {
	c.atomicMu.Lock()
	ch := c.atomicWait[args[0]]
	delete(c.atomicWait, args[0])
	c.atomicMu.Unlock()
	if ch != nil {
		c.sched.Unpark(1)
		ch <- atomicResult{old: args[1], ok: args[2] != 0, at: at}
	}
}
