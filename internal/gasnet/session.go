package gasnet

import (
	"encoding/binary"
	"errors"

	"goshmem/internal/ib"
	"goshmem/internal/vclock"
)

// Data-plane session layer: end-to-end integrity and exactly-once effects for
// RC payloads. Armed only on lossy fabrics (Fabric.Lossy) — a fault-free run
// never frames, retains, ACKs or dedups anything, so its traffic and traces
// stay byte-identical. The rules are the session value below, and beside it
// the receive-credit window of the resource plane (finite receive queues
// only); the Conduit methods after them are lock-holding shells that apply a
// value's answer: gauges, counters, the incident ledger, Quiet's window count.
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
// Receiver side: session.rxMax is the dedup ledger — the highest in-order
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

// Reserved active-message handler ids for the conduit's own session traffic:
// the last two slots of the 16-slot handler table. RegisterHandler and the
// AM send calls refuse them; upper layers use 0..13 (OpenSHMEM 1..4, MPI 5,
// which share a conduit in an OpenSHMEM+MPI job).
const (
	amAtomicReq uint8 = 14
	amAtomicRep uint8 = 15
)

// session is the data-plane session with one peer, as a value: it owns no
// lock, clock, queue pair or conduit, so its rules can be explored
// exhaustively (session_test.go) the way fsm_test.go explores the
// handshake's. A conn has one only on a lossy fabric. It is deliberately not
// reset by a teardown: sequences, retained frames and the dedup ledger span
// connection incarnations — that continuity is the whole point.
type session struct {
	txSeq    uint64 // last transfer sequence framed to the peer
	rxMax    uint64 // the dedup ledger: highest in-order sequence executed from the peer
	lastData int64  // virtual time of the last framed post or replay (the timeout's baseline)
	// unacked are the framed sends awaiting cumulative ACK, oldest first,
	// exactly as posted (immutable): sequences txSeq-len+1 .. txSeq.
	unacked [][]byte
}

// retained is the number of frames awaiting acknowledgement (nil-safe: a
// lossless connection retains nothing).
func (s *session) retained() int {
	if s == nil {
		return 0
	}
	return len(s.unacked)
}

// frame returns payload framed with the integrity trailer under the next
// transfer sequence. Nothing is committed until sent: an errored RC send
// delivers nothing, so a failed post simply leaves the number for the retry.
func (s *session) frame(payload []byte, epoch uint32) []byte {
	return appendRCTrailer(payload, s.txSeq+1, epoch)
}

// sent commits the frame the last frame call built, posted at now: it is
// retained until the peer's cumulative acknowledgement covers it.
func (s *session) sent(framed []byte, now int64) {
	s.txSeq++
	s.unacked = append(s.unacked, framed)
	s.lastData = now
}

// verdict is what the receive side makes of one frame.
type verdict uint8

const (
	inOrder   verdict = iota // exactly the next sequence: execute it
	duplicate                // already executed (its ACK was the casualty, or a replay raced it): never again
	gap                      // an earlier frame died with its connection: the sender must replay from ack
	corrupt                  // the trailer check failed: nothing in the frame is trustworthy, not even its sequence
)

// accept verifies and dedups one received frame. Every verdict is answered
// with ack, our cumulative position — an ACK for in-order and duplicate
// frames, a NAK for gaps and corruption — so the sender's window drains.
func (s *session) accept(framed []byte) (inner []byte, v verdict, ack uint64) {
	inner, seq, _, ok := splitRCTrailer(framed)
	switch {
	case !ok:
		v = corrupt
	case seq == s.rxMax+1:
		s.rxMax = seq
	case seq <= s.rxMax:
		v = duplicate
	default:
		v = gap
	}
	return inner, v, s.rxMax
}

// acked releases the retained frames up to and including the peer's
// cumulative sequence, reporting how many frames and bytes went. Cumulative
// ACKs are monotone, so a stale (duplicated or reordered) one releases
// nothing.
func (s *session) acked(seq uint64) (frames int, bytes int64) {
	first := s.txSeq - uint64(len(s.unacked)) + 1 // the sequence unacked[0] carries
	for frames < len(s.unacked) && first+uint64(frames) <= seq {
		bytes += int64(len(s.unacked[frames]))
		frames++
	}
	rest := copy(s.unacked, s.unacked[frames:])
	clear(s.unacked[rest:]) // the released frames are garbage now, not slack
	s.unacked = s.unacked[:rest]
	return frames, bytes
}

// creditWindow is the sender's mirror of the peer's finite receive queue, as
// a value: the virtual times at which the messages in flight give their
// receive slots back (arrival plus the receive-queue drain time — a
// conservative estimate; the receiver's RNR NAK remains the ground truth when
// it runs early). Sorted: RC sends on one connection depart in order. A conn
// has one only when the adapter's receive queues are finite (Limits.RQDepth).
type creditWindow struct {
	rel []int64
}

// take admits one message to a window of depth slots: it departs at now, or —
// the window shut — one retry delay after the oldest message in flight gives
// its slot back, and holds its own slot for cost after that. A well-behaved
// sender so stalls locally instead of eating NAK round trips.
func (w *creditWindow) take(now int64, depth int, cost, retry int64) (depart int64, stalled bool) {
	depart = now
	if len(w.rel) >= depth && w.rel[0] > now {
		depart, stalled = w.rel[0]+retry, true
	}
	free := 0
	for free < len(w.rel) && w.rel[free] <= depart {
		free++
	}
	rest := copy(w.rel, w.rel[free:])
	w.rel = append(w.rel[:rest], depart+cost)
	return depart, stalled
}

// reset empties the window (nil-safe: unbounded receive queues have none).
func (w *creditWindow) reset() {
	if w != nil {
		w.rel = w.rel[:0]
	}
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

// trimAckedLocked applies a cumulative acknowledgement that arrived at vt —
// or, with seq at its maximum, gives up on a dead peer's window so Quiet does
// not wait on a ghost — and wakes whoever waits on the window: Quiet, and
// Close once it is empty. Caller holds connMu.
func (c *Conduit) trimAckedLocked(cn *conn, seq uint64, vt int64) {
	if cn.sess.retained() == 0 {
		return
	}
	frames, bytes := cn.sess.acked(seq)
	if frames == 0 {
		return
	}
	c.gRetFrames.Add(vt, int64(-frames))
	c.gRetBytes.Add(vt, -bytes)
	c.done.mu.Lock()
	c.done.unacked -= frames
	c.done.mu.Unlock()
	c.done.cond.Broadcast()
	if cn.sess.retained() == 0 {
		c.connCond.Broadcast()
	}
}

// sessionAccept runs one framed RC payload through its sender's session on
// the receive path and answers it. It returns the inner frame and whether to
// dispatch it.
func (c *Conduit) sessionAccept(comp ib.Completion) ([]byte, bool) {
	c.connMu.Lock()
	peer, known := c.qpPeer[comp.QPN]
	if !known {
		c.connMu.Unlock()
		return nil, false
	}
	cn := c.conns.getOrCreate(peer)
	cn.quiet = 0
	inner, v, ack := cn.sess.accept(comp.Data)
	kind := msgDataAck
	switch v {
	case corrupt:
		kind = msgDataNak
		c.stats.RCCorruptFrames++
		c.event("rc-corrupt", peer, comp.VTime)
		// Detection moment for the sender's rc-corrupt incident: our trailer
		// check caught the damage and the NAK below starts the replay.
		c.led.Detect("rc", peer, comp.VTime, "nak-sent")
	case duplicate:
		// Re-acknowledged, never re-executed: the exactly-once guarantee for
		// non-idempotent payloads.
		c.stats.DupOpsSuppressed++
		c.event("dup-suppressed", peer, comp.VTime)
	case gap:
		kind = msgDataNak
	}
	c.connMu.Unlock()
	c.sendDataCtl(peer, kind, ack, comp.VTime)
	return inner, v == inOrder
}

// sendDataCtl sends a data-plane ACK/NAK on a detached clock — session
// acknowledgements are background control traffic and must not advance the
// receiver's virtual clock. A peer whose endpoint is still unresolved is
// skipped, like the heartbeat prober's; the sender's timeout replay recovers.
func (c *Conduit) sendDataCtl(peer int, kind uint8, seq uint64, vt int64) {
	ud, err := c.resolveUDOpt(peer, false)
	if err != nil {
		return
	}
	m := connMsg{Kind: kind, SrcRank: int32(c.cfg.Rank), UD: c.udQP.Addr(),
		Payload: encodeSeqPayload(seq)}
	c.sendControl(peer, ud, m, vclock.NewClock(vt))
}

// handleDataAck processes a data-plane ACK or NAK from peer: release every
// retained frame the cumulative sequence covers and, on a NAK against a live
// connection, replay the remainder immediately. Frames still retained on a
// torn-down connection wait for the timeout, which reconnects for the replay.
func (c *Conduit) handleDataAck(peer int, payload []byte, nak bool, svc *vclock.Clock) {
	seq, ok := decodeSeqPayload(payload)
	if !ok {
		return
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	cn := c.conns.get(peer)
	if cn == nil {
		return
	}
	cn.quiet = 0
	c.trimAckedLocked(cn, seq, svc.Now())
	if nak && cn.state == connReady {
		c.replayLocked(cn, peer, svc)
	}
	c.armForLocked(cn)
}

// noteDataFault classifies a link-fault error from a data-plane post: torn
// writes and corrupted payloads are link faults whose damage already landed
// at the target, counted so chaos runs can prove the overwrite-on-replay
// recovery actually fired. Caller holds connMu.
func (c *Conduit) noteDataFault(err error) {
	switch {
	case errors.Is(err, ib.ErrTornWrite):
		c.stats.TornWrites++
		c.event("torn-write", -1, c.clk.Now())
		c.led.Detect("rc", c.cfg.Rank, c.clk.Now(), "torn-write-detected")
	case errors.Is(err, ib.ErrRCCorrupt):
		c.stats.RCCorruptFrames++
		c.event("rc-corrupt", -1, c.clk.Now())
		c.led.Detect("rc", c.cfg.Rank, c.clk.Now(), "icrc-drop")
	}
}

// connPayloadLocked builds the handshake payload for cn's peer: on a lossy
// fabric our cumulative data sequence is prefixed ([rxMax u64]) ahead of the
// upper layer's payload, so a reconnect re-seeds the sender's retransmission
// point and the dedup ledger survives the new connection. Caller holds connMu.
func (c *Conduit) connPayloadLocked(cn *conn) []byte {
	user := c.payload()
	if cn.sess == nil {
		return user
	}
	out := make([]byte, 8+len(user))
	binary.LittleEndian.PutUint64(out, cn.sess.rxMax)
	copy(out[8:], user)
	return out
}

// stripSessionPayloadLocked consumes the rxMax prefix from a lossy handshake
// payload — trimming our retained frames the peer has already executed — and
// returns the upper layer's portion. The trim runs on every REQ/REP (not just
// the first), since cumulative sequences make stale prefixes harmless. Caller
// holds connMu.
func (c *Conduit) stripSessionPayloadLocked(cn *conn, payload []byte, vt int64) []byte {
	if cn.sess == nil {
		return payload
	}
	if len(payload) < 8 {
		return nil
	}
	c.trimAckedLocked(cn, binary.LittleEndian.Uint64(payload), vt)
	return payload[8:]
}

// atomicOverAM turns a fetching atomic into a framed active-message round
// trip so the receiver's dedup ledger guards it: if the request is replayed
// after a reconnect, the duplicate is suppressed and the read-modify-write
// applies exactly once. Lossy fabrics only — the fault-free path keeps the
// one-round-trip fabric-level atomic. The request carries the atomic's WRID as
// its token, and the reply (handleAtomicRep) completes it where a fabric-level
// completion would have.
func (c *Conduit) atomicOverAM(wr ib.SendWR) ib.SendWR {
	a1 := wr.Add
	if wr.Op == ib.OpCmpSwap {
		a1 = wr.Compare
	}
	payload := make([]byte, 12)
	binary.LittleEndian.PutUint32(payload, wr.RKey)
	binary.LittleEndian.PutUint64(payload[4:], wr.WRID)
	data := encodeAM(amAtomicReq, c.cfg.Rank, [4]uint64{wr.RemoteAddr, a1, wr.Swap, uint64(wr.Op)}, payload)
	return ib.SendWR{Op: ib.OpSend, WRID: wr.WRID, Data: data, NoSendCompletion: true}
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
	status := ib.StatusOK
	if !ok {
		status = ib.StatusRemoteAccessErr
	}
	rep := encodeAM(amAtomicRep, c.cfg.Rank, [4]uint64{tok, old, uint64(status), 0}, nil)
	c.post(src, ib.SendWR{Op: ib.OpSend, Data: rep, NoSendCompletion: true}, false)
}

// handleAtomicRep completes a framed atomic, as its fabric-level completion
// would have.
func (c *Conduit) handleAtomicRep(src int, args [4]uint64, payload []byte, at int64) {
	c.complete(args[0], ib.Completion{Old: args[1], Status: ib.Status(args[2]), VTime: at}, nil)
}
