package gasnet

import (
	"errors"
	"fmt"

	"goshmem/internal/ib"
	"goshmem/internal/vclock"
)

// The send path. The paper's mechanism is "queue the operation behind the
// handshake, flush it when the connection is ready", and its point-to-point
// claim rests on a queued operation and a direct one being the same
// operation. So there is one way onto the wire: every RC work request —
// posted by its issuer on a ready connection (post), flushed from behind a
// handshake (flushLocked) or replayed from a retained window (replayLocked) —
// reaches its queue pair through transmit, and those three differ only in
// where the work request comes from and what becomes of it when the
// connection dies.

// wrSource says where a work request handed to transmit comes from.
type wrSource uint8

const (
	fromIssuer wrSource = iota // post: the issuer is on the stack, and retries in its own loop
	fromQueue                  // flushLocked: the unposted remainder stays queued behind the slot
	fromWindow                 // replayLocked: framed and retained already, and stays so
)

// connDied reports whether a post failed because the connection died
// underneath it — the queue pair (link flap, peer teardown, local eviction) or
// the last path loaded into it — which the connection manager recovers from by
// re-running the handshake. Any other error is the work request's own and
// fails it for good.
func connDied(err error) bool {
	return err != nil && (errors.Is(err, ib.ErrLinkDown) || errors.Is(err, ib.ErrBadState) || errors.Is(err, ib.ErrPathDown))
}

// transmit posts one work request on cn's ready connection, on clk, and is
// the only way there: it stamps the connection's use, takes the send's receive
// credit, frames it into the session, absorbs receiver-not-ready NAKs,
// migrates to the alternate path in place — once — when the primary fails, and
// on a dead connection (connDied) runs the link-fault epilogue, which leaves
// the slot recovering: restarting its own handshake, unless the issuer's loop
// is there to do it. A torn RDMA write lands a clean prefix first; the
// re-execution overwrites it before the operation ever completes, so Quiet
// never observes it.
//
// Caller holds connMu. A direct transmit (fromIssuer) returns with it
// released — before the post when nothing in it needs the lock's ordering:
// framing keeps wire order equal to sequence order, a send against a finite
// receive queue may be NAKed (postRNR counts under the lock), and a post on a
// side clock (post: sendVT) moves the connection's send-queue time.
func (c *Conduit) transmit(cn *conn, peer int, wr ib.SendWR, clk *vclock.Clock, src wrSource) error {
	qp, epoch := cn.qp, cn.epoch
	c.useSeq++
	cn.lastUse = c.useSeq
	wr.Clk = clk
	send := wr.Op == ib.OpSend
	gated := send && cn.credit != nil
	if gated {
		c.creditGateLocked(cn, len(wr.Data), clk)
	}
	framed := send && cn.sess != nil
	fresh := framed && src != fromWindow // not in the retained window yet
	if fresh {
		// wr.Data is never mutated (the framing copies), so a request that
		// fails here re-runs untouched.
		wr.Data = cn.sess.frame(wr.Data)
	}
	locked := true
	if src == fromIssuer && !framed && !gated && clk == c.clk {
		c.connMu.Unlock()
		locked = false
	}
	err := c.postRNR(qp, wr)
	if connDied(err) {
		if !locked {
			c.connMu.Lock()
			locked = true
		}
		if errors.Is(err, ib.ErrPathDown) && cn.epoch == epoch && cn.state == connReady &&
			c.tryMigrateLocked(cn, peer, clk.Now()) {
			err = c.postRNR(qp, wr)
		}
		if connDied(err) {
			c.linkFaultLocked(cn, peer, epoch, err, src != fromIssuer, clk)
		}
	}
	if err == nil && fresh {
		cn.sess.sent(wr.Data, clk.Now())
		c.gRetFrames.Add(clk.Now(), 1)
		c.gRetBytes.Add(clk.Now(), int64(len(wr.Data)))
		c.done.mu.Lock()
		c.done.unacked++
		c.done.mu.Unlock()
		c.armForLocked(cn)
	}
	if src == fromIssuer && locked {
		if clk != c.clk {
			cn.sendVT = clk.Now()
		}
		c.connMu.Unlock()
	}
	return err
}

// postRNR posts wr on qp, absorbing receiver-not-ready NAKs: each NAK backs
// off exponentially on the work request's clock and retries, modeling the
// HCA's RNR retry timer. The loop terminates because every retry departs
// later, so its arrival eventually passes the oldest release time of the
// receive queue. Other errors return unchanged. Caller holds connMu whenever a
// NAK is possible (transmit).
func (c *Conduit) postRNR(qp *ib.QP, wr ib.SendWR) error {
	for attempt := 0; ; attempt++ {
		err := qp.PostSend(wr)
		if !errors.Is(err, ib.ErrRNR) {
			return err
		}
		c.stats.RNRNaks++
		wr.Clk.Advance(backoff(c.model.RNRRetryDelay, attempt, rnrBackoffMaxShift))
	}
}

// creditGateLocked holds an n-byte send back on clk — in virtual time — until
// cn's credit window admits it. Caller holds connMu.
func (c *Conduit) creditGateLocked(cn *conn, n int, clk *vclock.Clock) {
	cost := c.model.RCSendLatency + c.model.XferTime(n) + c.model.RQDrain
	depart, stalled := cn.credit.take(clk.Now(), c.rqDepth, cost, c.model.RNRRetryDelay)
	clk.AdvanceTo(depart)
	if stalled {
		c.stats.CreditStalls++
	}
	// The gauge fold sorts by virtual time, so the release is recorded now,
	// at the time it is estimated for.
	c.gCredits.Add(depart, 1)
	c.gCredits.Add(depart+cost, -1)
}

// post sends a work request to peer, establishing the connection on demand.
// If the connection is still being established the request is queued and
// flushed, in order, the moment the connection is ready. clonePending makes
// a private copy of wr.Data when queueing (callers that hand over ownership
// of the buffer, such as AMRequest, pass false). A request whose connection
// dies underneath it is re-run behind the replacement handshake; one that is
// refused for good will never complete, so its entry in the completion table
// (if it has one) is completed here, with the error its issuer gets.
func (c *Conduit) post(peer int, wr ib.SendWR, clonePending bool) (err error) {
	defer func() {
		if err != nil {
			c.complete(wr.WRID, ib.Completion{}, err)
		}
	}()
	if peer < 0 || peer >= c.cfg.NProcs {
		return fmt.Errorf("gasnet: peer %d out of range [0,%d)", peer, c.cfg.NProcs)
	}
	for {
		c.connMu.Lock()
		cn := c.conns.getOrCreate(peer)
		if cn.dead {
			c.connMu.Unlock()
			return ErrPeerDead
		}
		cn.contacted = true
		switch cn.state {
		case connReady:
			// The caller's clock may still be behind the connection (it kept
			// running while the manager thread finished the handshake, or it
			// is the server side and never waited at all). Such a post departs
			// from the connection's send-queue time on a side clock, exactly
			// as if it had been queued behind the handshake — which of the two
			// it was is a race between goroutines and must not show.
			clk := c.clk
			if cn.sendVT != 0 {
				if clk.Now() < cn.sendVT {
					clk = vclock.NewClock(cn.sendVT)
				} else {
					cn.sendVT = 0 // the caller has caught up for good: clocks are monotone
				}
			}
			if err := c.transmit(cn, peer, wr, clk, fromIssuer); !connDied(err) {
				return err
			}
			// Loop: the slot is connNone now (or another poster already
			// restarted the handshake); re-run this request.
		case connConnecting, connAccepted:
			if clonePending && wr.Data != nil {
				wr.Data = append([]byte(nil), wr.Data...)
			}
			cn.pending = append(cn.pending, pendingWR{wr: wr, enq: c.clk.Now()})
			c.connMu.Unlock()
			return nil
		default: // connNone
			c.connMu.Unlock()
			if err := c.initiate(peer); err != nil {
				return err
			}
		}
	}
}

// flushLocked posts, in order, what waits for the connection that just became
// ready: first the retained frames — the receiver's ledger suppresses what it
// already executed, and a delivery the old connection lost or tore is
// made whole by this replay before any Quiet can complete — then the
// traffic queued behind the handshake, each request departing at max(its
// enqueue time, the connection-ready time) on a dedicated flush clock. A
// request that fails for good is completed to its issuer. If the connection
// dies mid-flush (a link flap can hit the very first post) the unposted
// remainder stays queued behind the handshake transmit restarted, so every
// request is still delivered exactly once; flushLocked returns false then.
// Caller holds connMu.
func (c *Conduit) flushLocked(cn *conn, peer int) bool {
	if cn.sess.retained() > 0 && !c.replayLocked(cn, peer, vclock.NewClock(cn.readyVT)) {
		return false
	}
	if len(cn.pending) == 0 {
		return true
	}
	fc := vclock.NewClock(cn.readyVT)
	for i, p := range cn.pending {
		// First-op penalty: how long the queued request waited on the
		// handshake (zero when the request was enqueued after ready).
		c.hFirstOp.Record(max(cn.readyVT-p.enq, 0))
		fc.AdvanceTo(p.enq)
		if err := c.transmit(cn, peer, p.wr, fc, fromQueue); connDied(err) {
			cn.pending = cn.pending[i:]
			return false
		} else if err != nil {
			c.complete(p.wr.WRID, ib.Completion{VTime: fc.Now()}, err)
		}
	}
	cn.pending = nil
	cn.sendVT = fc.Now()
	return true
}

// replayLocked re-posts every frame cn retains, in sequence order, on clk:
// original bytes, original numbers, no send completion (the original post
// already carried any Quiet hold). The receiver's ledger suppresses whatever
// it already executed. The frames stay retained whatever happens — only an
// acknowledgement releases them — so a connection that dies mid-replay
// (replayLocked returns false) replays again from the flush of its
// replacement. Caller holds connMu.
func (c *Conduit) replayLocked(cn *conn, peer int, clk *vclock.Clock) bool {
	sent := 0
	var err error
	for i := 0; i < cn.sess.retained() && err == nil; i++ {
		wr := ib.SendWR{Op: ib.OpSend, Data: cn.sess.unacked[i], NoSendCompletion: true}
		if err = c.transmit(cn, peer, wr, clk, fromWindow); err == nil {
			sent++
		}
	}
	if sent > 0 {
		c.stats.IntegrityRetransmits += sent
		c.led.Act("rc", c.cfg.Rank, clk.Now(), "integrity-retransmit")
	}
	return !connDied(err)
}
