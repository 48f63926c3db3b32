package gasnet

import (
	"errors"
	"fmt"
	"time"

	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/vclock"
)

// heldReq is a connection request that arrived before this PE was ready,
// kept with its virtual arrival time so the replay at SetReady can both
// serve it and decide (VT-deterministically) whether it was genuinely
// early.
type heldReq struct {
	m  connMsg
	at int64
}

// msgName names a control-message kind for trace events.
func msgName(kind uint8) string {
	switch kind {
	case msgConnReq:
		return "conn-req"
	case msgConnRep:
		return "conn-rep"
	case msgConnRTU:
		return "conn-rtu"
	case msgHeartbeat:
		return "heartbeat"
	case msgHeartbeatAck:
		return "heartbeat-ack"
	case msgAbort:
		return "abort"
	case msgConnRej:
		return "conn-rej"
	case msgDataAck:
		return "data-ack"
	case msgDataNak:
		return "data-nak"
	case msgDataProbe:
		return "data-probe"
	}
	return "unknown"
}

// Default real-time retransmission timing: the scan period and the initial
// per-connection retransmission timeout with exponential backoff. Backoff
// matters even without fault injection: a large static ConnectAll keeps
// thousands of handshakes legitimately in flight for (real) seconds, and
// resending all of them every scan would flood the completion queues.
// Virtual-time charges for retransmissions use
// CostModel.ConnRetransmitTimeout.
const (
	defaultRetransInterval = 10 * time.Millisecond
	defaultRetransBaseRTO  = 25 * time.Millisecond
	defaultRetransMaxShift = 6

	// defaultProbeBackoffShift caps the exponential backoff of background
	// probes — heartbeat confirmation probes (failure.go) and the RTO-driven
	// window probes behind a dirty eviction — so both recovery clocks share
	// one knob (RetransConfig.ProbeBackoffShift).
	defaultProbeBackoffShift = 4

	// recycleAttempts is the last-resort convergence bound: a handshake
	// still not complete after this many retransmissions is torn down and,
	// if traffic is queued behind it, restarted with a fresh attempt number.
	// A fresh attempt supersedes any stale state the peer may hold, so this
	// guarantees eventual convergence even for fault interleavings the
	// message-level guards do not recognize.
	recycleAttempts = 25

	// rnrBackoffMaxShift caps the exponential virtual-time backoff applied
	// to receiver-not-ready retries and zero-credit stalls (delay =
	// RNRRetryDelay << min(attempt, rnrBackoffMaxShift)).
	rnrBackoffMaxShift = 6

	// qpAllocRetries bounds the client-side evict-and-retry ladder for a
	// budget-refused queue-pair allocation before the job gives up with
	// ExitResourceExhausted. Each retry re-runs idle eviction, so the bound
	// is hit only when the cap stays consumed by unevictable connections.
	qpAllocRetries = 256

	// maxAdmissionRejects bounds how many admission rejections one
	// connection slot absorbs across its lifetime before the client
	// concludes the server will never admit it and aborts. Rejections are
	// normally resolved long before this by the server's idle-LRU eviction.
	maxAdmissionRejects = 100
)

// RetransConfig tunes the connection manager's real-time retransmission
// machinery. Interval is the scan period, BaseRTO the first per-connection
// timeout, and MaxShift caps the exponential backoff (RTO = BaseRTO <<
// min(attempt, MaxShift)). Zero fields take the defaults, so the zero value
// keeps the historical 10ms/25ms/6 behaviour. Slow -race CI runs raise the
// timeouts; fault-injection soaks lower them to compress recovery time.
type RetransConfig struct {
	Interval time.Duration
	BaseRTO  time.Duration
	MaxShift int

	// ProbeBackoffShift caps the exponential backoff of the background
	// probes layered on the RTO machinery: the failure detector's
	// confirmation/patience probes and the data-plane window probes that
	// follow a dirty eviction. One knob, because the two are the same
	// full-RTO patience applied to different planes — a chaos harness that
	// compresses recovery time must compress both together or the slower one
	// dominates the measured MTTR. Default 4.
	ProbeBackoffShift int
}

// withDefaults fills zero fields with the default timing.
func (rc RetransConfig) withDefaults() RetransConfig {
	if rc.Interval <= 0 {
		rc.Interval = defaultRetransInterval
	}
	if rc.BaseRTO <= 0 {
		rc.BaseRTO = defaultRetransBaseRTO
	}
	if rc.MaxShift <= 0 {
		rc.MaxShift = defaultRetransMaxShift
	}
	if rc.ProbeBackoffShift <= 0 {
		rc.ProbeBackoffShift = defaultProbeBackoffShift
	}
	return rc
}

// rtoFor returns the real-time retransmission timeout for the given attempt.
func (c *Conduit) rtoFor(attempt int) time.Duration {
	if attempt > c.retrans.MaxShift {
		attempt = c.retrans.MaxShift
	}
	return c.retrans.BaseRTO << attempt
}

// fullRTO is the fully backed-off retransmission timeout — the shared
// patience unit for every "wait one more full cycle" decision: the Close
// drain, the dirty-eviction replay deferral, and (through ProbeBackoffShift)
// the failure detector's probe cadence.
func (c *Conduit) fullRTO() time.Duration {
	return c.rtoFor(c.retrans.MaxShift)
}

// deferDirtyReplayLocked postpones a just-evicted connection's replay
// reconnect by a full RTO: the victim still retains unacknowledged frames, and
// letting its replay fire immediately would reclaim the queue-pair slot the
// eviction just freed. Shared by cap-driven and pressure-relief eviction.
// Caller holds connMu.
func (c *Conduit) deferDirtyReplayLocked(victim *conn) {
	if len(victim.unacked) == 0 {
		return
	}
	victim.lastData = timeNow()
	victim.dataAttempt++
}

// isLinkFault reports whether a post failed because the RC connection died
// underneath it (link flap, peer teardown, or local eviction) — the errors
// the connection manager recovers from by re-running the handshake.
// ib.ErrPathDown is deliberately NOT a link fault: both queue pairs are
// healthy and the recovery ladder (Automatic Path Migration, then a
// reconnect on another rail) must run before anything is torn down.
func isLinkFault(err error) bool {
	return errors.Is(err, ib.ErrLinkDown) || errors.Is(err, ib.ErrBadState)
}

// pickRailsLocked selects the primary and alternate rails for a new RC
// connection to the adapter at dst: the least-loaded live rail becomes the
// primary (load = this PE's established connections per rail, so handshakes
// spread deterministically), the next-least-loaded live rail the alternate
// loaded for Automatic Path Migration. With every rail to dst dark the
// default paths are returned and the first post's path-down error routes the
// pair into the suspension machinery. Caller holds connMu.
func (c *Conduit) pickRailsLocked(dst uint16, vt int64) (pri, alt int) {
	fab := c.cfg.HCA.Fabric()
	rails := fab.Rails()
	if rails <= 1 {
		return 0, 0
	}
	fi := fab.Faults()
	src := c.cfg.HCA.LID()
	load := make([]int, rails)
	c.conns.each(func(_ int, cn *conn) {
		if cn.qp != nil {
			if r := cn.qp.Rail(); r >= 0 && r < rails {
				load[r]++
			}
		}
	})
	pri, alt = -1, -1
	for r := 0; r < rails; r++ {
		if fi != nil && !fi.RailLive(src, dst, r, vt) {
			continue
		}
		switch {
		case pri == -1 || load[r] < load[pri]:
			alt = pri
			pri = r
		case alt == -1 || load[r] < load[alt]:
			alt = r
		}
	}
	if pri == -1 {
		// No live rail at all: suspension territory. Keep the defaults so the
		// path error (and the detector's partition verdict) does the talking.
		return 0, 1 % rails
	}
	if alt == -1 {
		// A single live rail: arm the next rail as the alternate anyway — it
		// is dead right now, but if it heals before the primary fails, APM to
		// it beats a full reconnect.
		alt = (pri + 1) % rails
	}
	return pri, alt
}

// tryMigrateLocked attempts IB Automatic Path Migration for a connection
// whose primary path failed: if the loaded alternate rail is live, the queue
// pair swaps to it in place — no teardown, no handshake, and the session
// layer's retained-frame window survives by construction because the QP never
// leaves RTS. Caller holds connMu.
func (c *Conduit) tryMigrateLocked(cn *conn, peer int) bool {
	qp := cn.qp
	if qp == nil {
		return false
	}
	fab := c.cfg.HCA.Fabric()
	fi := fab.Faults()
	now := c.mgrClk.Now()
	alt := qp.AltRail()
	if alt == qp.Rail() || fi == nil || !fi.RailLive(c.cfg.HCA.LID(), qp.Remote().LID, alt, now) {
		return false
	}
	if qp.Migrate() != nil {
		return false
	}
	c.statMu.Lock()
	c.stats.PathMigrations++
	c.statMu.Unlock()
	c.event("path-migrate", peer, c.mgrClk.Now())
	c.led.Detect("net", -1, c.mgrClk.Now(), "path-error")
	c.led.Act("net", -1, c.mgrClk.Now(), "path-migrate")
	return true
}

// tryMigrate is tryMigrateLocked for callers that dropped connMu: it
// revalidates the slot (same generation, still ready) before migrating.
func (c *Conduit) tryMigrate(peer int, epoch uint64) bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	cn := c.conns.get(peer)
	if cn == nil || cn.epoch != epoch || cn.state != connReady {
		// Someone else already recovered or tore the slot down; let the
		// caller's retry loop observe the new state.
		return true
	}
	return c.tryMigrateLocked(cn, peer)
}

// railFailover is the second rung of the path-error ladder: APM was
// impossible (no live alternate loaded), so tear the connection down and
// re-run the handshake — initiate's rail selection lands it on a live rail
// when one exists, and when none does the handshake datagrams blackhole until
// the partition heals, which is exactly the suspension the failure detector
// supervises. The session layer's retained frames survive the teardown and
// replay over the replacement connection.
func (c *Conduit) railFailover(peer int, epoch uint64) {
	c.connMu.Lock()
	cn := c.conns.get(peer)
	if cn == nil || cn.epoch != epoch || cn.state != connReady {
		c.connMu.Unlock()
		return
	}
	c.teardownLocked(cn)
	c.connMu.Unlock()
	c.statMu.Lock()
	c.stats.RailFailovers++
	c.statMu.Unlock()
	c.event("rail-failover", peer, c.mgrClk.Now())
	c.led.Detect("net", -1, c.mgrClk.Now(), "path-error")
	c.led.Act("net", -1, c.mgrClk.Now(), "rail-failover")
}

// Connected reports whether a ready connection to peer exists.
func (c *Conduit) Connected(peer int) bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	cn := c.conns.get(peer)
	return cn != nil && cn.state == connReady
}

// NumConnected returns the number of ready connections at this PE.
func (c *Conduit) NumConnected() int {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.nReady
}

// teardownLocked destroys a connection's queue pairs and resets the slot to
// connNone so a later use re-runs the handshake. Queued traffic and the
// payload-consumed flag survive: pending sends flush over the replacement
// connection exactly once, and the upper layer's segment info is never
// re-consumed. Caller holds connMu and emits the trace event/stat itself.
func (c *Conduit) teardownLocked(cn *conn) {
	if cn.qp != nil {
		cn.qp.Destroy()
		cn.qp = nil
	}
	if cn.loopbk != nil {
		cn.loopbk.Destroy()
		cn.loopbk = nil
	}
	if cn.state == connReady {
		c.nReady--
	}
	cn.state = connNone
	cn.epoch++
	cn.creditRel = nil // the replacement connection starts with a full window
	cn.rejWait = false
}

// noteLinkFault tears down the connection to peer if it is still the same
// generation the caller observed failing; concurrent posters race to report
// the same dead QP and only the first wins. Returns true if this call did
// the teardown.
func (c *Conduit) noteLinkFault(peer int, epoch uint64) bool {
	c.connMu.Lock()
	cn := c.conns.get(peer)
	if cn == nil || cn.epoch != epoch || cn.state != connReady {
		c.connMu.Unlock()
		return false
	}
	c.teardownLocked(cn)
	c.connMu.Unlock()
	c.statMu.Lock()
	c.stats.LinkFaults++
	c.statMu.Unlock()
	c.event("conn-link-fault", peer, c.clk.Now())
	return true
}

// connHealthyLocked reports whether both halves of a ready connection are
// still alive: our QP is RTS and the remote QP it is bound to still exists
// and is usable. This is the simulator's stand-in for the zero-byte liveness
// probe a real conduit would post; it lets the server distinguish a genuine
// reconnect request (the client always destroys its old QP first) from a
// delayed duplicate of an abandoned attempt. Caller holds connMu.
func (c *Conduit) connHealthyLocked(cn *conn) bool {
	if cn.qp == nil || cn.qp.State() != ib.StateRTS {
		return false
	}
	r := cn.qp.Remote()
	rh := c.cfg.HCA.Fabric().HCA(r.LID)
	if rh == nil {
		return false
	}
	rq := rh.QP(r.QPN)
	if rq == nil {
		return false
	}
	st := rq.State()
	return st == ib.StateRTR || st == ib.StateRTS
}

// remoteQPAlive reports whether the queue pair a handshake message advertises
// still exists and has not failed. A client abandons an attempt only by
// destroying its QP (collision loss, teardown), so a request advertising a
// dead endpoint is a delayed duplicate of an abandoned attempt: binding to it
// could never complete the handshake, and accepting it over connNone would
// wedge this side in accepted forever. Real conduits learn the same thing
// from the CM's address resolution or the first retransmission timeout.
func (c *Conduit) remoteQPAlive(d ib.Dest) bool {
	h := c.cfg.HCA.Fabric().HCA(d.LID)
	if h == nil {
		return false
	}
	q := h.QP(d.QPN) // nil once destroyed
	return q != nil && q.State() != ib.StateError
}

// maybeEvictLocked enforces the per-HCA live-QP cap before a new RC
// connection is created: while the adapter is at or above the cap, the
// least-recently-used idle connection (ready, nothing queued, not the slot
// being established) is torn down. The evicted peer reconnects on demand;
// eviction is best-effort, so a node whose connections are all busy simply
// exceeds the cap. Caller holds connMu.
func (c *Conduit) maybeEvictLocked(excludePeer int, vt int64) {
	limit := c.cfg.MaxLiveRC
	if limit <= 0 || c.cfg.Mode == Static {
		// The static baseline is fully connected by definition and has no
		// reconnect path: evicting one of its connections would be permanent.
		return
	}
	for c.cfg.HCA.LiveRC() >= int64(limit) {
		victim, peer := c.pickVictimLocked(excludePeer)
		if victim == nil {
			return
		}
		c.teardownLocked(victim)
		// A last-resort victim still retaining unacknowledged frames: its
		// replay reconnect starts a full RTO out so the slot we just freed
		// is not immediately reclaimed by the victim itself.
		c.deferDirtyReplayLocked(victim)
		c.statMu.Lock()
		c.stats.Evictions++
		c.statMu.Unlock()
		c.event("conn-evict", peer, vt)
		c.led.Act("alloc", obs.InstJob, vt, "conn-evict")
	}
}

// pickVictimLocked returns the least-recently-used evictable connection:
// ready, no queued traffic, not the excluded peer, not the self-loopback.
// Connections retaining unacknowledged framed sends are kept as a last
// resort: evicting one strands its retained window until the RTO-driven
// reconnect replays it, delaying any Quiet waiting on the acknowledgements —
// but refusing outright could leave the budget-constrained adapter with no
// victim at all, turning a transient ACK delay into a spurious
// resource-exhaustion abort.
func (c *Conduit) pickVictimLocked(excludePeer int) (*conn, int) {
	var victim, dirty *conn
	vpeer, dpeer := -1, -1
	consider := func(peer int, cn *conn) {
		if cn.state != connReady || len(cn.pending) > 0 {
			return
		}
		if peer == excludePeer || peer == c.cfg.Rank {
			return
		}
		// Total order: lastUse first, peer rank as the tie-break. Server-side
		// connections that were never used locally all carry lastUse == 0, and
		// without the tie-break the map iteration order would pick the victim —
		// making eviction (and everything downstream: reconnects, the flow
		// matrix's ctrl column, lifecycle timelines) schedule-dependent.
		if len(cn.unacked) > 0 {
			if dirty == nil || cn.lastUse < dirty.lastUse ||
				(cn.lastUse == dirty.lastUse && peer < dpeer) {
				dirty, dpeer = cn, peer
			}
			return
		}
		if victim == nil || cn.lastUse < victim.lastUse ||
			(cn.lastUse == victim.lastUse && peer < vpeer) {
			victim, vpeer = cn, peer
		}
	}
	c.conns.each(consider)
	if victim == nil {
		return dirty, dpeer
	}
	return victim, vpeer
}

// reliefEvict is this conduit's pressure-relief hook, registered with the
// shared adapter (ib.HCA.RegisterRelief): evict the least-recently-used idle
// connection so a node-local sibling's stalled queue-pair allocation can
// proceed. Unlike maybeEvictLocked it ignores the live-RC cap — the request
// itself is the proof of pressure. The evicted peer reconnects on demand.
func (c *Conduit) reliefEvict(vt int64) bool {
	if c.closed.Load() {
		return false
	}
	c.connMu.Lock()
	victim, peer := c.pickVictimLocked(-1)
	if victim == nil {
		c.connMu.Unlock()
		return false
	}
	c.teardownLocked(victim)
	c.deferDirtyReplayLocked(victim)
	c.connMu.Unlock()
	c.statMu.Lock()
	c.stats.Evictions++
	c.statMu.Unlock()
	c.event("conn-evict", peer, vt)
	c.led.Act("alloc", obs.InstJob, vt, "relief-evict")
	return true
}

// payload returns the upper layer's connect payload, or nil.
func (c *Conduit) payload() []byte {
	if c.cfg.ConnectPayload == nil {
		return nil
	}
	return c.cfg.ConnectPayload()
}

// consumePayloadLocked hands the peer's piggybacked payload to the upper
// layer exactly once. Called with connMu held, before the connection becomes
// visible as ready, so a PE that observes the connection always observes the
// segment info too. OnConnectPayload must therefore not call back into the
// conduit.
func (c *Conduit) consumePayloadLocked(cn *conn, peer int, payload []byte, at int64) {
	if cn.gotPay {
		return
	}
	cn.gotPay = true
	if c.cfg.OnConnectPayload != nil && payload != nil {
		c.cfg.OnConnectPayload(peer, payload, at)
	}
}

// creditGateLocked blocks — in virtual time — until the sender-side
// receive-credit window against cn's peer has a free slot, then consumes one
// with a conservative estimate of when the receiver reposts it (arrival plus
// the receive-queue drain time). The window mirrors the target QP's finite
// receive queue, so a well-behaved sender stalls locally instead of eating
// NAK round trips; the receiver's RNR NAK (see postRNR) remains the ground
// truth when the estimate runs early. Caller holds connMu.
func (c *Conduit) creditGateLocked(cn *conn, depth, n int) {
	prune := func() {
		now := c.clk.Now()
		i := 0
		for i < len(cn.creditRel) && cn.creditRel[i] <= now {
			// Each credit's release is stamped at its own estimated repost
			// time; the gauge fold sorts by VT, so late observation is exact.
			c.gCredits.Add(cn.creditRel[i], -1)
			i++
		}
		if i > 0 {
			cn.creditRel = append(cn.creditRel[:0], cn.creditRel[i:]...)
		}
	}
	prune()
	stalls := 0
	for len(cn.creditRel) >= depth {
		// The oldest in-flight message frees its slot at creditRel[0]; sleep
		// until then, backing off exponentially if the window stays shut.
		shift := stalls
		if shift > rnrBackoffMaxShift {
			shift = rnrBackoffMaxShift
		}
		c.clk.AdvanceTo(cn.creditRel[0])
		c.clk.Advance(c.model.RNRRetryDelay << shift)
		stalls++
		prune()
	}
	if stalls > 0 {
		c.statMu.Lock()
		c.stats.CreditStalls++
		c.statMu.Unlock()
	}
	cn.creditRel = append(cn.creditRel,
		c.clk.Now()+c.model.RCSendLatency+c.model.XferTime(n)+c.model.RQDrain)
	c.gCredits.Add(c.clk.Now(), 1)
}

// postRNR posts wr on qp, absorbing receiver-not-ready NAKs: each NAK backs
// off exponentially on the work request's clock and retries, modeling the
// HCA's RNR retry timer. The loop terminates because every retry departs
// later, so its arrival eventually passes the receive queue's oldest
// release time. Other errors — including link faults — return unchanged.
func (c *Conduit) postRNR(qp *ib.QP, wr ib.SendWR) error {
	for shift := 0; ; shift++ {
		err := qp.PostSend(wr)
		if !errors.Is(err, ib.ErrRNR) {
			return err
		}
		c.statMu.Lock()
		c.stats.RNRNaks++
		c.statMu.Unlock()
		s := shift
		if s > rnrBackoffMaxShift {
			s = rnrBackoffMaxShift
		}
		wr.Clk.Advance(c.model.RNRRetryDelay << s)
	}
}

// post sends a work request to peer, establishing the connection on demand.
// If the connection is still being established the request is queued and
// flushed, in order, the moment the connection is ready. clonePending makes
// a private copy of wr.Data when queueing (callers that hand over ownership
// of the buffer, such as AMRequest, pass false).
//
// A post that fails because the connection died underneath it (link flap,
// peer eviction) tears the connection down and loops: the work request is
// queued behind a fresh handshake and re-executed there. For most faults the
// fabric fails the operation before any byte moves; a torn or corrupted RDMA
// payload (ib.ErrTornWrite, ib.ErrRCCorrupt) lands damage first — the clean
// replay overwrites it before the operation ever completes, so Quiet never
// observes the damage. Two-sided sends on a lossy fabric additionally go
// through the framed session path (session.go) for end-to-end integrity and
// exactly-once delivery.
func (c *Conduit) post(peer int, wr ib.SendWR, clonePending bool) error {
	if peer < 0 || peer >= c.cfg.NProcs {
		return fmt.Errorf("gasnet: peer %d out of range [0,%d)", peer, c.cfg.NProcs)
	}
	for {
		c.connMu.Lock()
		if c.deadPeers[peer] {
			c.connMu.Unlock()
			return ErrPeerDead
		}
		cn := c.conns.getOrCreate(peer)
		switch cn.state {
		case connReady:
			qp := cn.qp
			epoch := cn.epoch
			c.useSeq++
			cn.lastUse = c.useSeq
			if wr.Op == ib.OpSend {
				if depth := c.cfg.HCA.Limits().RQDepth; depth > 0 {
					c.creditGateLocked(cn, depth, len(wr.Data))
				}
			}
			if c.lossy && wr.Op == ib.OpSend {
				// Framed session path: sequence, trailer and retention happen
				// under connMu so wire order equals sequence order. wr.Data is
				// never mutated (the framing reallocates), so the outer wr can
				// be re-queued untouched if the link fails.
				err := c.postFramedLocked(cn, wr, c.clk)
				c.connMu.Unlock()
				if err != nil && errors.Is(err, ib.ErrPathDown) {
					// Path-error ladder: migrate to the alternate rail in
					// place (APM), else reconnect on another rail, else the
					// reconnect blackholes and the pair suspends; then re-run
					// this post (the failed frame rolled its sequence back).
					if !c.tryMigrate(peer, epoch) {
						c.railFailover(peer, epoch)
					}
					continue
				}
				if err == nil || !isLinkFault(err) {
					return err
				}
				c.noteDataFault(err)
				c.noteLinkFault(peer, epoch)
				continue
			}
			c.connMu.Unlock()
			wr.Clk = c.clk
			err := c.postRNR(qp, wr)
			if err != nil && errors.Is(err, ib.ErrPathDown) {
				if !c.tryMigrate(peer, epoch) {
					c.railFailover(peer, epoch)
				}
				continue
			}
			if err == nil || !isLinkFault(err) {
				return err
			}
			c.noteDataFault(err)
			c.noteLinkFault(peer, epoch)
			// Loop: the slot is connNone now (or another poster already
			// restarted the handshake); re-queue this request behind it.
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

// EnsureConnected blocks until a ready connection to peer exists,
// establishing it if necessary. On return, any payload piggybacked by the
// peer has been consumed, so one-sided addressing info is available.
func (c *Conduit) EnsureConnected(peer int) error {
	if peer < 0 || peer >= c.cfg.NProcs {
		return fmt.Errorf("gasnet: peer %d out of range [0,%d)", peer, c.cfg.NProcs)
	}
	if err := c.checkAlive(); err != nil {
		return err
	}
	for {
		c.connMu.Lock()
		if c.deadPeers[peer] {
			c.connMu.Unlock()
			return ErrPeerDead
		}
		cn := c.conns.getOrCreate(peer)
		switch cn.state {
		case connReady:
			ready := cn.readyVT
			c.useSeq++
			cn.lastUse = c.useSeq
			c.connMu.Unlock()
			// The caller blocked until the handshake finished; its time
			// advances to the connection-ready instant.
			c.clk.AdvanceTo(ready)
			return nil
		case connNone:
			c.connMu.Unlock()
			if err := c.initiate(peer); err != nil {
				return err
			}
		default:
			c.connCond.Wait()
			c.connMu.Unlock()
			if err := c.Err(); err != nil {
				return err
			}
		}
	}
}

// allocRCQPLocked obtains an RC queue pair under the adapter's budget for a
// handshake with peer, running the client-side degradation ladder: evict an
// idle connection and retry — with exponential virtual-time backoff — while
// the budget could still free up, and abort the job with
// ExitResourceExhausted once forward progress is provably impossible: the
// adapter reports allocation can never succeed, or qpAllocRetries consecutive
// retries pass without a single queue pair being destroyed anywhere on the
// adapter (no other conduit is releasing endpoints either, so waiting longer
// cannot help). A busy adapter where other tenants churn endpoints resets the
// stall count — losing allocation races is contention, not exhaustion.
// Called with connMu held; the lock is dropped and reacquired around each
// backoff and around the abort, so on return the caller must re-validate the
// slot's state before using the queue pair.
func (c *Conduit) allocRCQPLocked(peer int, clk *vclock.Clock) (*ib.QP, error) {
	stalled := 0
	lastDestroyed := c.cfg.HCA.Stats().QPsDestroyed
	for {
		c.maybeEvictLocked(peer, clk.Now())
		qp, err := c.cfg.HCA.TryCreateQP(ib.RC, clk, c.cq, c.cq)
		if err == nil {
			return qp, nil
		}
		c.statMu.Lock()
		c.stats.AllocFailures++
		c.statMu.Unlock()
		if d := c.cfg.HCA.Stats().QPsDestroyed; d != lastDestroyed {
			lastDestroyed = d
			stalled = 0
		} else {
			stalled++
		}
		if c.cfg.HCA.QPImpossible() || stalled >= qpAllocRetries {
			ae := &AbortError{Origin: c.cfg.Rank, Dead: -1, Code: ExitResourceExhausted,
				Reason: fmt.Sprintf("rank %d: RC endpoint for peer %d unobtainable after eviction and retry: %v",
					c.cfg.Rank, peer, err)}
			c.connMu.Unlock()
			c.event("qp-alloc-fatal", peer, clk.Now())
			c.Abort(ae)
			c.connMu.Lock()
			return nil, ae
		}
		shift := stalled
		if shift > rnrBackoffMaxShift {
			shift = rnrBackoffMaxShift
		}
		c.connMu.Unlock()
		c.event("qp-alloc-retry", peer, clk.Now())
		// Our own idle connections are gone (maybeEvictLocked found no more
		// victims); ask the adapter's other tenants to release one before
		// backing off. Without this cross-process half of eviction, a PE
		// whose node-local siblings pin the whole budget — but, being idle,
		// never allocate and so never evict — reads the motionless destroy
		// counter as exhaustion and aborts a perfectly recoverable job.
		c.cfg.HCA.RequestRelief(clk.Now())
		clk.Advance(c.model.RNRRetryDelay << shift)
		// Give the manager thread real time to finish the in-flight
		// handshakes that are pinning the budget; virtual time alone cannot
		// release them.
		time.Sleep(time.Millisecond)
		c.connMu.Lock()
	}
}

// initiate starts the client side of the two-phase handshake (paper Fig. 4):
// resolve the peer's UD endpoint (completing the non-blocking PMI exchange
// if needed), create an RC QP, move it to INIT, and send a ConnReq carrying
// our RC endpoint and the upper layer's payload.
func (c *Conduit) initiate(peer int) error {
	c.connMu.Lock()
	if c.deadPeers[peer] {
		c.connMu.Unlock()
		return ErrPeerDead
	}
	cn := c.conns.getOrCreate(peer)
	if cn.state != connNone {
		c.connMu.Unlock()
		return nil
	}
	if peer == c.cfg.Rank {
		return c.connectSelfLocked(cn) // unlocks
	}
	cn.state = connConnecting
	// Attempt numbers are never reused, even across abandoned attempts
	// (collision losses, adopted lower-seq accepts): a delayed duplicate of
	// an old REQ must always compare below any live attempt.
	if cn.seqHi > cn.seq {
		cn.seq = cn.seqHi
	}
	cn.seq++
	cn.seqHi = cn.seq
	seq := cn.seq
	c.connMu.Unlock()

	// The out-of-band lookup can block (PMIX_Wait / PMI Get); do it without
	// the lock. An incoming ConnReq from the same peer may meanwhile turn
	// this slot into the server side (collision: the lower rank's request
	// wins); in that case we abandon the client attempt.
	ud, err := c.resolveUD(peer)

	c.connMu.Lock()
	if cn.state != connConnecting || cn.seq != seq {
		c.connMu.Unlock()
		return nil
	}
	if err != nil {
		cn.state = connNone
		c.connMu.Unlock()
		return err
	}
	qp, aerr := c.allocRCQPLocked(peer, c.clk)
	if aerr != nil {
		if cn.state == connConnecting && cn.seq == seq {
			cn.state = connNone
		}
		c.connMu.Unlock()
		return aerr
	}
	if cn.state != connConnecting || cn.seq != seq {
		// The slot changed while the allocation ladder had the lock dropped
		// (collision: the peer's request won); release the unneeded QP.
		qp.Destroy()
		c.connMu.Unlock()
		return nil
	}
	qp.SetObs(c.obs)
	c.obs.Emit(c.clk.Now(), obs.LayerIB, "qp-create-rc", peer, 0)
	c.countQP(ib.RC)
	qp.SetPath(c.pickRailsLocked(ud.LID, c.clk.Now()))
	if e := qp.ToInit(); e != nil {
		c.connMu.Unlock()
		return e
	}
	cn.qp = qp
	c.mapQPLocked(qp, peer)
	cn.peerUD = ud
	cn.firstTx = c.clk.Now()
	cn.lastTx = timeNow()
	cn.attempt = 0
	req := connMsg{Kind: msgConnReq, SrcRank: int32(c.cfg.Rank), Seq: seq,
		RC: qp.Addr(), UD: c.udQP.Addr(), Payload: c.connPayloadLocked(peer)}
	c.armTimerLocked()
	c.connMu.Unlock()
	c.event("conn-initiate", peer, c.clk.Now())
	return c.sendControl(peer, ud, req, c.clk)
}

// connectSelfLocked builds the loopback connection to this PE itself
// (OpenSHMEM semantics allow communication with one's own rank; the fully
// connected baseline counts it too). Called with connMu held; unlocks.
func (c *Conduit) connectSelfLocked(cn *conn) error {
	// Hold the slot across the allocation ladder's lock drops; concurrent
	// posts to self queue behind it and are flushed below.
	cn.state = connConnecting
	a, aerr := c.allocRCQPLocked(c.cfg.Rank, c.clk)
	if aerr != nil {
		cn.state = connNone
		c.connMu.Unlock()
		return aerr
	}
	b, berr := c.allocRCQPLocked(c.cfg.Rank, c.clk)
	if berr != nil {
		a.Destroy()
		cn.state = connNone
		c.connMu.Unlock()
		return berr
	}
	a.SetObs(c.obs)
	b.SetObs(c.obs)
	c.obs.Emit(c.clk.Now(), obs.LayerIB, "qp-create-rc", c.cfg.Rank, 0)
	c.obs.Emit(c.clk.Now(), obs.LayerIB, "qp-create-rc", c.cfg.Rank, 0)
	c.countQP(ib.RC)
	c.countQP(ib.RC)
	for _, s := range []struct {
		q *ib.QP
		r ib.Dest
	}{{a, b.Addr()}, {b, a.Addr()}} {
		if err := s.q.ToInit(); err != nil {
			c.connMu.Unlock()
			return err
		}
		if err := s.q.ToRTR(s.r); err != nil {
			c.connMu.Unlock()
			return err
		}
		if err := s.q.ToRTS(); err != nil {
			c.connMu.Unlock()
			return err
		}
	}
	cn.qp = a
	cn.loopbk = b
	c.mapQPLocked(a, c.cfg.Rank)
	c.mapQPLocked(b, c.cfg.Rank)
	cn.readyVT = c.clk.Now()
	c.consumePayloadLocked(cn, c.cfg.Rank, c.payload(), cn.readyVT)
	cn.state = connReady
	c.nReady++
	recon := cn.everReady
	cn.everReady = true
	if cn.readyVT > c.lastReadyVT {
		c.lastReadyVT = cn.readyVT
	}
	// Posts to self that arrived while the allocation ladder had the lock
	// dropped queued behind the slot; deliver them now.
	c.flushLocked(cn, c.cfg.Rank)
	c.connMu.Unlock()
	c.statMu.Lock()
	c.stats.ConnsEstablished++
	if recon {
		c.stats.Reconnects++
		c.led.Act("rc", c.cfg.Rank, c.clk.Now(), "reconnect")
	}
	c.statMu.Unlock()
	c.connCond.Broadcast()
	return nil
}

// sendControl transmits a handshake datagram over the UD endpoint. peer is
// the destination rank, attributed to the flow matrix as control traffic.
func (c *Conduit) sendControl(peer int, dest ib.Dest, m connMsg, clk *vclock.Clock) error {
	data := m.encode()
	if c.obs.EventsEnabled() {
		c.obs.Emit(clk.Now(), obs.LayerGasnet, "ud-send", -1, int64(len(data)),
			obs.Attr{Key: "msg", Val: msgName(m.Kind)})
	}
	c.obs.Flow(peer, obs.FlowCtrl, int64(len(data)))
	return c.udQP.PostSend(ib.SendWR{Op: ib.OpSend, Dest: dest, Data: data, Clk: clk})
}

// handleControl dispatches UD handshake traffic on the connection-manager
// "thread" (the progress goroutine).
//
// Each message is served on its own service clock seeded from the message's
// virtual arrival time, so every server-side timestamp (QP transitions, the
// reply's departure, ready times, trace events) is a deterministic function
// of the arrival VT alone — never of the wall-clock order in which the
// goroutine happened to dequeue concurrent messages. The shared manager
// clock is kept only as a commutative high-water mark (max over served
// messages), which keeps HealthSnapshot and the fault path monotone without
// reintroducing order sensitivity. The cost of this determinism is that
// queueing delay at a contended manager is not modeled: concurrent requests
// are each charged the full processing cost but do not wait for each other.
func (c *Conduit) handleControl(comp ib.Completion) {
	m, err := decodeConnMsg(comp.Data)
	if err != nil {
		// A frame that fails checksum verification is discarded here, before
		// any field could poison the connection or rkey tables; the sender's
		// retransmission timer re-delivers the content.
		if errors.Is(err, errCorruptFrame) {
			c.statMu.Lock()
			c.stats.CorruptFrames++
			c.statMu.Unlock()
			c.event("ud-corrupt", -1, comp.VTime)
		}
		return
	}
	if c.arrivalFate(comp.VTime) != selfAlive {
		// A killed or wedged PE's software handles nothing — except the abort
		// datagram, which models the launcher's out-of-band kill and is what
		// finally releases a wedged process.
		if m.Kind == msgAbort {
			c.handleAbortMsg(m)
		}
		return
	}
	c.noteAlive(int(m.SrcRank))
	if c.obs.EventsEnabled() {
		c.obs.Emit(comp.VTime, obs.LayerGasnet, "ud-recv", int(m.SrcRank), int64(len(comp.Data)),
			obs.Attr{Key: "msg", Val: msgName(m.Kind)})
	}
	svc := vclock.NewClock(comp.VTime)
	svc.Advance(c.model.ConnReqProcess)
	switch m.Kind {
	case msgConnReq:
		c.handleReq(m, comp.VTime, svc)
	case msgConnRep:
		c.handleRep(m, svc)
	case msgConnRTU:
		c.handleRTU(m, svc)
	case msgConnRej:
		c.handleRej(m, svc)
	case msgDataAck:
		c.handleDataAck(int(m.SrcRank), m.Payload, false, svc)
	case msgDataNak:
		c.handleDataAck(int(m.SrcRank), m.Payload, true, svc)
	case msgDataProbe:
		c.handleDataProbe(int(m.SrcRank), svc)
	case msgHeartbeat:
		// Echo a liveness ack to the prober, on the manager thread.
		c.sendControl(int(m.SrcRank), m.UD, connMsg{Kind: msgHeartbeatAck, SrcRank: int32(c.cfg.Rank),
			Seq: m.Seq, UD: c.udQP.Addr()}, svc)
	case msgHeartbeatAck:
		// The noteAlive above is the entire effect; also close the RTT
		// histogram sample opened by the probe.
		c.noteHeartbeatAck(int(m.SrcRank), comp.VTime)
	case msgAbort:
		c.handleAbortMsg(m)
	}
	c.mgrClk.AdvanceTo(svc.Now())
}

// handleReq is the server side: create an RC endpoint, bind it to the
// client's, consume the piggybacked payload and reply with our endpoint and
// payload. at is the request's virtual arrival time. Duplicates are
// answered idempotently; requests arriving before this PE is ready
// (segments unregistered) are held and replayed at SetReady, which also
// decides whether to emit the "conn-req-held" trace event. at is the
// request's virtual arrival time; svc is the per-message service clock
// (already charged with the processing cost) on which all server-side work
// for this request is timed.
func (c *Conduit) handleReq(m connMsg, at int64, svc *vclock.Clock) {
	peer := int(m.SrcRank)
	if peer < 0 || peer >= c.cfg.NProcs || peer == c.cfg.Rank {
		return
	}
	if !c.ready.Load() {
		// Hold the request until this PE has registered its segments
		// (paper section IV-E). The payload slice is already private.
		c.connMu.Lock()
		if !c.ready.Load() {
			c.heldReqs = append(c.heldReqs, heldReq{m: m, at: at})
			c.connMu.Unlock()
			return
		}
		c.connMu.Unlock()
	}
	c.connMu.Lock()
	cn := c.conns.getOrCreate(peer)
	if !c.remoteQPAlive(m.RC) {
		c.connMu.Unlock()
		c.event("conn-stale-req", peer, svc.Now())
		return
	}
	switch cn.state {
	case connReady, connAccepted:
		if m.Seq <= cn.seq {
			// Duplicate request: resend the reply with the existing endpoint.
			// (If we are already fully connected the client must have
			// processed the original reply to send RTU, but a stale duplicate
			// is still answered; the client ignores replies when ready.)
			rep := connMsg{Kind: msgConnRep, SrcRank: int32(c.cfg.Rank), Seq: cn.seq,
				RC: cn.qp.Addr(), UD: c.udQP.Addr(), Payload: c.connPayloadLocked(peer)}
			ud := cn.peerUD
			c.connMu.Unlock()
			c.sendControl(peer, ud, rep, svc)
			return
		}
		// Higher sequence than anything we served: normally the peer tore
		// the old connection down (link fault on its side, or it evicted us)
		// and is re-running the handshake. But a delayed duplicate of a REQ
		// the peer has since abandoned (collision loss under reordering)
		// looks identical — and honoring it would kill a healthy connection
		// and bind to a destroyed endpoint. A genuine reconnect always
		// destroys the client's old QP before the new REQ is sent, so if
		// both halves of the current connection are still alive the REQ is
		// stale: ignore it (it is never retransmitted).
		if cn.state == connReady && c.connHealthyLocked(cn) {
			c.connMu.Unlock()
			c.event("conn-stale-req", peer, svc.Now())
			return
		}
		c.teardownLocked(cn)
		c.event("conn-reconnect-req", peer, svc.Now())
	case connConnecting:
		if c.cfg.Rank < peer {
			// Collision, and we are the winner: ignore the peer's request;
			// the peer will abandon its attempt and serve ours.
			c.connMu.Unlock()
			return
		}
		// Collision, and we are the loser: abandon the client attempt (the
		// half-open QP is discarded; queued sends stay and flush over the
		// winning connection).
		c.event("conn-collision-lost", peer, svc.Now())
		if cn.qp != nil {
			cn.qp.Destroy()
			cn.qp = nil
		}
	case connNone:
		if m.Seq <= cn.seq {
			// Duplicate of an attempt this slot already served and has since
			// torn down (eviction): the client is not waiting on this
			// handshake — accepting would bind a second server QP to a
			// connection the client believes is complete. A genuine new
			// attempt always carries a higher number.
			c.connMu.Unlock()
			c.event("conn-stale-req", peer, svc.Now())
			return
		}
	}

	c.maybeEvictLocked(peer, svc.Now())
	qp, qerr := c.cfg.HCA.TryCreateQP(ib.RC, svc, c.cq, c.cq)
	if qerr != nil {
		// Admission control: the adapter is at its queue-pair cap and idle
		// eviction freed nothing. Reject the request; the client retries
		// after backoff (retry-after semantics that compose with eviction —
		// each retry lands after more connections have gone idle), or aborts
		// when we can prove no future attempt can ever be admitted.
		fatal := c.cfg.HCA.QPImpossible()
		c.statMu.Lock()
		c.stats.AllocFailures++
		c.stats.AdmissionRejects++
		c.statMu.Unlock()
		// The collision-loser branch above may have left the slot
		// connConnecting with no QP; normalize it so a later local post
		// restarts cleanly instead of queueing forever, and restart the
		// handshake ourselves when traffic is already queued behind it.
		if cn.state == connConnecting && cn.qp == nil {
			cn.state = connNone
		}
		pend := cn.state == connNone && len(cn.pending) > 0
		flag := byte(0)
		if fatal {
			flag = 1
		}
		rej := connMsg{Kind: msgConnRej, SrcRank: int32(c.cfg.Rank), Seq: m.Seq,
			UD: c.udQP.Addr(), Payload: []byte{flag}}
		c.connMu.Unlock()
		c.event("conn-admission-rej", peer, svc.Now())
		c.sendControl(peer, m.UD, rej, svc)
		if pend {
			go c.initiate(peer)
		}
		return
	}
	qp.SetObs(c.obs)
	c.obs.Emit(svc.Now(), obs.LayerIB, "qp-create-rc", peer, 0)
	c.countQP(ib.RC)
	qp.SetPath(c.pickRailsLocked(m.RC.LID, svc.Now()))
	if qp.ToInit() != nil || qp.ToRTR(m.RC) != nil || qp.ToRTS() != nil {
		c.connMu.Unlock()
		return
	}
	cn.qp = qp
	c.mapQPLocked(qp, peer)
	cn.peerUD = m.UD
	cn.seq = m.Seq
	if m.Seq > cn.seqHi {
		cn.seqHi = m.Seq
	}
	cn.firstTx = svc.Now()
	cn.lastTx = timeNow()
	cn.attempt = 0
	c.consumePayloadLocked(cn, peer, c.stripSessionPayloadLocked(cn, m.Payload, svc.Now()), svc.Now())
	cn.state = connAccepted
	rep := connMsg{Kind: msgConnRep, SrcRank: int32(c.cfg.Rank), Seq: m.Seq,
		RC: qp.Addr(), UD: c.udQP.Addr(), Payload: c.connPayloadLocked(peer)}
	c.armTimerLocked()
	c.connMu.Unlock()
	c.event("conn-req-served", peer, svc.Now())
	c.sendControl(peer, m.UD, rep, svc)
}

// handleRep is the client side completing the handshake: move our QP to
// RTR/RTS against the server's endpoint, consume the server's payload, flush
// queued traffic and confirm with RTU.
func (c *Conduit) handleRep(m connMsg, svc *vclock.Clock) {
	peer := int(m.SrcRank)
	if peer < 0 || peer >= c.cfg.NProcs {
		return
	}
	c.connMu.Lock()
	cn := c.conns.get(peer)
	if cn == nil {
		c.connMu.Unlock()
		return
	}
	switch cn.state {
	case connReady:
		if m.Seq == cn.seq {
			if cn.qp != nil && m.RC == cn.qp.Remote() {
				// Duplicate reply (our RTU was lost): re-acknowledge.
				rtu := connMsg{Kind: msgConnRTU, SrcRank: int32(c.cfg.Rank), Seq: m.Seq,
					UD: c.udQP.Addr()}
				ud := cn.peerUD
				c.connMu.Unlock()
				c.sendControl(peer, ud, rtu, svc)
				return
			}
			// Same attempt number but a different server endpoint: the
			// server tore our connection down (eviction) and re-accepted on
			// a fresh QP, so the half we hold is dead. Fall through to the
			// divergence recovery below.
		}
		if m.Seq < cn.seq {
			c.connMu.Unlock()
			return // reply for an attempt we have since superseded
		}
		// The server replied for an attempt newer than our established
		// connection: it accepted a stale REQ of ours while our half looked
		// fine. The two sides have diverged — our connection is dead on the
		// server. Tear down and re-run the handshake so both sides converge
		// on a single connection; queued traffic survives the teardown.
		c.teardownLocked(cn)
		c.connMu.Unlock()
		c.statMu.Lock()
		c.stats.LinkFaults++
		c.statMu.Unlock()
		c.event("conn-stale-rep", peer, svc.Now())
		go c.initiate(peer)
		return
	case connConnecting:
		if m.Seq < cn.seq || cn.qp == nil {
			c.connMu.Unlock()
			return // stale attempt or reply raced our setup
		}
		// m.Seq == cn.seq is the normal case. m.Seq > cn.seq means the
		// server served a newer attempt than the one we are waiting on
		// (possible only through stale duplicates); its endpoint in the
		// reply is live either way, so adopt the server's number and bind —
		// any dead half on the server side recovers through the fault path.
		cn.seq = m.Seq
		if m.Seq > cn.seqHi {
			cn.seqHi = m.Seq
		}
		cn.qp.SetClock(svc) // paper Fig. 4: the manager thread drives RTR/RTS
		if cn.qp.ToRTR(m.RC) != nil || cn.qp.ToRTS() != nil {
			c.connMu.Unlock()
			return
		}
		cn.peerUD = m.UD
		cn.readyVT = svc.Now()
		c.consumePayloadLocked(cn, peer, c.stripSessionPayloadLocked(cn, m.Payload, cn.readyVT), cn.readyVT)
		cn.state = connReady
		c.nReady++
		recon := cn.everReady
		cn.everReady = true
		if cn.readyVT > c.lastReadyVT {
			c.lastReadyVT = cn.readyVT
		}
		// Client-perceived connect latency: first REQ transmission to ready.
		c.hConnect.Record(cn.readyVT - cn.firstTx)
		c.obs.Span(cn.firstTx, cn.readyVT, obs.LayerGasnet, "connect", peer, 0)
		flushed := c.flushLocked(cn, peer)
		rtu := connMsg{Kind: msgConnRTU, SrcRank: int32(c.cfg.Rank), Seq: m.Seq,
			UD: c.udQP.Addr()}
		ud := cn.peerUD
		c.connMu.Unlock()
		c.statMu.Lock()
		c.stats.ConnsEstablished++
		if recon {
			c.stats.Reconnects++
			c.led.Act("rc", c.cfg.Rank, svc.Now(), "reconnect")
		}
		c.statMu.Unlock()
		c.event("conn-ready-client", peer, svc.Now())
		if flushed {
			// Only acknowledge a connection that survived its flush; a flush
			// that hit a link fault already tore it down for re-handshaking.
			c.sendControl(peer, ud, rtu, svc)
		}
		c.connCond.Broadcast()
		return
	case connAccepted:
		if m.Seq < cn.seq {
			c.connMu.Unlock()
			return // stale reply from an attempt both sides have moved past
		}
		// Mutual-server deadlock: we are serving one of the peer's abandoned
		// attempts while the peer is serving one of ours — both halves are
		// bound to destroyed client QPs, both retransmit REPs, and neither
		// ever sees an RTU. Restart as a client with a fresh attempt number;
		// the peer's accept (or the collision rule, if it restarts too) takes
		// it from there. Queued traffic survives the teardown.
		c.teardownLocked(cn)
		c.connMu.Unlock()
		c.event("conn-mutual-accept", peer, svc.Now())
		go c.initiate(peer)
		return
	case connNone:
		if m.Seq < cn.seqHi {
			c.connMu.Unlock()
			return // long-delayed reply from an attempt we tore down; ignore
		}
		// The server is answering our latest attempt, but we no longer have
		// one: we went ready, our RTU was lost, and the connection was then
		// torn down locally (eviction) before the server's retransmitted
		// reply arrived. The server sits in accepted — possibly with queued
		// traffic — retransmitting a reply nobody is waiting for, bound to a
		// QP we destroyed. Re-run the handshake: our higher-numbered request
		// supersedes the wedged accept and flushes its queue.
		c.connMu.Unlock()
		c.event("conn-rescue-accept", peer, svc.Now())
		go c.initiate(peer)
		return
	default:
		c.connMu.Unlock()
	}
}

// handleRTU completes the server side: the client is ready-to-send, so the
// connection becomes usable and queued traffic flushes.
func (c *Conduit) handleRTU(m connMsg, svc *vclock.Clock) {
	peer := int(m.SrcRank)
	if peer < 0 || peer >= c.cfg.NProcs {
		return
	}
	c.connMu.Lock()
	cn := c.conns.get(peer)
	if cn == nil || cn.state != connAccepted || m.Seq != cn.seq {
		c.connMu.Unlock()
		return
	}
	cn.state = connReady
	cn.readyVT = svc.Now()
	c.nReady++
	recon := cn.everReady
	cn.everReady = true
	if cn.readyVT > c.lastReadyVT {
		c.lastReadyVT = cn.readyVT
	}
	c.obs.Span(cn.firstTx, cn.readyVT, obs.LayerGasnet, "connect-accept", peer, 0)
	c.flushLocked(cn, peer)
	c.connMu.Unlock()
	c.statMu.Lock()
	c.stats.ConnsEstablished++
	if recon {
		c.stats.Reconnects++
		c.led.Act("rc", c.cfg.Rank, svc.Now(), "reconnect")
	}
	c.statMu.Unlock()
	c.event("conn-ready-server", peer, svc.Now())
	c.connCond.Broadcast()
}

// handleRej is the client side of admission control: the server refused our
// connection request at its queue-pair cap. A fatal rejection — the server
// proved no future attempt can ever be admitted — aborts the job with
// ExitResourceExhausted, as does a slot that keeps being rejected past
// maxAdmissionRejects. Otherwise the attempt stays in connConnecting with
// its backoff advanced and — crucially — its queue pair RELEASED (rejWait),
// and the retransmission timer re-allocates an endpoint and re-sends the REQ
// later: retry-after semantics, each retry landing after more of the
// server's connections have had a chance to go idle and be evicted. The
// release mirrors IB CM REJ semantics and breaks the mutual-pinning
// livelock where two saturated adapters each hold a rejected half-open QP
// the other needs freed before it can ever admit.
func (c *Conduit) handleRej(m connMsg, svc *vclock.Clock) {
	peer := int(m.SrcRank)
	if peer < 0 || peer >= c.cfg.NProcs {
		return
	}
	fatal := len(m.Payload) > 0 && m.Payload[0] != 0
	c.connMu.Lock()
	cn := c.conns.get(peer)
	if cn == nil || cn.state != connConnecting || m.Seq != cn.seq {
		c.connMu.Unlock()
		return // rejection of an attempt we have since abandoned or completed
	}
	cn.rejCount++
	if fatal || cn.rejCount > maxAdmissionRejects {
		ae := &AbortError{Origin: c.cfg.Rank, Dead: -1, Code: ExitResourceExhausted,
			Reason: fmt.Sprintf("rank %d: connection to peer %d rejected %d times (fatal=%v): peer's queue-pair budget exhausted",
				c.cfg.Rank, peer, cn.rejCount, fatal)}
		c.connMu.Unlock()
		c.event("conn-rej-fatal", peer, svc.Now())
		c.Abort(ae)
		return
	}
	cn.attempt++
	cn.lastTx = timeNow()
	if cn.qp != nil {
		cn.qp.Destroy()
		cn.qp = nil
	}
	cn.rejWait = true
	c.armTimerLocked()
	c.connMu.Unlock()
	c.event("conn-rejected", peer, svc.Now())
}

// flushLocked posts the traffic queued behind the handshake, in order. Each
// queued request departs at max(its enqueue time, the connection-ready
// time), accumulating post overheads on a dedicated flush clock.
//
// If the connection dies mid-flush (a link flap can hit the very first
// post), the unflushed remainder is kept queued, the connection is torn down
// and a fresh client handshake is kicked off, so every queued request is
// still delivered exactly once. Returns false in that case.
func (c *Conduit) flushLocked(cn *conn, peer int) bool {
	if c.lossy && len(cn.unacked) > 0 {
		// Replay the retained frames first, before anything newly queued: the
		// receiver's dedup ledger suppresses what it already executed, and a
		// delivery the old connection corrupted or tore is overwritten by this
		// clean replay before any Quiet can complete.
		if !c.resendUnackedLocked(cn, peer, vclock.NewClock(cn.readyVT)) {
			return false
		}
	}
	if len(cn.pending) == 0 {
		return true
	}
	fc := vclock.NewClock(cn.readyVT)
	for i, p := range cn.pending {
		// First-op penalty: how long the queued request waited on the
		// handshake (zero when the request was enqueued after ready).
		if pen := cn.readyVT - p.enq; pen > 0 {
			c.hFirstOp.Record(pen)
		} else {
			c.hFirstOp.Record(0)
		}
		fc.AdvanceTo(p.enq)
		wr := p.wr
		wr.Clk = fc
		post := func() error {
			if c.lossy && wr.Op == ib.OpSend {
				// Queued sends were never framed (p.wr keeps the caller's
				// bytes); they take a fresh sequence now, on the flush clock.
				return c.postFramedLocked(cn, wr, fc)
			}
			return c.postRNR(cn.qp, wr)
		}
		err := post()
		if err != nil && errors.Is(err, ib.ErrPathDown) && c.tryMigrateLocked(cn, peer) {
			// The primary rail died mid-flush but APM found a live alternate:
			// one in-place retry (a failed framed post rolled its sequence
			// back, so the number is safe to reuse).
			err = post()
		}
		if err != nil {
			pathDown := errors.Is(err, ib.ErrPathDown)
			if !isLinkFault(err) && !pathDown {
				// Non-recoverable local fault (e.g. MTU): drop the request as
				// a direct post would, keep flushing the rest.
				continue
			}
			// The queue pair (or its last live path) failed underneath us;
			// keep the remainder queued behind a replacement connection.
			cn.pending = cn.pending[i:]
			c.teardownLocked(cn)
			c.statMu.Lock()
			if pathDown {
				c.stats.RailFailovers++
			} else {
				c.stats.LinkFaults++
			}
			c.statMu.Unlock()
			if pathDown {
				c.event("rail-failover", peer, c.mgrClk.Now())
				c.led.Detect("net", -1, c.mgrClk.Now(), "path-error")
				c.led.Act("net", -1, c.mgrClk.Now(), "rail-failover")
			} else {
				c.event("conn-link-fault", peer, c.mgrClk.Now())
			}
			go c.initiate(peer)
			return false
		}
	}
	cn.pending = nil
	return true
}

// armTimerLocked schedules a retransmission scan if one is not pending.
// Retransmission exists for lossy fabrics (see ib.Fabric.Lossy) and for
// budgeted adapters (see ib.HCA.Limited), where an admission-rejected
// request must be re-sent after backoff; an unbudgeted lossless run never
// arms the timer, keeping its trace byte-identical to the historical one.
func (c *Conduit) armTimerLocked() {
	if c.timerOn || c.closed.Load() ||
		!(c.cfg.HCA.Fabric().Lossy() || c.cfg.HCA.Limited()) {
		return
	}
	c.timerOn = true
	c.timer = time.AfterFunc(c.retrans.Interval, c.retransScan)
}

// retransScan resends REQ (client, awaiting REP) and REP (server, awaiting
// RTU) for connections still in flight. Each retransmission charges the
// virtual retransmission timeout so fault-injected runs remain causally
// plausible.
func (c *Conduit) retransScan() {
	if c.closed.Load() {
		return
	}
	type tx struct {
		peer int
		ud   ib.Dest
		m    connMsg
		at   int64 // virtual retransmission time (deterministic per attempt)
	}
	type windowProbe struct {
		peer  int
		txSeq uint64
	}
	var resend []tx
	var reinit []int
	var probes []windowProbe
	recycled := false
	c.connMu.Lock()
	c.timerOn = false
	now := timeNow()
	scan := func(peer int, cn *conn) {
		if c.lossy && len(cn.unacked) > 0 {
			switch {
			case cn.state == connReady && now.Sub(cn.lastData) >= c.rtoFor(cn.dataAttempt):
				// RTO: no cumulative ACK progress since the last framed post.
				// Either the frames or their acknowledgements were lost on the
				// UD side; replay — the ledger absorbs any duplicates.
				cn.lastData = now
				cn.dataAttempt++
				c.resendUnackedLocked(cn, peer, vclock.NewClock(c.mgrClk.Now()))
			case cn.state == connNone && len(cn.pending) == 0 &&
				now.Sub(cn.lastData) >= c.rtoFor(cn.dataAttempt):
				// A torn-down connection retaining frames with nothing queued
				// to trigger a reconnect. Left alone, the retained window (and
				// any Quiet on it) would hang forever — but a post that
				// succeeded was delivered (an errored post rolls its sequence
				// back), so in the common case only the acknowledgement was
				// the casualty and the frames need trimming, not resending.
				// Probe the peer's cumulative sequence over UD: no queue-pair
				// budget is consumed, and under eviction churn the probes
				// cannot stampede the peer's admission control the way
				// replay reconnects did. Only if the reply leaves frames
				// retained — data genuinely missing — does handleDataAck
				// restart the handshake. Throttled by the RTO backoff.
				cn.lastData = now
				cn.dataAttempt++
				probes = append(probes, windowProbe{peer, cn.txSeq})
			}
		}
		if cn.state != connConnecting && cn.state != connAccepted {
			return
		}
		if cn.state == connConnecting && cn.qp == nil && !cn.rejWait {
			return // still resolving the UD endpoint
		}
		deadAccept := cn.state == connAccepted && cn.qp != nil && !c.remoteQPAlive(cn.qp.Remote())
		if deadAccept || cn.attempt >= recycleAttempts {
			// Recycle a handshake that can no longer (dead client endpoint:
			// the client abandoned the attempt, no RTU can ever arrive) or
			// evidently will not (attempt bound exceeded) complete. The slot
			// is torn down; with queued traffic we become the client of a
			// fresh attempt, without it the slot goes idle until someone
			// needs it. This is the convergence backstop for fault
			// interleavings the message-level guards don't cover.
			c.teardownLocked(cn)
			recycled = true
			if len(cn.pending) > 0 || len(cn.unacked) > 0 {
				reinit = append(reinit, peer)
			}
			c.event("conn-recycle", peer, c.mgrClk.Now())
			return
		}
		if now.Sub(cn.lastTx) < c.rtoFor(cn.attempt) {
			return // not yet stale; avoid duplicate floods during bulk setup
		}
		if cn.qp == nil {
			// Re-arm a rejected attempt (rejWait): the endpoint was released
			// while backing off; allocate a fresh one non-blockingly — if the
			// budget is still full, charge the failure and let the next scan
			// (or the recycle bound, whose re-initiate runs the full fatal
			// ladder) try again.
			c.maybeEvictLocked(peer, c.mgrClk.Now())
			qp, err := c.cfg.HCA.TryCreateQP(ib.RC, c.mgrClk, c.cq, c.cq)
			if err != nil {
				c.statMu.Lock()
				c.stats.AllocFailures++
				c.statMu.Unlock()
				cn.attempt++
				cn.lastTx = now
				return
			}
			qp.SetObs(c.obs)
			c.obs.Emit(c.mgrClk.Now(), obs.LayerIB, "qp-create-rc", peer, 0)
			c.countQP(ib.RC)
			qp.SetPath(c.pickRailsLocked(cn.peerUD.LID, c.mgrClk.Now()))
			if e := qp.ToInit(); e != nil {
				qp.Destroy()
				return
			}
			// The re-sent REQ advertises a new queue pair, so it must carry a
			// fresh attempt number: a server that admitted the old number's
			// endpoint would otherwise bind to the QP we just destroyed.
			if cn.seqHi > cn.seq {
				cn.seq = cn.seqHi
			}
			cn.seq++
			cn.seqHi = cn.seq
			cn.qp = qp
			c.mapQPLocked(qp, peer)
			cn.rejWait = false
			c.event("conn-rearm", peer, c.mgrClk.Now())
		}
		cn.attempt++
		cn.lastTx = now
		// Each retransmission is charged at a virtual time derived from the
		// attempt's first transmission and the attempt count alone, so the
		// resend timestamps do not depend on when the wall-clock scan fired.
		// It must also never lag the manager clock: a handshake that began
		// just inside a partition window would otherwise replay its REQ at
		// in-window virtual times forever — blackholed every attempt — while
		// the detector (whose probes ride the manager clock) has already
		// warped past the heal and sees the peer as healthy.
		at := cn.firstTx + int64(cn.attempt)*c.model.ConnRetransmitTimeout
		if mnow := c.mgrClk.Now(); mnow > at {
			at = mnow
		}
		c.mgrClk.AdvanceTo(at)
		kind := msgConnReq
		if cn.state == connAccepted {
			kind = msgConnRep
		}
		resend = append(resend, tx{peer, cn.peerUD, connMsg{Kind: kind,
			SrcRank: int32(c.cfg.Rank), Seq: cn.seq, RC: cn.qp.Addr(),
			UD: c.udQP.Addr(), Payload: c.connPayloadLocked(peer)}, at})
	}
	c.conns.each(scan)
	if c.hasPendingLocked() || c.hasUnackedLocked() {
		c.armTimerLocked()
	}
	if recycled {
		// A drain (Close) may be waiting for the recycled slots to settle.
		c.connCond.Broadcast()
	}
	c.connMu.Unlock()
	for _, peer := range reinit {
		c.initiate(peer)
	}
	for _, p := range probes {
		c.sendDataCtl(p.peer, msgDataProbe, p.txSeq, c.mgrClk.Now())
	}
	if len(resend) > 0 {
		c.statMu.Lock()
		c.stats.Retransmits += len(resend)
		c.statMu.Unlock()
	}
	for _, t := range resend {
		c.event("conn-retransmit", t.peer, t.at)
		c.led.Act("ud", c.cfg.Rank, t.at, "retransmit")
		c.sendControl(t.peer, t.ud, t.m, vclock.NewClock(t.at))
	}
}

// ConnectAll eagerly establishes the fully connected process group: the
// static baseline. Each PE initiates to itself and to every higher rank
// (lower ranks initiate to us), then waits until one ready connection per
// peer exists. Must be called after SetReady and ExchangeEndpoints.
func (c *Conduit) ConnectAll() error {
	if err := c.checkAlive(); err != nil {
		return err
	}
	for peer := c.cfg.Rank; peer < c.cfg.NProcs; peer++ {
		if err := c.initiate(peer); err != nil {
			return err
		}
	}
	c.connMu.Lock()
	for c.nReady < c.cfg.NProcs {
		if err := c.LivenessErr(); err != nil {
			c.connMu.Unlock()
			return err
		}
		c.connCond.Wait()
	}
	ready := c.lastReadyVT
	c.connMu.Unlock()
	// Establishment completes when the last handshake does.
	c.clk.AdvanceTo(ready)
	return nil
}
