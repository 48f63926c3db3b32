package gasnet

import (
	"errors"
	"fmt"
	"sort"

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
	case msgConnRej:
		return "conn-rej"
	case msgDataAck:
		return "data-ack"
	}
	return "unknown"
}

// Retransmission runs on the job's timer queue (vclock.Sched), in virtual
// time: a handshake leg or a retained data window times out one
// CostModel.ConnRetransmitTimeout after it was last sent, and the timeout
// fires only once the job is otherwise stuck — so it means the message is
// lost, never that the host was slow, and needs no back-off (an admission
// REJ is contention, not loss: dueLocked).
const (
	// closeQuiet is how many consecutive timeouts may draw nothing from a
	// peer before Close stops waiting for it; maxQuiet is where the timeouts
	// themselves stop (see conn.quiet).
	closeQuiet = 8
	maxQuiet   = 100

	// rnrBackoffMaxShift caps the exponential virtual-time backoff applied
	// to receiver-not-ready retries, admission back-offs and refused
	// queue-pair allocations (delay = base << min(attempt,
	// rnrBackoffMaxShift)).
	rnrBackoffMaxShift = 6

	// qpAllocRetries bounds the client-side evict-and-retry ladder for a
	// budget-refused queue-pair allocation before the job gives up with
	// ExitResourceExhausted. Each retry re-runs idle eviction, so the bound
	// is hit only when the cap stays consumed by unevictable connections.
	qpAllocRetries = 256
)

// backoff is the exponential back-off every retry loop here uses:
// base << min(attempt, maxShift).
func backoff(base int64, attempt, maxShift int) int64 {
	if attempt > maxShift {
		attempt = maxShift
	}
	return base << attempt
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
		if !fab.RailLive(src, dst, r, vt) {
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
// leaves RTS. vt is the virtual time of the post the path refused: the
// alternate must be live then, or the retry would bounce straight back.
// Caller holds connMu.
func (c *Conduit) tryMigrateLocked(cn *conn, peer int, vt int64) bool {
	qp := cn.qp
	if qp == nil {
		return false
	}
	now := c.mgrClk.Now()
	if vt > now {
		now = vt
	}
	alt := qp.AltRail()
	if alt == qp.Rail() || !c.cfg.HCA.Fabric().RailLive(c.cfg.HCA.LID(), qp.Remote().LID, alt, now) {
		return false
	}
	if qp.Migrate() != nil {
		return false
	}
	c.stats.PathMigrations++
	c.event("path-migrate", peer, now)
	c.led.Detect("net", -1, now, "path-error")
	c.led.Act("net", -1, now, "path-migrate")
	return true
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

// remoteQP looks up the queue pair behind an advertised endpoint in the
// simulated fabric (nil once destroyed) — the simulator's stand-in for the
// zero-byte liveness probe a real conduit would post, or for what its CM
// learns from address resolution and the first retransmission timeout.
func (c *Conduit) remoteQP(d ib.Dest) *ib.QP {
	if h := c.cfg.HCA.Fabric().HCA(d.LID); h != nil {
		return h.QP(d.QPN)
	}
	return nil
}

// connHealthyLocked reports whether both halves of a ready connection are
// still alive: our QP is RTS and the remote QP it is bound to still exists
// and is usable. It lets the server distinguish a genuine reconnect request
// (the client always destroys its old QP first) from a delayed duplicate of
// an abandoned attempt. Caller holds connMu.
func (c *Conduit) connHealthyLocked(cn *conn) bool {
	if cn.qp == nil || cn.qp.State() != ib.StateRTS {
		return false
	}
	if rq := c.remoteQP(cn.qp.Remote()); rq != nil {
		st := rq.State()
		return st == ib.StateRTR || st == ib.StateRTS
	}
	return false
}

// remoteQPAlive reports whether the queue pair a handshake message advertises
// still exists and has not failed. A client abandons an attempt only by
// destroying its QP (collision loss, teardown), so a request advertising a
// dead endpoint is a delayed duplicate of an abandoned attempt: binding to it
// could never complete the handshake, and accepting it over connNone would
// wedge this side in accepted forever.
func (c *Conduit) remoteQPAlive(d ib.Dest) bool {
	q := c.remoteQP(d)
	return q != nil && q.State() != ib.StateError
}

// linkFaultLocked is the one epilogue for a failed post: classify the fault
// (a torn write whose prefix already landed at the target, or a work request
// the adapter gave up retrying, is counted here, whoever reports it), then —
// unless another reporter already recovered this generation — tear the
// connection down. requeue says the reporter leaves work queued behind the
// slot instead of retrying itself, so the slot must restart its own
// handshake. Every path dark (ib.ErrPathDown, no alternate to migrate to) is
// the rail-failover rung: the replacement handshake runs on the manager clock
// and its rail selection lands on a live rail when one exists, and blackholes
// until the partition heals when none does; the ledger stamps the failed
// post's own time, which the manager clock can lag. Caller holds connMu.
func (c *Conduit) linkFaultLocked(cn *conn, peer int, epoch uint64, err error, requeue bool, clk *vclock.Clock) {
	c.noteDataFault(err, clk)
	if cn.epoch != epoch {
		return
	}
	pathDown, now := errors.Is(err, ib.ErrPathDown), clk.Now()
	if pathDown {
		clk = c.mgrClk
	}
	c.driveLocked(cn, peer, event{kind: evLinkFault, pathDown: pathDown, hasQueued: requeue}, &driveIn{clk: clk})
	if pathDown && cn.epoch != epoch {
		c.led.Detect("net", -1, now, "path-error")
		c.led.Act("net", -1, now, "rail-failover")
	}
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
		c.evictLocked(victim, peer, vt, "conn-evict")
	}
}

// evictLocked tears an eviction victim down. A last-resort victim still
// retaining unacknowledged frames has its timeout — which reconnects for the
// replay — postponed by a full period from now, so the queue-pair slot the
// eviction just freed is not immediately reclaimed by the victim itself.
// Caller holds connMu.
func (c *Conduit) evictLocked(victim *conn, peer int, vt int64, what string) {
	c.driveLocked(victim, peer, event{kind: evEvict}, &driveIn{clk: vclock.NewClock(vt)})
	if victim.sess.retained() > 0 {
		victim.sess.lastData = vt
		c.armForLocked(victim)
	}
	c.led.Act("alloc", obs.InstJob, vt, what)
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
		if cn.sess.retained() > 0 {
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
	defer c.connMu.Unlock()
	victim, peer := c.pickVictimLocked(-1)
	if victim == nil {
		return false
	}
	c.evictLocked(victim, peer, vt, "relief-evict")
	return true
}

// payload returns the upper layer's connect payload, or nil.
func (c *Conduit) payload() []byte {
	if c.cfg.ConnectPayload == nil {
		return nil
	}
	return c.cfg.ConnectPayload()
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
		cn := c.conns.getOrCreate(peer)
		if cn.dead {
			c.connMu.Unlock()
			return ErrPeerDead
		}
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

// allocLadder is one client attempt and the state of its degradation ladder
// for a budget-refused queue pair: evict an idle connection and retry — after
// an exponential virtual-time back-off on the job's timer queue — while the
// budget could still free up, and abort the job with ExitResourceExhausted
// once forward progress is provably impossible: the adapter reports allocation
// can never succeed, or qpAllocRetries consecutive retries pass without a
// single queue pair being destroyed anywhere on the adapter (no other conduit
// is releasing endpoints either, so waiting longer cannot help). A busy
// adapter where other tenants churn endpoints resets the stall count — losing
// allocation races is contention, not exhaustion.
type allocLadder struct {
	peer      int
	seq       uint32  // the attempt being served; a superseded one ends the ladder
	ud        ib.Dest // the peer's resolved UD endpoint
	stalled   int
	destroyed int64 // the adapter's destroy count at the last refusal
}

// allocLocked carries client attempt l from "peer resolved" (or not: err) to
// its next event: with the endpoint(s) in hand — one queue pair, or both
// loopback ends for a connection to this PE itself — evQPAllocated; on a
// failed lookup or an exhausted ladder evQPRefused, the abort left in in for
// finish. A refusal that may yet clear arms the back-off timer instead and
// reports wait: the timer (allocRetry) drives the slot, so nobody blocks on
// the ladder — callers see a handshake in flight, exactly as while a REQ is
// out — and the caller, once it has released connMu, asks the adapter's other
// tenants for relief. Without that cross-process half of eviction, a PE whose
// node-local siblings pin the whole budget — but, being idle, never allocate
// and so never evict — reads the motionless destroy counter as exhaustion and
// aborts a perfectly recoverable job. Caller holds connMu.
func (c *Conduit) allocLocked(cn *conn, l *allocLadder, in *driveIn, err error) (wait bool, _ error) {
	ev := event{kind: evQPAllocated, after: evWant, seq: l.seq}
	if err == nil {
		if in.qp, err = c.tryAllocLocked(l.peer, in.clk); err == nil && l.peer == c.cfg.Rank {
			if in.loop, err = c.tryAllocLocked(l.peer, in.clk); err != nil {
				in.qp.Destroy()
				in.qp = nil
			}
		}
		if err != nil {
			if d := c.cfg.HCA.Stats().QPsDestroyed; d != l.destroyed {
				l.destroyed, l.stalled = d, 0
			} else {
				l.stalled++
			}
			if c.sched != nil && !c.cfg.HCA.QPImpossible() && l.stalled < qpAllocRetries {
				c.event("qp-alloc-retry", l.peer, in.clk.Now())
				next := *l
				c.sched.After(in.clk.Now()+backoff(c.model.RNRRetryDelay, l.stalled, rnrBackoffMaxShift),
					c.cfg.Rank, func(vt int64) { c.allocRetry(&next, vt) })
				return true, nil
			}
			ae := &AbortError{Origin: c.cfg.Rank, Dead: -1, Code: ExitResourceExhausted,
				Reason: fmt.Sprintf("rank %d: RC endpoint for peer %d unobtainable after eviction and retry: %v",
					c.cfg.Rank, l.peer, err)}
			c.event("qp-alloc-fatal", l.peer, in.clk.Now())
			in.later(deferred{ae: ae})
			err = ae
		}
	}
	if err != nil {
		ev.kind = evQPRefused
	}
	c.driveLocked(cn, l.peer, ev, in)
	return false, err
}

// allocRetry is the ladder's back-off timer: try again at vt, unless the
// attempt was superseded meanwhile (we lost a collision and serve the peer's).
func (c *Conduit) allocRetry(l *allocLadder, vt int64) {
	if c.closed.Load() {
		return
	}
	in := driveIn{clk: vclock.NewClock(vt), ud: l.ud}
	wait := false
	c.connMu.Lock()
	if cn := c.conns.get(l.peer); cn != nil && cn.state == connConnecting && cn.seq == l.seq && !cn.hasQP {
		wait, _ = c.allocLocked(cn, l, &in, nil)
	}
	c.connMu.Unlock()
	if wait {
		c.cfg.HCA.RequestRelief(vt)
	}
	c.finish(&in)
}

// initiate starts the client side of the handshake (paper Fig. 4). It owns
// the one step that genuinely blocks — resolving the peer's UD endpoint
// (completing the non-blocking PMI exchange if needed) — and reports each
// outcome to the transition table as an event; an incoming REQ from the same
// peer may meanwhile win the collision and turn this slot into the server
// side, in which case the table discards the client attempt. A connection to
// this PE itself (OpenSHMEM allows communication with one's own rank; the
// fully connected baseline counts it too) skips the lookup and allocates both
// loopback endpoints.
func (c *Conduit) initiate(peer int) error {
	in := driveIn{clk: c.clk}
	c.connMu.Lock()
	cn := c.conns.getOrCreate(peer)
	if cn.dead {
		c.connMu.Unlock()
		return ErrPeerDead
	}
	if cn.state != connNone {
		c.connMu.Unlock()
		return nil
	}
	c.driveLocked(cn, peer, event{kind: evWant}, &in)
	l := allocLadder{peer: peer, seq: cn.seq, destroyed: -1}
	var err error
	if peer != c.cfg.Rank {
		c.connMu.Unlock()
		in.ud, err = c.resolveUD(peer)
		c.connMu.Lock()
		if cn.state != connConnecting || cn.seq != l.seq {
			c.connMu.Unlock()
			return nil // superseded while resolving
		}
		l.ud = in.ud
	}
	wait, err := c.allocLocked(cn, &l, &in, err)
	c.connMu.Unlock()
	if wait {
		c.cfg.HCA.RequestRelief(c.clk.Now())
		return nil
	}
	if serr := c.finish(&in); err == nil {
		err = serr
	}
	if err != nil {
		// This PE may have been killed (or the job aborted) while we were
		// blocked above: the endpoints are gone and the sends fail, but what
		// the caller needs to hear is why.
		if lerr := c.LivenessErr(); lerr != nil {
			err = lerr
		}
	}
	return err
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
		// A frame whose framing does not add up is discarded here, before any
		// field could poison the connection or rkey tables.
		if errors.Is(err, errCorruptFrame) {
			c.bump(&c.stats.CorruptFrames, 1)
			c.event("ud-corrupt", -1, comp.VTime)
		}
		return
	}
	peer := int(m.SrcRank)
	if peer < 0 || peer >= c.cfg.NProcs {
		return // no such rank: nothing below may index by it
	}
	if c.arrivalFate(comp.VTime) != selfAlive {
		return // a killed or wedged PE's software handles nothing
	}
	c.noteAlive(peer, comp.VTime, m.Kind == msgHeartbeatAck)
	if c.obs.EventsEnabled() {
		c.obs.Emit(comp.VTime, obs.LayerGasnet, "ud-recv", peer, int64(len(comp.Data)),
			obs.Attr{Key: "msg", Val: msgName(m.Kind)})
	}
	svc := vclock.NewClock(comp.VTime)
	svc.Advance(c.model.ConnReqProcess)
	switch m.Kind {
	case msgConnReq:
		c.handleLeg(evReq, m, comp.VTime, svc)
	case msgConnRep:
		c.handleLeg(evRep, m, comp.VTime, svc)
	case msgConnRTU:
		c.handleLeg(evRTU, m, comp.VTime, svc)
	case msgConnRej:
		c.handleLeg(evRej, m, comp.VTime, svc)
	case msgDataAck:
		c.handleDataAck(peer, m.Payload, svc.Now())
	case msgHeartbeat:
		// Echo a liveness ack to the prober, on the manager thread.
		c.sendControl(peer, m.UD, connMsg{Kind: msgHeartbeatAck, SrcRank: int32(c.cfg.Rank),
			Seq: m.Seq, UD: c.udQP.Addr()}, svc)
	case msgHeartbeatAck:
		// The noteAlive above is the entire effect.
	}
	c.mgrClk.AdvanceTo(svc.Now())
}

// driveIn is what an event's source hands the driver besides the event: the
// things actions operate on but decisions never look at.
type driveIn struct {
	clk      *vclock.Clock // service clock: timestamps, QP transitions, replies
	m        connMsg       // the wire message being served (Kind 0: none)
	at       int64         // its virtual arrival time (kept with a held REQ); a timeout's deadline
	ud       ib.Dest       // client attempt: the peer's resolved UD endpoint
	qp, loop *ib.QP        // evQPAllocated: the endpoint(s) in hand
	payload  []byte        // the peer's upper-layer payload, set by the bind

	// What the transitions leave for finish, once connMu is released.
	first deferred   // work for finish, in order: most events leave at most one
	more  []deferred // ... and only the scan leaves many, so only it allocates
	nout  int
	wake  bool // a slot became ready or was torn down: wake connCond's waiters
	// relief: the adapter refused a queue pair to a row that wanted one (an
	// admission REJ, a re-arm). The refused side will be back after its
	// back-off, and time passes only while the job is stuck — so unless an
	// idle endpoint is released now, possibly by a sibling sharing the
	// adapter, it will be refused again, and again, until the REJ bound aborts
	// a perfectly recoverable job.
	relief bool
}

// later queues d for finish.
func (in *driveIn) later(d deferred) {
	if in.nout++; in.nout == 1 {
		in.first = d
	} else {
		in.more = append(in.more, d)
	}
}

// deferred is what a transition leaves to do once connMu is released: a
// control datagram to send, or (ae set) the job abort to raise.
type deferred struct {
	peer int
	ud   ib.Dest
	m    connMsg
	clk  *vclock.Clock
	ae   *AbortError
}

// handleLeg serves one received handshake leg — REQ (the server side of
// Fig. 4), REP (the client completing), RTU (the server completing) or REJ
// (admission control) — by feeding it to its sender's slot: lock once, step,
// apply, unlock once, then send whatever the transition produced. svc is the
// per-message service clock, already charged with the processing cost, on
// which all work for the message is timed; at is the message's virtual
// arrival time, kept with a REQ that is held for SetReady to replay. Only a
// REQ may create the slot; a reply to nothing is dropped.
func (c *Conduit) handleLeg(kind evKind, m connMsg, at int64, svc *vclock.Clock) {
	peer := int(m.SrcRank)
	ev := event{kind: kind, seq: m.Seq, rc: m.RC}
	ev.fatal = kind == evRej && len(m.Payload) > 0 && m.Payload[0] != 0
	in := driveIn{clk: svc, m: m, at: at}
	c.connMu.Lock()
	cn := c.conns.get(peer)
	if cn == nil && kind == evReq {
		cn = c.conns.getOrCreate(peer)
	}
	if cn != nil {
		cn.quiet = 0
		c.driveLocked(cn, peer, ev, &in)
	}
	c.connMu.Unlock()
	c.finish(&in)
}

// finish does, with connMu released, what the transitions driven through in
// left behind: wake the waiters, then send (or abort) in order. It returns
// the first send error.
func (c *Conduit) finish(in *driveIn) (err error) {
	if in.wake {
		c.connCond.Broadcast()
	}
	if in.relief {
		c.cfg.HCA.RequestRelief(in.clk.Now())
	}
	for i := 0; i < in.nout; i++ {
		d := &in.first
		if i > 0 {
			d = &in.more[i-1]
		}
		if d.ae != nil {
			c.Abort(d.ae)
		} else if e := c.sendControl(d.peer, d.ud, d.m, d.clk); err == nil {
			err = e
		}
	}
	return err
}

// factsLocked fills in what step may ask about the world. Caller holds connMu.
func (c *Conduit) factsLocked(cn *conn, peer int, ev *event) {
	ev.self = peer == c.cfg.Rank
	ev.weAreLowerRank = c.cfg.Rank < peer
	ev.hasQueued = ev.hasQueued || len(cn.pending) > 0
	ev.hasRetained = cn.sess.retained() > 0
	switch ev.kind {
	case evReq:
		ev.peReady = c.ready.Load()
		ev.remoteQPAlive = c.remoteQPAlive(ev.rc)
		ev.connHealthy = cn.state == connReady && c.connHealthyLocked(cn)
	case evTimeout:
		ev.remoteQPAlive = cn.state != connAccepted || c.remoteQPAlive(cn.qp.Remote())
	}
}

// driveLocked is the one place handshake state changes: it steps cn's slot
// on ev and applies the resulting actions in order, leaving the sends (and an
// abort) in in for finish, after the caller unlocks. Caller holds connMu.
func (c *Conduit) driveLocked(cn *conn, peer int, ev event, in *driveIn) {
event: // a row that ends in actAllocQP is answered by a second event
	for {
		c.factsLocked(cn, peer, &ev)
		old := cn.slot
		var as actions
		cn.slot, as = step(old, ev)
		for sh := 56; sh >= 0; sh -= 8 {
			a := action(as >> sh)
			var err error
			switch a {
			case actSendReq, actSendRep, actSendRTU, actSendRej:
				c.legLocked(cn, peer, a, ev, in, in.clk)
			case actResend:
				c.resendLegLocked(cn, peer, in)
			case actAllocQP:
				ev = event{kind: evQPAllocated, after: ev.kind, seq: ev.seq, rc: ev.rc}
				if in.qp, err = c.tryAllocLocked(peer, in.clk); err != nil {
					ev.kind, ev.fatal = evQPRefused, c.cfg.HCA.QPImpossible()
					in.relief = true
				}
				continue event
			case actAdoptQP:
				err = c.adoptQPLocked(cn, peer, ev, in)
			case actBindQP:
				err = c.bindQPLocked(cn, ev, in)
			case actConsume:
				if c.cfg.OnConnectPayload != nil && in.payload != nil {
					// Under connMu, before the slot is visible as ready: observing
					// the connection implies the segment info (no calling back in).
					c.cfg.OnConnectPayload(peer, in.payload, in.clk.Now())
				}
			case actReady:
				c.readyLocked(cn, peer, ev.kind, old.everReady, in.clk.Now())
				in.wake = true
			case actFlush:
				if !c.flushLocked(cn, peer) {
					return // the flush hit a link fault and already re-drove the slot
				}
			case actHold:
				c.heldReqs = append(c.heldReqs, heldReq{m: in.m, at: in.at})
			case actTeardown:
				cn.releaseQPs()
				if old.state == connReady {
					c.nReady--
				}
				cn.epoch++
				cn.credit.reset() // the replacement connection starts with a full window
				in.wake = true
			case actReinitiate:
				c.sched.Go(func() { c.initiate(peer) })
			case actArmTimer:
				cn.lastTx = in.clk.Now()
				if cn.attempt == 0 {
					cn.firstTx = cn.lastTx
				}
				c.armForLocked(cn)
			case actAbort:
				in.later(deferred{ae: c.rejectedAbort(peer, int(cn.rejCount), ev.fatal)})
			default:
				if a >= actCount {
					*counters[a-actCount](&c.stats)++
				} else if a >= actEmit {
					c.event(emitKinds[a-actEmit], peer, in.clk.Now())
				}
			}
			if err != nil {
				// A queue-pair transition refused (it cannot, short of a bug in
				// the table): abandon the row and leave the slot restartable.
				cn.releaseQPs()
				cn.slot = cn.slot.torn()
				return
			}
		}
		break
	}
	destroyQPs(in.qp, in.loop) // allocated for a row that no longer wants them
	in.qp, in.loop = nil, nil
}

// rejectedAbort is the job abort a client raises when admission control will
// never let it in.
func (c *Conduit) rejectedAbort(peer, rejects int, fatal bool) *AbortError {
	return &AbortError{Origin: c.cfg.Rank, Dead: -1, Code: ExitResourceExhausted,
		Reason: fmt.Sprintf("rank %d: connection to peer %d rejected %d times (fatal=%v): peer's queue-pair budget exhausted",
			c.cfg.Rank, peer, rejects, fatal)}
}

// tryAllocLocked makes room under the live-QP cap and asks the adapter for
// an RC queue pair, without blocking. Caller holds connMu.
func (c *Conduit) tryAllocLocked(peer int, clk *vclock.Clock) (*ib.QP, error) {
	c.maybeEvictLocked(peer, clk.Now())
	qp, err := c.cfg.HCA.TryCreateQP(ib.RC, clk, c.cq, c.cq)
	if err != nil {
		c.stats.AllocFailures++
	}
	return qp, err
}

// releaseQPs destroys the slot's queue pairs, if any.
func (cn *conn) releaseQPs() {
	destroyQPs(cn.qp, cn.loopbk)
	cn.qp, cn.loopbk = nil, nil
}

func destroyQPs(qps ...*ib.QP) {
	for _, qp := range qps {
		if qp != nil {
			qp.Destroy()
		}
	}
}

// legLocked queues the handshake datagram of a send action, departing on clk
// for the peer's UD endpoint — a REJ for the rejected REQ's own return
// address, since the slot may never have bound to that client. Caller holds
// connMu.
func (c *Conduit) legLocked(cn *conn, peer int, op action, ev event, in *driveIn, clk *vclock.Clock) {
	d := deferred{peer: peer, ud: cn.peerUD, clk: clk,
		m: connMsg{Kind: msgConnRTU, SrcRank: int32(c.cfg.Rank), Seq: cn.seq, UD: c.udQP.Addr()}}
	switch op {
	case actSendReq, actSendRep:
		d.m.Kind = msgConnReq
		if op == actSendRep {
			d.m.Kind = msgConnRep
		}
		d.m.RC, d.m.Payload = cn.qp.Addr(), c.connPayloadLocked(cn)
	case actSendRej:
		d.ud = in.m.UD
		d.m.Kind, d.m.Seq, d.m.Payload = msgConnRej, ev.seq, []byte{0}
		if ev.fatal {
			d.m.Payload[0] = 1
		}
	}
	in.later(d)
}

// resendLegLocked retransmits the slot's current leg — REQ while connecting,
// REP while accepted — at the virtual time its timeout fell (in.at), so the
// resend's timestamps are a function of the leg's own transmission history
// and never of when the host got round to it. Caller holds connMu.
func (c *Conduit) resendLegLocked(cn *conn, peer int, in *driveIn) {
	at := in.at
	cn.lastTx = at
	c.armForLocked(cn)
	op := actSendReq
	if cn.state == connAccepted {
		op = actSendRep
	}
	c.stats.Retransmits++
	c.event("conn-retransmit", peer, at)
	c.led.Act("ud", c.cfg.Rank, at, "retransmit")
	c.legLocked(cn, peer, op, event{}, in, vclock.NewClock(at))
}

// adoptQPLocked installs the queue pair(s) in hand as the slot's endpoint —
// the one place an RC QP is dressed for use: observability, the creation
// event and count, rail selection (the loopback pair never leaves the
// adapter), the session layer's QPN map, INIT. Caller holds connMu.
func (c *Conduit) adoptQPLocked(cn *conn, peer int, ev event, in *driveIn) error {
	dst := cn.peerUD.LID // re-arm: the endpoint the original attempt resolved
	switch ev.after {
	case evReq:
		dst = ev.rc.LID
	case evWant:
		cn.peerUD, dst = in.ud, in.ud.LID
	}
	for _, qp := range [2]*ib.QP{in.qp, in.loop} {
		if qp == nil {
			continue
		}
		qp.SetObs(c.obs)
		c.obs.Emit(in.clk.Now(), obs.LayerIB, "qp-create-rc", peer, 0)
		c.stats.QPsCreated++
		c.stats.RCQPsCreated++
		if in.loop == nil {
			qp.SetPath(c.pickRailsLocked(dst, in.clk.Now()))
		}
	}
	cn.qp, cn.loopbk = in.qp, in.loop
	in.qp, in.loop = nil, nil
	if cn.loopbk != nil {
		return nil // bindQPLocked brings each loopback end up in turn
	}
	return cn.qp.ToInit()
}

// bindQPLocked connects the slot's endpoint to the peer's: RTR/RTS on the
// service clock (paper Fig. 4: the manager thread drives them), the peer's UD
// address for replies, and the upper layer's share of the piggybacked payload
// (the session prefix, if any, re-seeds the retransmission point). The
// loopback pair binds to itself. Caller holds connMu.
func (c *Conduit) bindQPLocked(cn *conn, ev event, in *driveIn) error {
	if cn.loopbk != nil {
		in.payload = c.payload()
		for _, e := range [2][2]*ib.QP{{cn.qp, cn.loopbk}, {cn.loopbk, cn.qp}} {
			if err := e[0].ToInit(); err != nil {
				return err
			}
			if err := e[0].ToRTR(e[1].Addr()); err != nil {
				return err
			}
			if err := e[0].ToRTS(); err != nil {
				return err
			}
		}
		return nil
	}
	cn.qp.SetClock(in.clk)
	if err := cn.qp.ToRTR(ev.rc); err != nil {
		return err
	}
	if err := cn.qp.ToRTS(); err != nil {
		return err
	}
	cn.peerUD = in.m.UD
	in.payload = c.stripSessionPayloadLocked(cn, in.m.Payload, in.clk.Now())
	return nil
}

// readyLocked is the one "connection became ready" epilogue. The queued
// traffic is flushed by the action that follows. Caller holds connMu.
func (c *Conduit) readyLocked(cn *conn, peer int, by evKind, recon bool, vt int64) {
	cn.readyVT, cn.sendVT = vt, vt
	c.nReady++
	if vt > c.lastReadyVT {
		c.lastReadyVT = vt
	}
	switch by {
	case evRep:
		// Client-perceived connect latency: first REQ transmission to ready.
		c.hConnect.Record(vt - cn.firstTx)
		c.obs.Span(cn.firstTx, vt, obs.LayerGasnet, "connect", peer, 0)
		c.event("conn-ready-client", peer, vt)
	case evRTU:
		c.obs.Span(cn.firstTx, vt, obs.LayerGasnet, "connect-accept", peer, 0)
		c.event("conn-ready-server", peer, vt)
	}
	c.stats.ConnsEstablished++
	if recon {
		c.stats.Reconnects++
		c.led.Act("rc", c.cfg.Rank, vt, "reconnect")
	}
}

// severed reports whether every rail to the adapter at lid is dark at virtual
// time vt — the pair is partitioned: datagrams blackhole, no reconnect can
// succeed — and, if so, when the schedule says it heals (-1: never).
func (c *Conduit) severed(lid uint16, vt int64) (dark bool, heal int64) {
	if !c.netFaulty || lid == 0 {
		return false, 0
	}
	return c.cfg.HCA.Fabric().Severed(c.cfg.HCA.LID(), lid, vt)
}

// dueLocked returns the virtual time of cn's next timeout, if it has one: one
// ConnRetransmitTimeout after the handshake leg in flight was last sent, or
// after the last framed post when frames are retained and nothing else is on
// its way to move them; a rejected client waits longer with every REJ. A timeout that
// would fall while the pair is partitioned is put off to the scheduled heal —
// resending into a blackhole proves nothing — and one behind a severance that
// never heals, or towards a peer quiet for maxQuiet timeouts, is not armed at
// all: that silence is the failure detector's to end. Caller holds connMu.
func (c *Conduit) dueLocked(cn *conn) (due int64, ok bool) {
	wait := c.model.ConnRetransmitTimeout
	switch {
	case cn.quiet >= maxQuiet:
		return 0, false
	case cn.state == connConnecting && cn.rejWait:
		// Admission back-off is contention, not loss: it grows with every
		// rejection, or budget-starved ranks retrying in lockstep would keep
		// rejecting each other until the REJ bound aborts the job.
		due, wait = cn.lastTx, backoff(wait, int(cn.attempt), rnrBackoffMaxShift)
	case cn.state == connAccepted, cn.state == connConnecting && cn.hasQP:
		due = cn.lastTx
	case cn.sess.retained() > 0 && (cn.state == connReady || cn.state == connNone && len(cn.pending) == 0):
		due = cn.sess.lastData
	default:
		return 0, false
	}
	due += wait
	if dark, heal := c.severed(cn.peerUD.LID, due); dark {
		if heal < 0 {
			return 0, false
		}
		due = heal
	}
	return due, true
}

// armForLocked makes sure the retransmission timer fires no later than cn's
// next timeout. Only a fabric that can lose a message or refuse an endpoint
// has a timer queue; a lossless, unbudgeted run arms nothing. Caller holds
// connMu.
func (c *Conduit) armForLocked(cn *conn) {
	if c.sched == nil || c.closed.Load() {
		return
	}
	if due, ok := c.dueLocked(cn); ok && (c.rtx == nil || due < c.rtxAt) {
		c.rtx.Stop()
		c.rtx, c.rtxAt = c.sched.After(due, c.cfg.Rank, c.retransScan), due
	}
}

// retransScan is the retransmission timer: every slot whose timeout has
// fallen by now gets it — the table resends the REQ or REP of a handshake
// still in flight, re-arms a rejected one, recycles one that cannot complete
// or reconnects a torn-down one that still retains frames; a ready connection
// replays its retained window — at the virtual time it fell, and the timer is
// re-armed for the earliest timeout left.
func (c *Conduit) retransScan(now int64) {
	if c.closed.Load() {
		return
	}
	c.mgrClk.AdvanceTo(now)
	var fallen []int
	in := driveIn{clk: c.mgrClk}
	c.connMu.Lock()
	c.rtx = nil
	c.conns.each(func(peer int, cn *conn) {
		if due, ok := c.dueLocked(cn); ok && due <= now {
			fallen = append(fallen, peer)
		}
	})
	sort.Ints(fallen) // what is sent in which order must not depend on map iteration
	for _, peer := range fallen {
		cn := c.conns.get(peer)
		due, _ := c.dueLocked(cn)
		if cn.quiet++; cn.quiet == closeQuiet {
			in.wake = true // Close may be waiting for exactly this
		}
		if cn.state == connReady || cn.state == connNone {
			cn.sess.lastData = due // a retained window's timeout: it starts over
		}
		if cn.state == connReady {
			// Either the frames or their acknowledgements were lost on the UD
			// side; replay — the ledger absorbs any duplicates.
			c.replayLocked(cn, peer, vclock.NewClock(due))
			continue
		}
		// A handshake leg — or a torn-down connection retaining frames with
		// nothing queued to trigger a reconnect, which now gets one: the
		// handshake's rxMax prefix trims what only lost its acknowledgement,
		// the flush replays the rest.
		in.at = due
		c.driveLocked(cn, peer, event{kind: evTimeout}, &in)
	}
	c.conns.each(func(_ int, cn *conn) { c.armForLocked(cn) })
	c.connMu.Unlock()
	c.finish(&in)
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
