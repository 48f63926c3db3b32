package gasnet

import "goshmem/internal/ib"

// The connection handshake (paper Fig. 4 plus the RTU leg) as one pure
// transition function: step(slot, event) returns the next slot and the
// actions the driver (connmgr.go: driveLocked) must carry out, in order. Nothing in
// this file touches a lock, a clock, the fabric or the conduit — every fact a
// decision needs arrives as a plain value in the event — so each guard is one
// labelled row and small configurations can be explored exhaustively
// (fsm_test.go). This table is the protocol's specification; DESIGN.md §5
// keeps only the reasons.

type connState uint8

const (
	connNone       connState = iota
	connConnecting           // client: REQ sent (or being prepared), waiting for REP
	connAccepted             // server: REP sent, waiting for RTU
	connReady
)

// maxAdmissionRejects bounds the admission REJs one slot absorbs across its
// lifetime before the client concludes it will never be admitted.
const maxAdmissionRejects = 100

// slot is the handshake state of one peer's connection slot.
type slot struct {
	state     connState
	rejWait   bool // connecting client released its QP after a REJ; the timer re-arms it
	everReady bool // reached ready at least once (a later ready is a reconnect)
	gotPay    bool // the peer's piggybacked payload was handed to the upper layer
	hasQP     bool
	rejCount  uint8  // admission REJs absorbed (at most maxAdmissionRejects+1); survives teardown
	attempt   uint16 // retransmissions of the current leg
	seq       uint32 // attempt number of the current (or last) handshake
	seqHi     uint32 // highest attempt number ever used on this slot; never reused
	remote    ib.Dest
}

type evKind uint8

const (
	evWant        evKind = iota // local traffic (or a recovery path) wants a connection
	evQPAllocated               // the QP a row (or the client ladder) asked for is in the driver's hand
	evQPRefused                 // ... or the client gave up getting one (lookup failed, budget refused)
	evReq                       // wire messages: seq, and rc = the sender's RC endpoint
	evRep
	evRTU
	evRej
	evTimeout   // retransmission scan tick
	evLinkFault // a post on the ready connection failed underneath us
	evEvict     // LRU / pressure-relief eviction picked this slot
	evPeerDead  // the failure detector (or our own crash) condemned the peer
)

type event struct {
	kind  evKind
	after evKind // evQPAllocated/evQPRefused: the event whose row wanted the QP
	seq   uint32
	rc    ib.Dest

	// Facts, gathered by the driver under its lock.
	self           bool // the peer is this PE
	weAreLowerRank bool // collision tie-break: the lower rank's REQ wins
	peReady        bool // this PE registered its segments and serves REQs
	remoteQPAlive  bool // the endpoint a REQ advertises / an accept is bound to still exists
	connHealthy    bool // both halves of the ready connection are alive
	hasQueued      bool // work is queued behind the slot that only a new handshake delivers
	hasRetained    bool // unacknowledged session frames are retained for the peer
	fatal          bool // evRej / refused REQ: the server can never admit the client
	pathDown       bool // evLinkFault: every loaded path failed, the QPs are healthy
}

// An action is one byte and a row's list of them one word, first action in
// the highest occupied byte, so step builds its answer in registers: it runs
// on every PE's progress goroutine, and a frame of temporaries there costs
// each new goroutine a stack growth on its first handshake.
type action uint8

const (
	actSendReq    action = iota + 1 // REQ{seq, our RC endpoint, payload}
	actSendRep                      // REP{seq, our RC endpoint, payload}
	actSendRTU                      // RTU{seq}
	actSendRej                      // REJ{the REQ's seq, fatality flag}
	actResend                       // re-send the current leg at its retransmission virtual time
	actAllocQP                      // evict under the cap and try to allocate; always last: the answer is the next event
	actAdoptQP                      // install the QP in hand (one no row adopts is destroyed)
	actBindQP                       // RTR/RTS against the peer's endpoint
	actConsume                      // hand the peer's payload to the upper layer
	actReady                        // the one "became ready" epilogue
	actFlush                        // replay retained frames, post queued work; a fault ends the row
	actHold                         // keep the REQ for replay at SetReady
	actTeardown                     // destroy the slot's QPs, start a new teardown generation
	actReinitiate                   // start a fresh client attempt (asynchronously)
	actArmTimer                     // stamp the transmission (the first of a leg also in virtual time), arm the scan
	actAbort                        // raise ExitResourceExhausted

	actEmit  action = 32 // + i: trace event emitKinds[i]
	actCount action = 64 // + i: bump the counter counters[i] selects
)

type actions uint64

const none actions = 0

func do(a action) actions { return actions(a) }

func (r actions) then(a action) actions { return r<<8 | actions(a) }

func (r actions) when(cond bool, a action) actions {
	if cond {
		return r.then(a)
	}
	return r
}

// emitKinds are the trace events the table emits.
var emitKinds = [...]string{
	"conn-initiate", "conn-req-served", "conn-rearm", "conn-admission-rej",
	"conn-stale-req", "conn-reconnect-req", "conn-collision-lost",
	"conn-stale-rep", "conn-rej-fatal", "conn-rejected", "conn-recycle",
	"conn-link-fault", "rail-failover", "conn-evict",
}

func emit(kind string) action {
	for i, k := range emitKinds {
		if k == kind {
			return actEmit + action(i)
		}
	}
	panic("gasnet: fsm emits unlisted event kind " + kind)
}

// counters selects the Stats field a count action bumps.
var counters = [...]func(*Stats) *int{
	func(s *Stats) *int { return &s.LinkFaults },
	func(s *Stats) *int { return &s.RailFailovers },
	func(s *Stats) *int { return &s.Evictions },
	func(s *Stats) *int { return &s.AdmissionRejects },
}

const (
	countLinkFaults = actCount + iota
	countRailFailovers
	countEvictions
	countAdmissionRejects
)

// torn is the slot after a teardown: no connection, no QP, no REJ back-off.
// Attempt numbers, the REJ tally and the payload latch survive.
func (s slot) torn() slot {
	s.state, s.hasQP, s.rejWait = connNone, false, false
	return s
}

// nextAttempt takes a fresh attempt number. Numbers are never reused, even
// across abandoned attempts, so a delayed duplicate of an old REQ always
// compares below any live attempt.
func (s slot) nextAttempt() slot {
	if s.seqHi > s.seq {
		s.seq = s.seqHi
	}
	s.seq++
	s.seqHi = s.seq
	return s
}

// bound is the slot bound to the peer's endpoint rc under the peer's attempt
// number seq; the payload that came with it is consumed at most once.
func (s slot) bound(st connState, seq uint32, rc ib.Dest) slot {
	s.state, s.seq, s.remote, s.hasQP, s.gotPay = st, seq, rc, true, true
	if seq > s.seqHi {
		s.seqHi = seq
	}
	return s
}

// step is the whole protocol. Rows are tried top to bottom within an event.
func step(s slot, ev event) (slot, actions) {
	inFlight := s.state == connConnecting || s.state == connAccepted
	served := s.state == connAccepted || s.state == connReady
	mine := s.state == connConnecting && s.seq == ev.seq && !s.hasQP // our client attempt, still waiting for its QP
	switch ev.kind {

	case evWant:
		if s.state != connNone {
			return s, none // already ready or on its way
		}
		s.state = connConnecting // holds the slot while the driver resolves the peer and allocates
		if !ev.self {
			s = s.nextAttempt()
		}
		return s, none

	case evQPAllocated:
		switch {
		case ev.after == evReq: // server accept (Fig. 4, left column)
			a := do(actAdoptQP).then(actBindQP).when(!s.gotPay, actConsume)
			s = s.bound(connAccepted, ev.seq, ev.rc)
			s.attempt = 0
			return s, a.then(actArmTimer).then(emit("conn-req-served")).then(actSendRep)
		case ev.after == evTimeout: // REJ back-off over: a new QP needs a new attempt number
			s = s.nextAttempt()
			s.hasQP, s.rejWait = true, false
			s.attempt++
			return s, do(actAdoptQP).then(emit("conn-rearm")).then(actResend)
		case !mine: // superseded while the ladder slept: we lost a collision and serve the peer's
			return s, none
		case ev.self: // loopback: both ends are ours
			a := do(actAdoptQP).then(actBindQP).when(!s.gotPay, actConsume)
			s = s.bound(connReady, s.seq, s.remote)
			s.everReady = true
			return s, a.then(actReady).then(actFlush)
		}
		s.attempt, s.hasQP = 0, true // Fig. 4, right column
		return s, do(actAdoptQP).then(actArmTimer).then(emit("conn-initiate")).then(actSendReq)

	case evQPRefused:
		switch {
		case ev.after == evReq: // admission control: reject, the client retries after back-off
			if s.state == connConnecting && !s.hasQP {
				s = s.torn() // a collision loser left without an endpoint
			}
			return s, do(countAdmissionRejects).then(emit("conn-admission-rej")).then(actSendRej).when(s.state == connNone && ev.hasQueued, actReinitiate)
		case ev.after == evTimeout: // still no room: try again next back-off
			s.attempt++
			return s, do(actArmTimer)
		case mine: // the client gave up; its caller reports why
			return s.torn(), none
		}
		return s, none

	case evReq:
		switch {
		case ev.self:
			return s, none
		case !ev.peReady: // held-until-ready (paper IV-E)
			return s, do(actHold)
		case !ev.remoteQPAlive: // stale-REQ: advertises an endpoint its sender destroyed
			return s, do(emit("conn-stale-req"))
		case served && ev.seq <= s.seq: // duplicate REQ: our REP was lost
			return s, do(actSendRep)
		case s.state == connReady && ev.connHealthy: // healthy-connection: delayed REQ of an abandoned attempt
			return s, do(emit("conn-stale-req"))
		case served: // the peer tore down and reconnects
			return s.torn(), do(actTeardown).then(emit("conn-reconnect-req")).then(actAllocQP)
		case s.state == connConnecting && ev.weAreLowerRank: // collision, we win: the peer serves ours
			return s, none
		case s.state == connConnecting: // collision, we lose: serve the peer's; queued work rides along
			s.hasQP = false
			return s, do(emit("conn-collision-lost")).then(actTeardown).then(actAllocQP)
		case ev.seq <= s.seq: // duplicate of an attempt served and since torn down
			return s, do(emit("conn-stale-req"))
		}
		return s, do(actAllocQP)

	case evRep:
		switch {
		case s.state == connReady && ev.seq == s.seq && ev.rc == s.remote: // duplicate REP: our RTU was lost
			return s, do(actSendRTU)
		case s.state == connReady && ev.seq < s.seq: // superseded attempt
			return s, none
		case s.state == connReady: // mismatched-endpoint: the server re-accepted; our half is dead
			return s.torn(), do(actTeardown).then(countLinkFaults).then(emit("conn-stale-rep")).then(actReinitiate)
		case s.state == connConnecting && (ev.seq < s.seq || !s.hasQP): // stale, or raced our setup
			return s, none
		case s.state == connConnecting: // Fig. 4, right column (a newer seq is adopted: its endpoint is live)
			a := do(actBindQP).when(!s.gotPay, actConsume)
			s = s.bound(connReady, ev.seq, ev.rc)
			s.everReady = true
			return s, a.then(actReady).then(actFlush).then(actSendRTU)
		}
		return s, none

	case evRTU:
		if s.state != connAccepted || ev.seq != s.seq {
			return s, none
		}
		s.state, s.everReady = connReady, true
		return s, do(actReady).then(actFlush)

	case evRej:
		if s.state != connConnecting || ev.seq != s.seq {
			return s, none // an attempt since abandoned or completed
		}
		s.rejCount++
		if ev.fatal || s.rejCount > maxAdmissionRejects {
			return s, do(emit("conn-rej-fatal")).then(actAbort)
		}
		// REJ back-off: release the QP (IB CM semantics — holding it would pin
		// the budget the server is waiting to see freed); the timer re-arms.
		s.attempt++
		s.hasQP, s.rejWait = false, true
		return s, do(actTeardown).then(actArmTimer).then(emit("conn-rejected"))

	case evTimeout:
		switch {
		case s.state == connNone && ev.hasRetained: // nothing queued to carry the retained frames: reconnect for the replay
			return s, do(actReinitiate)
		case !inFlight, s.state == connConnecting && !s.hasQP && !s.rejWait: // idle, or still resolving
			return s, none
		case s.state == connAccepted && !ev.remoteQPAlive: // recycle: the client abandoned the attempt, no RTU can come
			return s.torn(), do(actTeardown).then(emit("conn-recycle")).when(ev.hasQueued || ev.hasRetained, actReinitiate)
		case !s.hasQP: // REJ back-off over
			return s, do(actAllocQP)
		}
		s.attempt++
		return s, do(actResend)

	case evLinkFault:
		if s.state != connReady {
			return s, none // another reporter already recovered the slot
		}
		a := do(actTeardown).then(countLinkFaults).then(emit("conn-link-fault"))
		if ev.pathDown {
			a = do(actTeardown).then(countRailFailovers).then(emit("rail-failover"))
		}
		return s.torn(), a.when(ev.hasQueued, actReinitiate)

	case evEvict:
		if s.state != connReady {
			return s, none
		}
		return s.torn(), do(actTeardown).then(countEvictions).then(emit("conn-evict"))

	case evPeerDead:
		if s.state != connNone {
			return s.torn(), do(actTeardown)
		}
	}
	return s, none
}
