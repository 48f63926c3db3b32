package gasnet

import (
	"sort"
	"strings"
	"testing"

	"goshmem/internal/ib"
)

var opNames = map[action]string{
	actSendReq: "send-req", actSendRep: "send-rep", actSendRTU: "send-rtu", actSendRej: "send-rej",
	actResend: "resend", actAllocQP: "alloc", actAdoptQP: "adopt", actBindQP: "bind",
	actConsume: "consume", actReady: "ready", actFlush: "flush", actHold: "hold",
	actTeardown: "teardown", actReinitiate: "reinit", actArmTimer: "arm", actAbort: "abort",
	countLinkFaults: "+LinkFaults", countRailFailovers: "+RailFailovers",
	countEvictions: "+Evictions", countAdmissionRejects: "+AdmissionRejects",
}

// list unpacks a row's actions in order.
func (r actions) list() []action {
	var out []action
	for sh := 56; sh >= 0; sh -= 8 {
		if a := action(r >> sh); a != 0 {
			out = append(out, a)
		}
	}
	return out
}

// describe renders an action list for comparison: ops and counters by name,
// emits as their event kind.
func describe(as actions) string {
	var out []string
	for _, a := range as.list() {
		if a >= actEmit && a < actCount {
			out = append(out, emitKinds[a-actEmit])
		} else {
			out = append(out, opNames[a])
		}
	}
	return strings.Join(out, " ")
}

// TestHandshakeStep pins the transition table row by row: one case per
// labelled row of step, including every guard.
func TestHandshakeStep(t *testing.T) {
	qpA, qpB := ib.Dest{LID: 1, QPN: 10}, ib.Dest{LID: 2, QPN: 20}
	none := slot{}
	torn := slot{seq: 3, seqHi: 5, everReady: true, gotPay: true, rejCount: 2}
	connecting := slot{state: connConnecting, seq: 4, seqHi: 4, hasQP: true}
	resolving := slot{state: connConnecting, seq: 4, seqHi: 4}
	backoff := slot{state: connConnecting, seq: 4, seqHi: 4, rejWait: true, attempt: 1, rejCount: 1}
	accepted := slot{state: connAccepted, seq: 4, seqHi: 4, hasQP: true, remote: qpB, gotPay: true}
	ready := slot{state: connReady, seq: 4, seqHi: 4, hasQP: true, remote: qpB, gotPay: true, everReady: true}
	live := event{peReady: true, remoteQPAlive: true}
	with := func(ev event, f func(*event)) event { f(&ev); return ev }
	req := func(seq uint32) event { e := live; e.kind, e.seq, e.rc = evReq, seq, qpB; return e }
	rep := func(seq uint32, rc ib.Dest) event { return event{kind: evRep, seq: seq, rc: rc} }

	cases := []struct {
		name string
		s    slot
		ev   event
		want slot
		acts string
	}{
		// Local want.
		{"want: idle slot starts a numbered attempt", none, event{kind: evWant},
			slot{state: connConnecting, seq: 1, seqHi: 1}, ""},
		{"want: attempt numbers are never reused", torn, event{kind: evWant},
			slot{state: connConnecting, seq: 6, seqHi: 6, everReady: true, gotPay: true, rejCount: 2}, ""},
		{"want: loopback holds the slot without a number", none, event{kind: evWant, self: true},
			slot{state: connConnecting}, ""},
		{"want: no-op when under way", connecting, event{kind: evWant}, connecting, ""},
		{"want: no-op when ready", ready, event{kind: evWant}, ready, ""},

		// QP in hand.
		{"allocated: client sends REQ", resolving, event{kind: evQPAllocated, after: evWant, seq: 4},
			connecting, "adopt arm conn-initiate send-req"},
		{"allocated: superseded client attempt discards the QP", accepted, event{kind: evQPAllocated, after: evWant, seq: 3},
			accepted, ""},
		{"allocated: loopback becomes ready at once", slot{state: connConnecting}, event{kind: evQPAllocated, after: evWant, self: true},
			slot{state: connReady, hasQP: true, gotPay: true, everReady: true}, "adopt bind consume ready flush"},
		{"allocated: server accepts", none, event{kind: evQPAllocated, after: evReq, seq: 7, rc: qpB},
			slot{state: connAccepted, seq: 7, seqHi: 7, hasQP: true, remote: qpB, gotPay: true}, "adopt bind consume arm conn-req-served send-rep"},
		{"allocated: re-accept does not re-consume the payload", torn, event{kind: evQPAllocated, after: evReq, seq: 7, rc: qpB},
			slot{state: connAccepted, seq: 7, seqHi: 7, hasQP: true, remote: qpB, gotPay: true, everReady: true, rejCount: 2}, "adopt bind arm conn-req-served send-rep"},
		{"allocated: re-arm after REJ back-off takes a fresh number", backoff, event{kind: evQPAllocated, after: evTimeout},
			slot{state: connConnecting, seq: 5, seqHi: 5, hasQP: true, attempt: 2, rejCount: 1}, "adopt conn-rearm resend"},

		// QP refused.
		{"refused: server rejects", none, event{kind: evQPRefused, after: evReq, seq: 7},
			none, "+AdmissionRejects conn-admission-rej send-rej"},
		{"refused: collision loser with queued work restarts itself", resolving, event{kind: evQPRefused, after: evReq, seq: 7, hasQueued: true},
			slot{seq: 4, seqHi: 4}, "+AdmissionRejects conn-admission-rej send-rej reinit"},
		{"refused: re-arm keeps backing off", backoff, event{kind: evQPRefused, after: evTimeout},
			mod(backoff, func(s *slot) { s.attempt = 2 }), "arm"},
		{"refused: client gives up", resolving, event{kind: evQPRefused, after: evWant, seq: 4},
			slot{seq: 4, seqHi: 4}, ""},
		{"refused: superseded client changes nothing", accepted, event{kind: evQPRefused, after: evWant, seq: 3}, accepted, ""},

		// REQ.
		{"req: from self is dropped", none, with(req(1), func(e *event) { e.self = true }), none, ""},
		{"req: held until this PE is ready", none, with(req(1), func(e *event) { e.peReady = false }), none, "hold"},
		{"req: stale-REQ guard (dead endpoint)", none, with(req(1), func(e *event) { e.remoteQPAlive = false }), none, "conn-stale-req"},
		{"req: duplicate while accepted resends REP", accepted, req(4), accepted, "send-rep"},
		{"req: duplicate while ready resends REP", ready, req(3), ready, "send-rep"},
		{"req: healthy-connection guard", ready, with(req(5), func(e *event) { e.connHealthy = true }), ready, "conn-stale-req"},
		{"req: reconnect over a dead ready connection", ready, req(5),
			mod(ready, func(s *slot) { s.state, s.hasQP = connNone, false }), "teardown conn-reconnect-req alloc"},
		{"req: newer attempt supersedes an accept", accepted, req(5),
			mod(accepted, func(s *slot) { s.state, s.hasQP = connNone, false }), "teardown conn-reconnect-req alloc"},
		{"req: collision, lower rank wins", connecting, with(req(1), func(e *event) { e.weAreLowerRank = true }), connecting, ""},
		{"req: collision, higher rank serves", connecting, req(1),
			mod(connecting, func(s *slot) { s.hasQP = false }), "conn-collision-lost teardown alloc"},
		{"req: duplicate of a served-and-torn attempt", torn, req(3), torn, "conn-stale-req"},
		{"req: fresh request", torn, req(4), torn, "alloc"},

		// REP.
		{"rep: Fig. 4 completion", connecting, rep(4, qpB),
			slot{state: connReady, seq: 4, seqHi: 4, hasQP: true, remote: qpB, gotPay: true, everReady: true}, "bind consume ready flush send-rtu"},
		{"rep: newer attempt number is adopted", connecting, rep(6, qpB),
			slot{state: connReady, seq: 6, seqHi: 6, hasQP: true, remote: qpB, gotPay: true, everReady: true}, "bind consume ready flush send-rtu"},
		{"rep: stale attempt", connecting, rep(3, qpB), connecting, ""},
		{"rep: raced our setup", resolving, rep(4, qpB), resolving, ""},
		{"rep: duplicate while ready re-sends RTU", ready, rep(4, qpB), ready, "send-rtu"},
		{"rep: superseded while ready", ready, rep(3, qpB), ready, ""},
		{"rep: mismatched-endpoint guard", ready, rep(4, qpA),
			mod(ready, func(s *slot) { s.state, s.hasQP = connNone, false }), "teardown +LinkFaults conn-stale-rep reinit"},
		{"rep: newer than ready diverged too", ready, rep(5, qpB),
			mod(ready, func(s *slot) { s.state, s.hasQP = connNone, false }), "teardown +LinkFaults conn-stale-rep reinit"},
		{"rep: stale while accepted", accepted, rep(3, qpA), accepted, ""},
		{"rep: long-delayed reply to a torn attempt", torn, rep(4, qpB), torn, ""},

		// RTU.
		{"rtu: server becomes ready", accepted, event{kind: evRTU, seq: 4},
			mod(accepted, func(s *slot) { s.state, s.everReady = connReady, true }), "ready flush"},
		{"rtu: wrong attempt", accepted, event{kind: evRTU, seq: 3}, accepted, ""},
		{"rtu: not accepted", ready, event{kind: evRTU, seq: 4}, ready, ""},

		// REJ.
		{"rej: back off and release the QP", connecting, event{kind: evRej, seq: 4},
			slot{state: connConnecting, seq: 4, seqHi: 4, rejWait: true, attempt: 1, rejCount: 1}, "teardown arm conn-rejected"},
		{"rej: fatal aborts", connecting, event{kind: evRej, seq: 4, fatal: true},
			mod(connecting, func(s *slot) { s.rejCount = 1 }), "conn-rej-fatal abort"},
		{"rej: runaway tally aborts", mod(connecting, func(s *slot) { s.rejCount = maxAdmissionRejects }), event{kind: evRej, seq: 4},
			mod(connecting, func(s *slot) { s.rejCount = maxAdmissionRejects + 1 }), "conn-rej-fatal abort"},
		{"rej: for an abandoned attempt", connecting, event{kind: evRej, seq: 3}, connecting, ""},
		{"rej: not connecting", ready, event{kind: evRej, seq: 4}, ready, ""},

		// Timeout.
		{"timeout: idle", ready, event{kind: evTimeout}, ready, ""},
		{"timeout: still resolving", resolving, event{kind: evTimeout}, resolving, ""},
		{"timeout: torn-down slot retaining frames reconnects for the replay", torn, event{kind: evTimeout, hasRetained: true}, torn, "reinit"},
		{"timeout: resend REQ", connecting, event{kind: evTimeout, remoteQPAlive: true},
			mod(connecting, func(s *slot) { s.attempt = 1 }), "resend"},
		{"timeout: resend REP", accepted, event{kind: evTimeout, remoteQPAlive: true},
			mod(accepted, func(s *slot) { s.attempt = 1 }), "resend"},
		{"timeout: recycle an accept whose client is gone", accepted, event{kind: evTimeout},
			mod(accepted, func(s *slot) { s.state, s.hasQP = connNone, false }), "teardown conn-recycle"},
		{"timeout: recycle restarts for retained frames", accepted, event{kind: evTimeout, hasRetained: true},
			mod(accepted, func(s *slot) { s.state, s.hasQP = connNone, false }), "teardown conn-recycle reinit"},
		{"timeout: REJ back-off over", backoff, event{kind: evTimeout, remoteQPAlive: true}, backoff, "alloc"},

		// Faults and eviction.
		{"link-fault: tear down, caller retries", ready, event{kind: evLinkFault},
			mod(ready, func(s *slot) { s.state, s.hasQP = connNone, false }), "teardown +LinkFaults conn-link-fault"},
		{"link-fault: queued work restarts the handshake", ready, event{kind: evLinkFault, hasQueued: true},
			mod(ready, func(s *slot) { s.state, s.hasQP = connNone, false }), "teardown +LinkFaults conn-link-fault reinit"},
		{"link-fault: all paths dark is a rail failover", ready, event{kind: evLinkFault, pathDown: true},
			mod(ready, func(s *slot) { s.state, s.hasQP = connNone, false }), "teardown +RailFailovers rail-failover"},
		{"link-fault: already recovered", connecting, event{kind: evLinkFault}, connecting, ""},
		{"evict: ready slot", ready, event{kind: evEvict},
			mod(ready, func(s *slot) { s.state, s.hasQP = connNone, false }), "teardown +Evictions conn-evict"},
		{"evict: only ready slots", accepted, event{kind: evEvict}, accepted, ""},
		{"peer-dead: strips the slot", backoff, event{kind: evPeerDead},
			mod(backoff, func(s *slot) { s.state, s.rejWait = connNone, false }), "teardown"},
		{"peer-dead: idle slot", torn, event{kind: evPeerDead}, torn, ""},
	}
	for _, tc := range cases {
		got, as := step(tc.s, tc.ev)
		if got != tc.want {
			t.Errorf("%s:\n  slot %+v\n  want %+v", tc.name, got, tc.want)
		}
		if d := describe(as); d != tc.acts {
			t.Errorf("%s: actions %q, want %q", tc.name, d, tc.acts)
		}
	}

	ev := req(5)
	if n := testing.AllocsPerRun(100, func() {
		sinkSlot, sinkActs = step(ready, ev)
		sinkSlot, sinkActs = step(connecting, rep(4, qpB))
	}); n != 0 {
		t.Errorf("step allocates %v times per run, want 0", n)
	}
}

var (
	sinkSlot slot
	sinkActs actions
)

func mod(s slot, f func(*slot)) slot { f(&s); return s }

// ---- exhaustive two-PE model ----

// The model: two PEs, one slot each (for the other), a set of in-flight
// control frames, fake queue pairs as integers with a liveness set. Every
// interleaving of deliver / drop / duplicate / (reordered) delivery / timeout /
// evict / refused allocation / fresh traffic is explored breadth-first within
// small budgets. No fabric, no clocks, no goroutines: the run is identical at
// any GOMAXPROCS and under -race.

type mframe struct {
	kind evKind
	to   uint8
	seq  uint32
	qpn  uint32 // sender's RC endpoint (REQ/REP)
}

type mpe struct {
	s        slot
	qp       uint32 // our endpoint for the connection (0: none)
	ladder   uint32 // client attempt whose refused allocation waits on the ladder's back-off (0: none)
	queued   bool   // traffic waits behind the slot
	consumed uint8
}

const maxFrames = 6

type world struct {
	pe      [2]mpe
	frames  [maxFrames]mframe
	nframes uint8
	live    uint32 // bit i: queue pair i exists
	nextQP  uint8
	refuse  bool // the next non-blocking allocation is refused

	drops, dups, evicts, refusals, traffic, timeouts uint8 // budgets left
}

func (w *world) alive(qpn uint32) bool { return qpn != 0 && w.live&(1<<qpn) != 0 }

func dest(pe int, qpn uint32) ib.Dest { return ib.Dest{LID: uint16(pe + 1), QPN: qpn} }

func (w *world) send(f mframe) bool {
	for _, g := range w.frames[:w.nframes] {
		if g == f {
			return true // identical frames in flight are one state
		}
	}
	if w.nframes == maxFrames {
		return false
	}
	w.frames[w.nframes] = f
	w.nframes++
	fs := w.frames[:w.nframes]
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.to != b.to {
			return a.to < b.to
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.qpn < b.qpn
	})
	return true
}

func (w *world) remove(i int) mframe {
	f := w.frames[i]
	copy(w.frames[i:], w.frames[i+1:w.nframes])
	w.nframes--
	w.frames[w.nframes] = mframe{}
	return f
}

// drive mirrors Conduit.driveLocked over the model. It reports false when
// the state falls outside the explored bounds (frame or QP-id overflow).
func (w *world) drive(t *testing.T, me int, ev event, inHand uint32) bool {
	p := &w.pe[me]
	ev.self, ev.weAreLowerRank, ev.peReady = false, me == 0, true
	ev.hasQueued = ev.hasQueued || p.queued
	switch ev.kind {
	case evReq:
		ev.remoteQPAlive = w.alive(ev.rc.QPN)
		ev.connHealthy = p.s.state == connReady && w.alive(p.qp) && w.alive(p.s.remote.QPN)
	case evTimeout:
		ev.remoteQPAlive = p.s.state != connAccepted || w.alive(p.s.remote.QPN)
	}
	old := p.s
	ns, as := step(old, ev)
	if ns.seqHi < old.seqHi || ns.seq > ns.seqHi {
		t.Fatalf("attempt numbers went backwards: %+v -> %+v on %+v", old, ns, ev)
	}
	if old.state == connNone && ns.state == connConnecting && ns.seq <= old.seqHi {
		t.Fatalf("client attempt reused a number: %+v -> %+v", old, ns)
	}
	p.s = ns
	other := uint8(1 - me)
	for _, a := range as.list() {
		ok := true
		switch a {
		case actSendReq, actSendRep, actResend:
			k := evReq
			if a == actSendRep || (a == actResend && ns.state == connAccepted) {
				k = evRep
			}
			ok = w.send(mframe{kind: k, to: other, seq: ns.seq, qpn: p.qp})
		case actSendRTU:
			ok = w.send(mframe{kind: evRTU, to: other, seq: ns.seq})
		case actSendRej:
			ok = w.send(mframe{kind: evRej, to: other, seq: ev.seq})
		case actAllocQP:
			next := event{kind: evQPAllocated, after: ev.kind, seq: ev.seq, rc: ev.rc}
			if w.refuse {
				w.refuse, next.kind = false, evQPRefused
				return w.drive(t, me, next, 0)
			}
			qp, ok := w.alloc()
			return ok && w.drive(t, me, next, qp)
		case actAdoptQP:
			p.qp, inHand = inHand, 0
		case actTeardown:
			w.live &^= 1 << p.qp
			p.qp = 0
		case actConsume:
			if p.consumed++; p.consumed > 1 {
				t.Fatalf("PE %d consumed the peer's payload twice", me)
			}
		case actFlush:
			p.queued = false
		case actReinitiate:
			ok = w.want(t, me)
		case actAbort:
			t.Fatalf("model aborted: %+v on %+v", old, ev)
		}
		if !ok {
			return false
		}
	}
	w.live &^= 1 << inHand // unadopted
	return true
}

func (w *world) alloc() (uint32, bool) {
	if w.nextQP == 31 {
		return 0, false
	}
	w.nextQP++
	w.live |= 1 << w.nextQP
	return uint32(w.nextQP), true
}

// want is Conduit.initiate with a lookup that never fails and a ladder that
// never gives up: a refused allocation leaves the attempt waiting on the
// ladder's back-off timer (retry).
func (w *world) want(t *testing.T, me int) bool {
	p := &w.pe[me]
	if p.s.state != connNone {
		return true
	}
	if !w.drive(t, me, event{kind: evWant}, 0) {
		return false
	}
	if w.refuse {
		w.refuse, p.ladder = false, p.s.seq
		return true
	}
	qp, ok := w.alloc()
	return ok && w.drive(t, me, event{kind: evQPAllocated, after: evWant, seq: p.s.seq}, qp)
}

// retry is Conduit.allocRetry, the ladder's timer: allocate now, unless the
// attempt was superseded meanwhile.
func (w *world) retry(t *testing.T, me int) bool {
	p := &w.pe[me]
	seq := p.ladder
	p.ladder = 0
	if p.s.state != connConnecting || p.s.seq != seq || p.s.hasQP {
		return true
	}
	qp, ok := w.alloc()
	return ok && w.drive(t, me, event{kind: evQPAllocated, after: evWant, seq: seq}, qp)
}

// post is fresh traffic at a PE: queue behind the slot, connect on demand; a
// post on a ready connection whose other half is gone is the link fault.
func (w *world) post(t *testing.T, me int) bool {
	p := &w.pe[me]
	if p.s.state == connReady {
		if w.alive(p.s.remote.QPN) {
			return true // delivered
		}
		if !w.drive(t, me, event{kind: evLinkFault}, 0) {
			return false
		}
	}
	p.queued = true
	return w.want(t, me)
}

// deliver hands a frame to its receiver. However stale, duplicated or
// reordered, a frame must never disturb an established connection.
func (w *world) deliver(t *testing.T, f mframe) bool {
	was, before := w.established(), *w
	ev := event{kind: f.kind, seq: f.seq, rc: dest(1-int(f.to), f.qpn)}
	ok := w.drive(t, int(f.to), ev, 0)
	if was && !w.established() {
		t.Fatalf("frame %+v broke an established connection:\n  %+v\n  %+v", f, before.pe, w.pe)
	}
	return ok
}

// settled: nothing in flight, nothing in progress, nothing waiting.
func (w *world) settled() bool {
	for _, p := range w.pe {
		if p.s.state == connConnecting || p.s.state == connAccepted || p.queued {
			return false
		}
	}
	return w.nframes == 0
}

// agree checks the safety invariant on two ready slots whose endpoints both
// exist: they are bound to each other under one attempt number.
func (w *world) agree(t *testing.T) {
	a, b := w.pe[0], w.pe[1]
	if a.s.state != connReady || b.s.state != connReady || !w.alive(a.qp) || !w.alive(b.qp) {
		return
	}
	if !w.alive(a.s.remote.QPN) || !w.alive(b.s.remote.QPN) {
		return // one side is bound to a dead endpoint: its next post is a link fault
	}
	if a.s.seq != b.s.seq || a.s.remote.QPN != b.qp || b.s.remote.QPN != a.qp {
		t.Fatalf("ready/ready disagree: %+v qp %d  vs  %+v qp %d", a.s, a.qp, b.s, b.qp)
	}
}

// established: both ready, both endpoints exist and are bound to each other.
func (w *world) established() bool {
	a, b := w.pe[0], w.pe[1]
	return a.s.state == connReady && b.s.state == connReady && w.alive(a.qp) && w.alive(b.qp) &&
		a.s.remote.QPN == b.qp && b.s.remote.QPN == a.qp
}

// converge runs one fault-free suffix — deliver everything, then fire the
// timers, then let a PE with a dead half notice it — and demands the pair
// settles within a fixed bound.
func (w world) converge(t *testing.T, from world) {
	for round := 0; round < 8; round++ {
		for w.nframes > 0 {
			if !w.deliver(t, w.remove(0)) {
				return // left the explored bounds; not a verdict
			}
			w.agree(t)
		}
		if w.settled() {
			a, b := w.pe[0], w.pe[1]
			if a.s.state == connReady && b.s.state == connReady && (!w.alive(a.s.remote.QPN) || !w.alive(b.s.remote.QPN)) {
				// Both ready, one half bound to a dead endpoint: traffic finds out.
				if !w.post(t, 0) || !w.post(t, 1) {
					return
				}
				continue
			}
			return
		}
		for me := range w.pe {
			if w.pe[me].ladder != 0 && !w.retry(t, me) {
				return
			}
			if !w.drive(t, me, event{kind: evTimeout}, 0) {
				return
			}
		}
	}
	t.Fatalf("no convergence from %+v\n  stuck at %+v", from, w)
}

// TestHandshakeModelExhaustive explores the model under two budget sets — the
// fault mix at its widest without refusals, and refused allocations (the
// server's REJ, back-off and re-arm; the client's ladder) under a lighter mix —
// and checks in every reachable
// state that two ready slots agree, that neither side consumed the peer's
// payload twice, that attempt numbers only grow (in drive), and that a
// fault-free suffix settles the pair within a fixed bound.
func TestHandshakeModelExhaustive(t *testing.T) {
	for _, budgets := range []world{
		{drops: 2, dups: 2, evicts: 1, traffic: 1, timeouts: 3},
		{drops: 1, dups: 1, refusals: 1, traffic: 1, timeouts: 2},
	} {
		seen := map[world]bool{}
		var queue []world
		push := func(w world, ok bool) {
			if ok && !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
		for _, who := range [][]int{{0}, {1}, {0, 1}} {
			for _, refuse := range []bool{false, budgets.refusals > 0} { // ... the very first allocation too
				w := budgets
				if refuse {
					w.refusals--
					w.refuse = true
				}
				for _, me := range who {
					if !w.post(t, me) {
						t.Fatal("start state out of bounds")
					}
				}
				push(w, true)
			}
		}
		for len(queue) > 0 {
			w := queue[0]
			queue = queue[1:]
			w.agree(t)
			w.converge(t, w)
			for i := 0; i < int(w.nframes); i++ {
				n := w // deliver (in any order: reordering is free)
				push(n, n.deliver(t, n.remove(i)))
				if w.drops > 0 {
					n = w
					n.drops--
					n.remove(i)
					push(n, true)
				}
				if w.dups > 0 {
					n = w
					n.dups--
					push(n, n.deliver(t, n.frames[i]))
				}
			}
			for me, p := range w.pe {
				if w.timeouts > 0 && (p.s.state == connConnecting || p.s.state == connAccepted) {
					n := w
					n.timeouts--
					push(n, n.drive(t, me, event{kind: evTimeout}, 0))
				}
				if w.evicts > 0 && p.s.state == connReady && !p.queued {
					n := w
					n.evicts--
					push(n, n.drive(t, me, event{kind: evEvict}, 0))
				}
				if w.traffic > 0 {
					n := w
					n.traffic--
					push(n, n.post(t, me))
				}
				if p.ladder != 0 {
					n := w
					push(n, n.retry(t, me))
				}
			}
			if w.refusals > 0 && !w.refuse {
				n := w
				n.refusals--
				n.refuse = true
				push(n, true)
			}
		}
		t.Logf("%d drops, %d dups, %d evictions, %d refusals: explored %d states",
			budgets.drops, budgets.dups, budgets.evicts, budgets.refusals, len(seen))
		if len(seen) < 10000 {
			t.Fatalf("only %d states reached: the model is not exploring", len(seen))
		}
	}
}
