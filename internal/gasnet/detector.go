package gasnet

// The failure detector's view of one peer, as a value: it owns no lock, clock,
// fabric or conduit, so its rules can be explored exhaustively
// (detector_test.go) the way fsm_test.go explores the handshake's. A conn has
// one only when the detector is armed. The Conduit methods in failure.go —
// noteAlive, hbTick, partitionVerdict — are shells around it: they gather the
// facts (the time, the fabric's partition schedule), ask, and apply the answer
// (events, gauges, ledger, counters, probes, the abort). They never decide.
//
// A peer silent for a full period is probed; hbSuspectAfter silent ticks in a
// row make it a suspect; hbConfirmAfter more unanswered probes later its fate
// is judged. A tick is an event on the job's timer queue, so it fires only
// while the job is stuck and a live peer's manager thread has answered every
// probe that reached it before the next one: only a probe the fabric lost
// goes unanswered, and the confirmation needs no back-off.
const (
	hbSuspectAfter = 3 // silent ticks before suspicion
	hbConfirmAfter = 4 // unanswered confirmation probes before the verdict
	hbJudgeAt      = hbSuspectAfter + hbConfirmAfter + 1
)

// health is the detector's state for one peer. Times are virtual.
type health struct {
	lastHeard int64 // arrival of the last sign of life; 0: nobody watches this peer yet
	since     int64 // when the current suspicion (or its last restart) began
	probeVT   int64 // when the probe whose answer is outstanding was asked for (RTT sample)
	healVT    int64 // suspended: when the schedule says the partition ends
	silent    uint8 // consecutive silent ticks, held at hbJudgeAt
	// suspended marks a suspect the fabric's schedule says is partitioned from
	// us, not dead: it is left alone until healVT instead of condemned.
	suspended bool
}

// watch starts the silence count at now for a peer nobody watched yet: a
// blocking receive from it is covered before any traffic has flowed.
func (h *health) watch(now int64) {
	if h.lastHeard == 0 {
		h.lastHeard = now
	}
}

// heard records a sign of life that arrived at vt — any software-level
// message proves the peer alive. cleared: a suspicion ends here; healed: it
// was a suspension, so this is the partition's heal, not a false alarm.
func (h *health) heard(vt int64) (cleared, healed bool) {
	if vt > h.lastHeard {
		h.lastHeard = vt
	}
	cleared, healed = h.suspect(), h.suspended
	h.silent, h.suspended = 0, false
	return cleared, healed
}

// suspect reports whether the peer is under suspicion, suspended or not
// (nil-safe: an unarmed detector suspects nobody).
func (h *health) suspect() bool { return h != nil && h.silent >= hbSuspectAfter }

// ackRTT closes the sample the last probe opened: the virtual round trip to
// the acknowledgement that arrived at vt, or 0 when there is none to close.
func (h *health) ackRTT(vt int64) int64 {
	sent := h.probeVT
	h.probeVT = 0
	if sent == 0 || vt <= sent {
		return 0
	}
	return vt - sent
}

// tickDo is what one detector period asks of the shell.
type tickDo uint8

const (
	tickNothing tickDo = iota // unwatched, fresh traffic, or waiting out a scheduled partition
	tickProbe                 // silent: send an explicit probe
	tickSuspect               // silent for hbSuspectAfter ticks: raise the suspicion, and probe
	tickJudge                 // the confirmation budget is spent: gather the path facts and judge
)

// tick is one detector period, ending at now.
func (h *health) tick(now, period int64) tickDo {
	switch {
	case h.lastHeard == 0, now-h.lastHeard < period:
		return tickNothing
	case h.suspended && h.healVT > now:
		return tickNothing
	case h.silent >= hbJudgeAt-1:
		h.silent = hbJudgeAt // and stays: a suspension is judged again at its first tick past the heal
		return tickJudge
	}
	h.silent++
	h.probeVT = now
	if h.silent == hbSuspectAfter {
		h.since = now
		return tickSuspect
	}
	return tickProbe
}

// path is what the fabric's schedule says about the way to a suspect — the
// whole of the evidence a verdict rests on.
type path struct {
	dark   bool  // every rail to the peer is severed right now
	heal   int64 // dark: when the schedule says that ends (-1: never)
	dimmed bool  // clear now, but severed at some point since the suspicion began
}

// fate is a verdict on a suspect whose confirmation budget is spent.
type fate uint8

const (
	fateRestart fate = iota // its silence proved nothing: confirm again from now, starting with a probe
	fateDead                // silent although a live path existed throughout: condemn it
	fateSuspend             // partitioned, both sides alive: leave it alone until the scheduled heal
	fateFatal               // partitioned with no heal scheduled: the job cannot continue
)

// judge decides a suspect's fate at now. A peer severed from us on every rail
// is partitioned — suspended until the scheduled heal, whose first answered
// probe resumes normal operation through heard; with no heal scheduled there
// is nothing to wait for. A peer whose paths are clear now but were severed at
// some point since the suspicion began has proven nothing by its silence — any
// of those probes may have been blackholed — so the confirmation starts over;
// this is also what follows every suspension, whose first tick past the heal
// comes straight back here with no probe in between. Only a peer that stayed
// silent across a span in which a live path to it existed throughout is dead.
// first: this verdict is what suspended the peer.
func (h *health) judge(now int64, p path) (f fate, first bool) {
	switch {
	case p.dimmed:
		h.silent, h.since, h.probeVT = hbSuspectAfter, now, now
		return fateRestart, false
	case !p.dark:
		return fateDead, false
	}
	first = !h.suspended
	h.suspended, h.healVT, h.since = true, p.heal, now
	if p.heal < 0 {
		return fateFatal, first
	}
	return fateSuspend, first
}
