package gasnet

import "testing"

// TestDetectorStep pins every outcome of the detector value once: what a tick
// asks for, what a sign of life clears, what a verdict decides — and that
// deciding allocates nothing.
func TestDetectorStep(t *testing.T) {
	const p = 10 // one period
	silent := func(n uint8) health { return health{lastHeard: 1, silent: n} }
	suspended := health{lastHeard: 1, silent: hbJudgeAt, since: 80, suspended: true, healVT: 200}

	for _, tc := range []struct {
		name string
		h    health
		now  int64
		do   tickDo
		want health
	}{
		{"tick: nobody watches the peer", health{}, 50, tickNothing, health{}},
		{"tick: traffic within the period", health{lastHeard: 45}, 50, tickNothing, health{lastHeard: 45}},
		{"tick: first silent period probes", silent(0), 50, tickProbe, health{lastHeard: 1, silent: 1, probeVT: 50}},
		{"tick: hbSuspectAfter silent periods raise the suspicion", silent(hbSuspectAfter - 1), 50, tickSuspect,
			health{lastHeard: 1, silent: hbSuspectAfter, since: 50, probeVT: 50}},
		{"tick: a suspect is probed every period, no back-off", silent(hbSuspectAfter), 50, tickProbe,
			health{lastHeard: 1, silent: hbSuspectAfter + 1, probeVT: 50}},
		{"tick: last confirmation probe", silent(hbJudgeAt - 2), 50, tickProbe, health{lastHeard: 1, silent: hbJudgeAt - 1, probeVT: 50}},
		{"tick: confirmation budget spent", silent(hbJudgeAt - 1), 50, tickJudge, silent(hbJudgeAt)},
		{"tick: an undecided suspect is judged again", silent(hbJudgeAt), 50, tickJudge, silent(hbJudgeAt)},
		{"tick: a suspension is left alone until its heal", suspended, 199, tickNothing, suspended},
		{"tick: ... and judged at the first tick past it", suspended, 200, tickJudge, suspended},
	} {
		h := tc.h
		if do := h.tick(tc.now, p); do != tc.do || h != tc.want {
			t.Errorf("%s: %d, %+v; want %d, %+v", tc.name, do, h, tc.do, tc.want)
		}
	}

	for _, tc := range []struct {
		name            string
		h               health
		vt              int64
		cleared, healed bool
		want            health
	}{
		{"heard: first sign of life starts the watch", health{}, 7, false, false, health{lastHeard: 7}},
		{"heard: silence below suspicion just ends", silent(2), 30, false, false, health{lastHeard: 30}},
		{"heard: a late arrival does not move the clock back", health{lastHeard: 40, silent: 1}, 30, false, false, health{lastHeard: 40}},
		{"heard: a suspicion is cleared", health{lastHeard: 1, silent: 5, since: 30}, 60, true, false, health{lastHeard: 60, since: 30}},
		{"heard: a suspension heals", suspended, 210, true, true, health{lastHeard: 210, since: 80, healVT: 200}},
	} {
		h := tc.h
		if c, hl := h.heard(tc.vt); c != tc.cleared || hl != tc.healed || h != tc.want {
			t.Errorf("%s: cleared %v healed %v, %+v; want %v %v, %+v", tc.name, c, hl, h, tc.cleared, tc.healed, tc.want)
		}
	}

	due := silent(hbJudgeAt)
	due.since = 30
	for _, tc := range []struct {
		name  string
		h     health
		p     path
		f     fate
		first bool
		want  health
	}{
		{"judge: a live path throughout, and silence: dead", due, path{}, fateDead, false, due},
		{"judge: severed at some point since: the silence proved nothing", due, path{dimmed: true}, fateRestart, false,
			health{lastHeard: 1, silent: hbSuspectAfter, since: 100, probeVT: 100}},
		{"judge: severed now, heal scheduled: suspend", due, path{dark: true, heal: 200}, fateSuspend, true,
			health{lastHeard: 1, silent: hbJudgeAt, since: 100, suspended: true, healVT: 200}},
		{"judge: still severed past the heal (another window): stay suspended", suspended, path{dark: true, heal: 300}, fateSuspend, false,
			health{lastHeard: 1, silent: hbJudgeAt, since: 100, suspended: true, healVT: 300}},
		{"judge: first tick past the heal restarts the confirmation", suspended, path{dimmed: true}, fateRestart, false,
			health{lastHeard: 1, silent: hbSuspectAfter, since: 100, probeVT: 100, suspended: true, healVT: 200}},
		{"judge: severed for good: fatal at once", due, path{dark: true, heal: -1}, fateFatal, true,
			health{lastHeard: 1, silent: hbJudgeAt, since: 100, suspended: true, healVT: -1}},
	} {
		h := tc.h
		if f, first := h.judge(100, tc.p); f != tc.f || first != tc.first || h != tc.want {
			t.Errorf("%s: fate %d first %v, %+v; want %d %v, %+v", tc.name, f, first, h, tc.f, tc.first, tc.want)
		}
	}

	var h health
	h.watch(5)
	h.watch(9)
	if h.lastHeard != 5 {
		t.Errorf("watch: the silence count restarted: %+v", h)
	}
	h.probeVT = 20
	if rtt, again := h.ackRTT(23), h.ackRTT(24); rtt != 3 || again != 0 {
		t.Errorf("ackRTT: %d then %d, want 3 then 0 (one sample per probe)", rtt, again)
	}
	if (*health)(nil).suspect() || !due.suspect() {
		t.Error("suspect: want false for an unarmed detector's nil, true at the judging tick")
	}

	if n := testing.AllocsPerRun(100, func() {
		h := due
		sinkDo = h.tick(50, p)
		sinkFate, _ = h.judge(50, path{dimmed: true})
		sinkDo = h.tick(60, p)
		_, _ = h.heard(65)
	}); n != 0 {
		t.Errorf("the detector value allocates %v times per run, want 0", n)
	}
}

var (
	sinkDo   tickDo
	sinkFate fate
)

// dworld is one schedule of the detector model: a peer that lives, or dies at
// tick dieAt, behind a fabric that severs the pair for ticks [cut, heal) — or
// from cut for good — and may lose a few probe/ack exchanges on top.
type dworld struct {
	dieAt     int // 0: the peer lives
	cut, heal int // cut 0: no partition; heal < 0: permanent
}

const (
	dPeriod = 10 // virtual time per tick; tick k fires at k*dPeriod
	dRTT    = 3  // probe-to-ack round trip: an answer is in before the next tick
	dTicks  = 48
)

func (w dworld) severedAt(k int) bool { return w.cut > 0 && k >= w.cut && (w.heal < 0 || k < w.heal) }

// pathAt is what the conduit's shell would read off the fabric's schedule at
// tick k for a suspicion that began at virtual time since (Fabric.Severed and
// Fabric.SeveredDuring).
func (w dworld) pathAt(k int, since int64) path {
	if w.severedAt(k) {
		if w.heal < 0 {
			return path{dark: true, heal: -1}
		}
		return path{dark: true, heal: int64(w.heal) * dPeriod}
	}
	return path{dimmed: w.cut > 0 && int64(w.cut)*dPeriod <= int64(k)*dPeriod &&
		(w.heal < 0 || int64(w.heal)*dPeriod > since)}
}

// drun is the outcome of one schedule.
type drun struct {
	dead, fatal     int // tick of the verdict (0: none)
	suspends, heals int
}

// explore runs w from tick k with detector state h, branching on every
// probe/ack exchange the fabric may lose while losses remain, and reports each
// completed schedule to done.
func (w dworld) explore(h health, k, losses int, r drun, done func(drun)) {
	exchange := func(h health, k, losses int, r drun) {
		if losses > 0 {
			w.explore(h, k+1, losses-1, r, done) // the probe or its ack is lost
		}
		if !w.severedAt(k) && (w.dieAt == 0 || k < w.dieAt) {
			if _, healed := h.heard(int64(k)*dPeriod + dRTT); healed {
				r.heals++
			}
		}
		w.explore(h, k+1, losses, r, done)
	}
	for ; k <= dTicks; k++ {
		now := int64(k) * dPeriod
		switch h.tick(now, dPeriod) {
		case tickProbe, tickSuspect:
			exchange(h, k, losses, r)
			return
		case tickJudge:
			f, first := h.judge(now, w.pathAt(k, h.since))
			if first {
				r.suspends++
			}
			switch f {
			case fateRestart:
				exchange(h, k, losses, r)
				return
			case fateDead:
				r.dead = k
				done(r)
				return
			case fateFatal:
				r.fatal = k
				done(r)
				return
			}
		}
	}
	done(r)
}

// TestDetectorModelExhaustive runs one detector against every schedule of a
// small world — the peer lives, dies at any tick, or sits behind any healing
// or permanent partition window, with up to three probe/ack exchanges lost at
// any points — ticking every period (the job stuck throughout: the worst
// case), and checks: a live peer is never condemned; a dead one is condemned
// within hbSuspectAfter+hbConfirmAfter+2 ticks; a healing partition never
// kills the job — one long enough to reach a verdict suspends, and every
// suspension heals; a permanent one is fatal, as promptly as a death.
//
// Mutation: delete judge's dimmed arm and this test fails (a live peer is
// condemned at the first tick past a suspension's heal, where no probe has
// been sent since the window closed) while every other test in the
// repository, soaks included, still passes.
func TestDetectorModelExhaustive(t *testing.T) {
	const bound = hbSuspectAfter + hbConfirmAfter + 2
	var worlds []dworld
	worlds = append(worlds, dworld{})
	for at := 1; at <= 14; at++ {
		worlds = append(worlds, dworld{dieAt: at}, dworld{cut: at, heal: -1})
		for n := 1; n <= 20; n++ {
			worlds = append(worlds, dworld{cut: at, heal: at + n})
		}
	}
	schedules := 0
	for _, w := range worlds {
		for losses := 0; losses <= 3; losses++ {
			w.explore(health{lastHeard: 1}, 1, losses, drun{}, func(r drun) {
				schedules++
				switch {
				case w.dieAt > 0:
					if r.dead == 0 || r.dead > w.dieAt+bound {
						t.Fatalf("%+v, %d losses: dead peer condemned at tick %d, want by %d", w, losses, r.dead, w.dieAt+bound)
					}
				case r.dead != 0:
					t.Fatalf("%+v, %d losses: LIVE peer condemned at tick %d: %+v", w, losses, r.dead, r)
				case w.cut > 0 && w.heal < 0:
					if r.fatal == 0 || r.fatal > w.cut+bound {
						t.Fatalf("%+v, %d losses: permanent partition fatal at tick %d, want by %d", w, losses, r.fatal, w.cut+bound)
					}
				case r.fatal != 0:
					t.Fatalf("%+v, %d losses: job aborted at tick %d over a partition that heals", w, losses, r.fatal)
				case r.heals != r.suspends:
					t.Fatalf("%+v, %d losses: %d suspensions but %d heals", w, losses, r.suspends, r.heals)
				case w.heal-w.cut > bound && r.suspends == 0:
					t.Fatalf("%+v, %d losses: a partition of %d ticks never suspended the peer", w, losses, w.heal-w.cut)
				}
			})
		}
	}
	if schedules < 10000 {
		t.Fatalf("explored only %d schedules", schedules)
	}
	t.Logf("%d worlds, %d schedules", len(worlds), schedules)
}
