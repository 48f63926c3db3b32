package gasnet

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/pmi"
	"goshmem/internal/vclock"
)

// ErrPeerDead is returned by every operation — RMA, AM, handshake, queued
// retransmission — against a peer the failure detector has confirmed dead.
// Fail-fast is the point: blocking on a dead peer hangs the job forever.
var ErrPeerDead = errors.New("gasnet: peer confirmed dead")

// ExitPMIFailure is the distinct launcher exit code for a job aborted
// because the out-of-band control plane failed permanently (PMI retry
// budgets exhausted with no fallback left). It sits alongside the cluster
// codes 137 (PE killed), 134 (PE wedged) and 124 (watchdog).
const ExitPMIFailure = 123

// ExitResourceExhausted is the distinct launcher exit code for a job aborted
// because a finite adapter budget (queue pairs or pinned memory) left a PE
// with provably no path to forward progress: every degradation rung —
// idle eviction, bounce-buffering, queued connects with backoff — was tried
// and failed. Deliberately distinct from 124 (watchdog): exhaustion is
// detected and reported, not a hang.
const ExitResourceExhausted = 125

// ExitPartitioned is the distinct launcher exit code for a job aborted
// because a network partition severing a needed pair of PEs will provably
// never heal: every rail between the pair is dark, no scheduled heal exists,
// and the detector's bounded virtual-time patience ran out. Deliberately
// distinct from both 1 (peer confirmed dead — here both sides are alive) and
// 124 (watchdog — the partition is detected and reported, not a hang).
const ExitPartitioned = 126

// AbortError is the terminal job-abort error. It is raised by the PE that
// confirms a peer dead, by an explicit GlobalExit, or by the cluster
// watchdog, and propagated to every live PE in-band (a UD abort datagram)
// and out-of-band (the PMI abort flag, the launcher's kill path).
type AbortError struct {
	Origin int // rank that raised the abort (-1: launcher/watchdog)
	Dead   int // rank confirmed dead, -1 when no PE died
	Code   int // exit code surviving PEs should report
	Reason string
}

func (e *AbortError) Error() string {
	if e.Dead >= 0 {
		return fmt.Sprintf("gasnet: job aborted by rank %d: %s", e.Origin, e.Reason)
	}
	return fmt.Sprintf("gasnet: job aborted: %s", e.Reason)
}

// Unwrap lets errors.Is(err, ErrPeerDead) recognize peer-death aborts.
func (e *AbortError) Unwrap() error {
	if e.Dead >= 0 {
		return ErrPeerDead
	}
	return nil
}

// CrashError is what an operation on a crash-injected PE fails with once its
// scheduled KillPE trips: the process is gone, mid-job.
type CrashError struct {
	Rank int
	VT   int64 // virtual time the crash was observed
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("gasnet: rank %d crashed (injected) at vt %d", e.Rank, e.VT)
}

// WedgeError is what a wedge-injected PE's blocked operation fails with once
// the job finally aborts around it (a wedged PE makes no progress on its own;
// only the external abort releases it).
type WedgeError struct {
	Rank int
	VT   int64
}

func (e *WedgeError) Error() string {
	return fmt.Sprintf("gasnet: rank %d wedged (injected) at vt %d, released by job abort", e.Rank, e.VT)
}

// Detector thresholds. The detector ticks on the job's timer queue once per
// CostModel.HeartbeatPeriod of virtual time — that is, only while the job is
// otherwise stuck — so a death is confirmed within a bounded number of virtual
// detector periods, and a peer that is merely slow on the host is never
// suspected at all.
const (
	hbSuspectAfter = 3  // silent periods before suspicion
	hbConfirmAfter = 4  // unanswered backoff probes before the verdict
	hbPartition    = 16 // verdicts a permanent partition survives before the job aborts
)

// HeartbeatConfig forces the UD-heartbeat failure detector on or off. Left
// zero, it is armed only when the fabric has PE or network failures scheduled
// — a fault-free run never probes, suspects, or pays anything for it.
//
// Liveness is piggybacked on existing traffic: every software-level message
// from a peer (handshake legs, active messages, heartbeat acks) refreshes it.
// Explicit probes go only to monitored peers that have been silent for a full
// period. A peer silent for hbSuspectAfter consecutive ticks becomes suspect;
// it is then probed with exponential backoff and its fate decided (dead, or
// partitioned: partitionVerdict) after hbConfirmAfter further unanswered
// probes. A live peer's manager thread answers every probe that reaches it
// before the next tick can fire, however slow the host, so only a probe the
// fabric lost can go unanswered.
type HeartbeatConfig struct {
	// Enable arms the detector even without scheduled failures.
	Enable bool
	// Disable forces the detector off (watchdog tests use it to make an
	// injected failure genuinely hang the job).
	Disable bool
}

// peerHealth is the detector's view of one monitored peer. Times are virtual.
type peerHealth struct {
	lastHeard int64
	missed    int // consecutive silent ticks
	suspect   bool
	since     int64 // when the current suspicion (or its last restart) began
	probes    int   // confirmation probes sent since then
	lastProbe int64
	probeVT   int64 // send time of the last explicit probe (RTT hist)
	dead      bool

	// suspended marks a peer the detector would have confirmed dead but for
	// the fabric's verdict that the pair is partitioned (every rail severed
	// while both sides are alive): the peer is held in suspend-and-retry
	// instead of aborting the job. healVT is when the schedule says the
	// severance ends (-1: never); patience counts the verdicts spent waiting
	// on a permanent one.
	suspended bool
	healVT    int64
	patience  int
}

// Self-fate states cached in Conduit.selfState.
const (
	selfAlive int32 = iota
	selfKilled
	selfWedged
)

// hbInit arms the detector's tick when the failure plane is in play. Called
// from New.
func (c *Conduit) hbInit() {
	c.abortCh = make(chan struct{})
	c.deadPeers = make(map[int]bool)
	c.health = make(map[int]*peerHealth)
	fab := c.cfg.HCA.Fabric()
	c.netFaulty = fab.NetFaulty()
	hb := c.cfg.Heartbeat
	c.hbArmed = !hb.Disable && c.sched != nil && (hb.Enable || fab.PEFaulty() || c.netFaulty)
	if c.hbArmed {
		c.hbRearm(c.clk.Now())
	}
}

// hbRearm schedules the next tick one period after now.
func (c *Conduit) hbRearm(now int64) {
	c.hbMu.Lock()
	if !c.closed.Load() {
		c.hbTimer = c.sched.After(now+c.model.HeartbeatPeriod, c.cfg.Rank, c.hbTick)
	}
	c.hbMu.Unlock()
}

// hbStop cancels the tick at Close.
func (c *Conduit) hbStop() {
	c.hbMu.Lock()
	c.hbTimer.Stop()
	c.hbMu.Unlock()
}

// selfFate consults the fault plane for this PE's own scheduled crash/wedge
// at virtual time now, firing the first-trigger side effects. The app path
// passes its own clock; the progress path passes the arrival time, so an
// idle victim still crashes when traffic from the future reaches it.
func (c *Conduit) selfFate(now int64) int32 {
	if s := c.selfState.Load(); s != selfAlive {
		return s
	}
	switch c.cfg.HCA.Fabric().Faults().PEFate(c.cfg.Rank, now) {
	case ib.PEKilled:
		c.enterKilled(now)
		return selfKilled
	case ib.PEWedged:
		c.enterWedged(now)
		return selfWedged
	}
	return selfAlive
}

// enterKilled makes the scheduled crash real: every queue pair dies (so the
// fabric stops ACKing anything addressed to this PE), queued work is failed,
// and local waiters are released with a CrashError. Nothing is sent: a
// crashed process cannot announce its own death — that is the detector's job
// on the surviving PEs.
func (c *Conduit) enterKilled(now int64) {
	if !c.selfState.CompareAndSwap(selfAlive, selfKilled) {
		return
	}
	c.event("pe-fail", c.cfg.Rank, now)
	c.connMu.Lock()
	c.conns.each(func(peer int, cn *conn) {
		c.driveLocked(cn, peer, event{kind: evPeerDead}, &driveIn{})
		cn.pending = nil
		c.trimAckedLocked(cn, math.MaxUint64, now)
	})
	c.connMu.Unlock()
	c.udQP.Destroy()
	c.raiseLocal(&CrashError{Rank: c.cfg.Rank, VT: now}, nil)
}

// enterWedged marks the scheduled wedge: the software stops — no handler
// dispatch, no heartbeat replies, no new sends — but the queue pairs stay
// alive, so peers' RDMA against this PE's memory still completes in hardware.
// The wedged PE is released only by the job abort that eventually reaches it
// (an abort datagram or the launcher's out-of-band kill).
func (c *Conduit) enterWedged(now int64) {
	if !c.selfState.CompareAndSwap(selfAlive, selfWedged) {
		return
	}
	c.event("pe-fail", c.cfg.Rank, now)
}

// arrivalFate evaluates this PE's scheduled failure against an inbound
// message's virtual arrival time: even a PE whose own clock is stalled
// crashes once traffic from past its scheduled failure time reaches it.
func (c *Conduit) arrivalFate(arrVT int64) int32 {
	now := c.mgrClk.Now()
	if arrVT > now {
		now = arrVT
	}
	return c.selfFate(now)
}

// checkAlive enforces this PE's own scheduled failure and any job abort at
// the entry of an application-level operation. A killed PE's operations fail
// immediately with CrashError; a wedged PE's operations block until the job
// aborts, then fail with WedgeError.
func (c *Conduit) checkAlive() error {
	switch c.selfFate(c.clk.Now()) {
	case selfKilled:
		return &CrashError{Rank: c.cfg.Rank, VT: c.clk.Now()}
	case selfWedged:
		c.sched.Park()
		<-c.abortCh
		c.sched.Unpark(1)
		return &WedgeError{Rank: c.cfg.Rank, VT: c.clk.Now()}
	}
	if err := c.Err(); err != nil {
		return err
	}
	return nil
}

// Err returns the job-abort (or own-crash) error once this PE has aborted,
// else nil.
func (c *Conduit) Err() error {
	c.abortMu.Lock()
	defer c.abortMu.Unlock()
	return c.abortErr
}

// LivenessErr is the non-blocking form upper layers poll from their blocking
// waits (collective receive, point-to-point receive, wait-until): it returns
// the error the wait should fail with, or nil to keep waiting. A wedged PE
// keeps waiting until the job abort arrives — a wedge is a hang by design.
func (c *Conduit) LivenessErr() error {
	switch c.selfState.Load() {
	case selfKilled:
		return &CrashError{Rank: c.cfg.Rank, VT: c.clk.Now()}
	case selfWedged:
		if c.Err() != nil {
			return &WedgeError{Rank: c.cfg.Rank, VT: c.clk.Now()}
		}
		return nil
	}
	return c.Err()
}

// AbortCh returns a channel closed when the job aborts, for upper layers
// that need a select-able abort signal.
func (c *Conduit) AbortCh() <-chan struct{} { return c.abortCh }

// OnAbort registers f to run once when the job aborts (or immediately if it
// already has). Upper layers use it to wake their own condition variables so
// blocked receives can observe LivenessErr.
func (c *Conduit) OnAbort(f func(error)) {
	c.abortMu.Lock()
	if c.abortErr != nil {
		err := c.abortErr
		c.abortMu.Unlock()
		f(err)
		return
	}
	c.onAbort = append(c.onAbort, f)
	c.abortMu.Unlock()
}

// PeerDead reports whether peer has been confirmed dead.
func (c *Conduit) PeerDead(peer int) bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.deadPeers[peer]
}

// MonitorPeer registers peer with the failure detector, so a blocking
// receive from it is covered even before any traffic has flowed. No-op when
// the detector is not armed.
func (c *Conduit) MonitorPeer(peer int) {
	if !c.hbArmed || peer == c.cfg.Rank || peer < 0 || peer >= c.cfg.NProcs {
		return
	}
	c.hbMu.Lock()
	if c.health[peer] == nil {
		c.health[peer] = &peerHealth{lastHeard: c.clk.Now()}
	}
	c.hbMu.Unlock()
}

// noteAlive refreshes the detector's liveness for peer — the piggyback path:
// any software-level message from the peer (vt is its arrival) proves it
// alive, so explicit probes are needed only when a link is idle.
func (c *Conduit) noteAlive(peer int, vt int64) {
	if !c.hbArmed || peer == c.cfg.Rank || peer < 0 || peer >= c.cfg.NProcs {
		return
	}
	c.hbMu.Lock()
	h := c.health[peer]
	if h == nil {
		h = &peerHealth{}
		c.health[peer] = h
	}
	if vt > h.lastHeard {
		h.lastHeard = vt
	}
	h.missed = 0
	cleared := h.suspect && !h.dead
	healed := h.suspended && !h.dead
	if cleared {
		h.suspect = false
		h.probes = 0
		h.suspended = false
		h.patience = 0
	}
	c.hbMu.Unlock()
	if healed {
		// A suspended peer answered: the partition healed and the pair is
		// reconnected. This is recovery, not a false alarm — the detector's
		// suspicion was correct while the windows were active.
		c.statMu.Lock()
		c.stats.PartitionHeals++
		c.statMu.Unlock()
		c.event("partition-heal", peer, c.mgrClk.Now())
		c.gSuspect.Add(c.mgrClk.Now(), -1)
		c.led.CloseAll("net", []string{"partition"}, -1, obs.InstJob, c.mgrClk.Now(), "heal-observed")
		return
	}
	if cleared {
		c.statMu.Lock()
		c.stats.FalseSuspicions++
		c.statMu.Unlock()
		c.event("suspect-clear", peer, c.mgrClk.Now())
		c.gSuspect.Add(c.mgrClk.Now(), -1)
	}
}

// hbTick is the detector's pass, one period of virtual time after the last:
// check the out-of-band abort flag, then walk the monitored peers — advance
// silence counters, raise suspicions, send backoff probes, and hand spent
// confirmation budgets to the verdict. Probes go only to peers silent for at
// least one full period. It runs on the timer queue, so the job was stuck when
// it fired: virtual time really has passed for every PE, and the manager clock
// follows it.
func (c *Conduit) hbTick(vt int64) {
	if c.closed.Load() {
		return
	}
	// Out-of-band backstop: the PMI abort flag is how the launcher's kill
	// reaches a PE whose in-band abort datagram was lost — or that is wedged
	// and no longer processes software messages.
	if n, ok := c.cfg.PMI.Aborted(); ok && c.Err() == nil {
		// Mark the dead rank before publishing the abort error, matching
		// handleAbortMsg: once Err() is observable, PeerDead(dead) must
		// already hold, so callers can fail-fast without a window where the
		// job is aborted but the victim still looks alive.
		if n.Dead >= 0 && n.Dead < c.cfg.NProcs && n.Dead != c.cfg.Rank {
			c.markDead(n.Dead)
		}
		c.raiseLocal(&AbortError{Origin: n.Origin, Dead: n.Dead, Code: n.Code, Reason: n.Reason}, nil)
	}
	if c.Err() != nil {
		return // job is dead; no further ticks
	}
	// The job's time, not just the detector's: the app thread may have run
	// into a fault window the manager clock has not reached (its send is what
	// went silent), and it is parked now, so its clock is a fact.
	now := c.mgrClk.AdvanceTo(vt)
	if app := c.clk.Now(); app > now {
		now = c.mgrClk.AdvanceTo(app)
	}
	if c.selfFate(now) != selfAlive {
		// A killed or wedged PE's software no longer probes; keep polling only
		// the out-of-band abort flag above so the launcher's kill can land.
		c.hbRearm(now)
		return
	}
	period := c.model.HeartbeatPeriod
	var probes, verdicts []int
	c.hbMu.Lock()
	peers := make([]int, 0, len(c.health))
	for peer := range c.health {
		peers = append(peers, peer)
	}
	sort.Ints(peers) // probe order must not depend on map iteration
	for _, peer := range peers {
		h := c.health[peer]
		switch {
		case h.dead, now-h.lastHeard < period: // gone, or piggybacked traffic is fresh
		case h.suspended && h.healVT > now: // waiting out a scheduled partition
		case !h.suspect:
			h.missed++
			if h.missed >= hbSuspectAfter {
				h.suspect, h.probes, h.since = true, 0, now
				c.event("suspect", peer, now)
				c.gSuspect.Add(now, 1)
				c.led.Detect("pe", peer, now, "suspect")
			}
			probes = append(probes, peer)
		default:
			// Suspect: confirmation probes with exponential backoff.
			if now-h.lastProbe < backoff(period, h.probes, probeBackoffShift) {
				continue
			}
			h.probes++
			h.lastProbe = now
			if h.probes > hbConfirmAfter {
				// The confirmation budget is spent. Hold the probe count at
				// the threshold so the verdict re-runs every capped backoff
				// period for as long as a suspension lasts.
				h.probes = hbConfirmAfter
				verdicts = append(verdicts, peer)
				continue
			}
			probes = append(probes, peer)
		}
	}
	c.hbMu.Unlock()
	for _, peer := range probes {
		c.sendPing(peer, now)
	}
	for _, peer := range verdicts {
		c.partitionVerdict(peer, now)
	}
	if c.Err() == nil {
		c.hbRearm(now)
	}
}

// partitionVerdict decides, at virtual time now, the fate of a suspect whose
// confirmation budget is spent: dead peer or partitioned peer. The fabric's
// schedule is the whole of the evidence. A peer severed from us on every rail
// right now is *partitioned*: both sides are alive but cannot talk, so the
// detector suspends it — until the scheduled heal, whose first answered probe
// resumes normal operation (and exactly-once delivery, via the session
// layer's retained window) through noteAlive; or, when no heal is scheduled,
// for hbPartition more verdicts, after which the job aborts with the distinct
// ExitPartitioned code. A peer whose paths are clear now but were severed at
// some point since the suspicion began has proven nothing by its silence —
// any of those probes may have been blackholed — so the confirmation starts
// over from now. Only a peer that stayed silent across a span in which a
// live path to it existed throughout is dead.
func (c *Conduit) partitionVerdict(peer int, now int64) {
	dark, heal, dimmed := false, int64(0), false
	if c.netFaulty {
		ud, err := c.resolveUDOpt(peer, false)
		if err != nil {
			return // resolution in flight; re-evaluate at the next backoff period
		}
		c.hbMu.Lock()
		since := c.health[peer].since
		c.hbMu.Unlock()
		dark, heal = c.severed(ud.LID, now)
		dimmed = !dark && c.cfg.HCA.Fabric().Faults().PartitionedDuring(c.cfg.HCA.LID(), ud.LID, since, now)
	}
	first, exhausted := false, false
	c.hbMu.Lock()
	h := c.health[peer]
	switch {
	case h == nil || h.dead:
		c.hbMu.Unlock()
		return
	case dimmed:
		h.probes, h.since = 0, now
		c.hbMu.Unlock()
		c.sendPing(peer, now)
		return
	case !dark:
		h.dead = true
		c.hbMu.Unlock()
		c.confirmDead(peer)
		return
	}
	if !h.suspended {
		h.suspended, h.patience = true, 0
		first = true
	}
	h.healVT, h.since = heal, now
	if heal < 0 {
		h.patience++
		exhausted = h.patience > hbPartition
	}
	c.hbMu.Unlock()
	if first {
		c.statMu.Lock()
		c.stats.PartitionSuspensions++
		c.statMu.Unlock()
		c.event("partition-suspend", peer, now)
		c.led.Detect("net", -1, now, "partition-suspend")
	}
	if exhausted {
		c.event("partition-fatal", peer, now)
		c.raiseAbort(&AbortError{Origin: c.cfg.Rank, Dead: -1, Code: ExitPartitioned,
			Reason: fmt.Sprintf("rank %d partitioned from rank %d on every rail with no scheduled heal; gave up after %d verdicts",
				c.cfg.Rank, peer, hbPartition)}, true)
	}
}

// sendPing sends one explicit heartbeat probe at virtual time now, on a clock
// of its own.
func (c *Conduit) sendPing(peer int, now int64) {
	// No fallback: a background probe must never block in the Put-Fence
	// collective or advance the app clock. An unresolved peer is skipped.
	ud, err := c.resolveUDOpt(peer, false)
	if err != nil {
		return
	}
	c.hbMu.Lock()
	if h := c.health[peer]; h != nil {
		h.probeVT = now
	}
	c.hbMu.Unlock()
	c.statMu.Lock()
	c.stats.HeartbeatsSent++
	c.statMu.Unlock()
	c.sendControl(peer, ud, connMsg{Kind: msgHeartbeat, SrcRank: int32(c.cfg.Rank), UD: c.udQP.Addr()}, vclock.NewClock(now))
}

// noteHeartbeatAck closes the RTT sample opened by the last explicit probe
// to peer: the virtual round trip from probe transmission to ack arrival.
func (c *Conduit) noteHeartbeatAck(peer int, ackVT int64) {
	if c.hHBRTT == nil {
		return
	}
	c.hbMu.Lock()
	var probeVT int64
	if h := c.health[peer]; h != nil && h.probeVT > 0 {
		probeVT = h.probeVT
		h.probeVT = 0
	}
	c.hbMu.Unlock()
	if probeVT > 0 && ackVT > probeVT {
		c.hHBRTT.Record(ackVT - probeVT)
	}
}

// markDead flags peer as dead and strips its connection slot: the handshake
// (if any) is torn down and every queued work request is failed back to its
// issuer. Returns whether this call did the marking.
func (c *Conduit) markDead(peer int) bool {
	c.connMu.Lock()
	if c.deadPeers[peer] {
		c.connMu.Unlock()
		return false
	}
	c.deadPeers[peer] = true
	var dropped []pendingWR
	if cn := c.conns.get(peer); cn != nil {
		dropped = cn.pending
		cn.pending = nil
		c.driveLocked(cn, peer, event{kind: evPeerDead}, &driveIn{})
		// Frames retained for a dead peer will never be acknowledged; release
		// them so Quiet does not wait on a ghost.
		c.trimAckedLocked(cn, math.MaxUint64, c.mgrClk.Now())
	}
	c.connMu.Unlock()
	c.connCond.Broadcast()
	for _, p := range dropped {
		c.failWR(p.wr, ErrPeerDead, c.mgrClk.Now())
	}
	return true
}

// failWR completes, at virtual time vt, a queued work request that will never
// reach the wire — its peer died, or the post failed for good when its turn
// came — to its issuer, as a direct post's error return would have: a blocked
// issuer (Get, atomics) is woken with err, and a Quiet hold (Put, GetNBI,
// fenced AM) is dropped so the accounting stays exact.
func (c *Conduit) failWR(wr ib.SendWR, err error, vt int64) {
	if c.wake(wr.WRID, waited{comp: ib.Completion{WRID: wr.WRID, Op: wr.Op, VTime: vt}, err: err}) {
		return
	}
	c.waiterMu.Lock()
	_, nbi := c.pendingGets[wr.WRID]
	delete(c.pendingGets, wr.WRID)
	c.waiterMu.Unlock()
	if wr.Op == ib.OpRDMAWrite || nbi || wr.Op == ib.OpSend && !wr.NoSendCompletion { // a fenced AM asks for its completion
		c.putDone(ib.Completion{VTime: vt})
	}
}

// confirmDead finalizes a suspect: mark the peer dead, fail everything queued
// against it, and raise the job abort that propagates to all live PEs.
func (c *Conduit) confirmDead(peer int) {
	if !c.markDead(peer) {
		return
	}
	c.statMu.Lock()
	c.stats.PEFailures++
	c.statMu.Unlock()
	c.event("confirm-dead", peer, c.mgrClk.Now())
	c.gSuspect.Add(c.mgrClk.Now(), -1)
	c.led.Act("pe", peer, c.mgrClk.Now(), "confirm-dead")
	c.raiseAbort(&AbortError{Origin: c.cfg.Rank, Dead: peer, Code: 1,
		Reason: fmt.Sprintf("rank %d confirmed dead by rank %d's failure detector", peer, c.cfg.Rank)}, true)
}

// Abort raises a job abort from this PE (shmem_global_exit semantics) and
// propagates it to every peer in-band and through PMI.
func (c *Conduit) Abort(ae *AbortError) { c.raiseAbort(ae, true) }

// AbortLocal raises the abort on this PE only, without notifying peers — the
// launcher's per-process kill path (the cluster watchdog fans it out itself).
func (c *Conduit) AbortLocal(ae *AbortError) { c.raiseAbort(ae, false) }

// raiseLocal records err as this PE's terminal state and releases every
// blocked operation. First error wins; the winner runs announce (may be nil)
// before anything blocked here is released, so by the time the application
// thread unwinds, the abort it unwinds with has been told to the job and
// counted.
func (c *Conduit) raiseLocal(err error, announce func()) bool {
	c.abortMu.Lock()
	if c.abortErr != nil {
		c.abortMu.Unlock()
		return false
	}
	c.abortErr = err
	cbs := c.onAbort
	c.onAbort = nil
	c.abortMu.Unlock()
	if announce != nil {
		announce()
	}
	close(c.abortCh)
	c.connCond.Broadcast()
	c.outCond.Broadcast()
	if c.cfg.NodeBarrier != nil {
		// Release node-mates blocked in the intra-node barrier; the job is
		// over and they must observe the abort rather than wait forever.
		c.cfg.NodeBarrier.Abort()
	}
	for _, f := range cbs {
		f(err)
	}
	return true
}

// raiseAbort records the abort locally and, when propagate is set, announces
// it to PMI (out-of-band) and to every peer (in-band UD datagram — including
// the dead rank, whose "death" may be a wedge that only an external kill can
// release).
func (c *Conduit) raiseAbort(ae *AbortError, propagate bool) {
	if ae.Code == 0 {
		ae.Code = 1
	}
	c.raiseLocal(ae, func() {
		c.event("abort", ae.Dead, c.mgrClk.Now())
		if ae.Dead >= 0 {
			c.led.Act("pe", ae.Dead, c.mgrClk.Now(), "abort")
		}
		if propagate {
			c.announceAbort(ae)
		}
	})
}

// announceAbort tells the job: PMI (out-of-band), then a UD datagram to every
// peer.
func (c *Conduit) announceAbort(ae *AbortError) {
	c.cfg.PMI.RaiseAbort(pmi.AbortNotice{Origin: ae.Origin, Dead: ae.Dead, Code: ae.Code, Reason: ae.Reason})
	payload := encodeAbortPayload(ae.Code, ae.Reason)
	sent := 0
	for peer := 0; peer < c.cfg.NProcs; peer++ {
		if peer == c.cfg.Rank {
			continue
		}
		// No fallback while aborting: peers whose endpoints never resolved
		// are reached through the PMI kill channel above instead.
		ud, err := c.resolveUDOpt(peer, false)
		if err != nil {
			continue
		}
		m := connMsg{Kind: msgAbort, SrcRank: int32(ae.Origin), Seq: uint32(int32(ae.Dead)),
			UD: c.udQP.Addr(), Payload: payload}
		if c.sendControl(peer, ud, m, c.mgrClk) == nil {
			sent++
		}
	}
	c.statMu.Lock()
	c.stats.AbortsPropagated += sent
	c.statMu.Unlock()
}

// handleAbortMsg processes an in-band abort datagram: mark the dead rank (if
// any) and abort locally. No re-broadcast — the origin already notified
// everyone, and PMI is the lost-datagram backstop.
func (c *Conduit) handleAbortMsg(m connMsg) {
	dead := int(int32(m.Seq))
	code, reason := decodeAbortPayload(m.Payload)
	if dead >= 0 && dead < c.cfg.NProcs && dead != c.cfg.Rank {
		c.markDead(dead)
	}
	c.raiseLocal(&AbortError{Origin: int(m.SrcRank), Dead: dead, Code: code, Reason: reason}, nil)
}

// HealthSnapshot is a point-in-time diagnostic view of one conduit, the raw
// material for the cluster watchdog's state dump.
type HealthSnapshot struct {
	Rank        int
	ClockVT     int64 // application clock
	MgrVT       int64 // connection-manager clock
	Ready       int   // connections in the ready state
	Connecting  int   // client handshakes in flight
	Accepted    int   // server handshakes awaiting RTU
	PendingWRs  int   // work requests queued behind in-flight handshakes
	HeldReqs    int   // connection requests held for SetReady
	Outstanding int   // puts/gets not yet complete (Quiet accounting)
	LastReadyVT int64 // virtual time the last connection became ready
	Suspects    []int // peers currently under suspicion
	Suspended   []int // peers suspended as partitioned (all rails severed)
	Dead        []int // peers confirmed dead
	Wedged      bool
	Killed      bool
}

// HealthSnapshot captures the conduit's connection, queue and detector state
// for diagnostics.
func (c *Conduit) HealthSnapshot() HealthSnapshot {
	s := HealthSnapshot{Rank: c.cfg.Rank, ClockVT: c.clk.Now(), MgrVT: c.mgrClk.Now()}
	s.Killed = c.selfState.Load() == selfKilled
	s.Wedged = c.selfState.Load() == selfWedged
	c.connMu.Lock()
	c.conns.each(func(_ int, cn *conn) {
		switch cn.state {
		case connReady:
			s.Ready++
		case connConnecting:
			s.Connecting++
		case connAccepted:
			s.Accepted++
		}
		s.PendingWRs += len(cn.pending)
	})
	s.HeldReqs = len(c.heldReqs)
	s.LastReadyVT = c.lastReadyVT
	for peer := range c.deadPeers {
		s.Dead = append(s.Dead, peer)
	}
	c.connMu.Unlock()
	c.hbMu.Lock()
	for peer, h := range c.health {
		if h.suspect && !h.dead {
			s.Suspects = append(s.Suspects, peer)
		}
		if h.suspended && !h.dead {
			s.Suspended = append(s.Suspended, peer)
		}
	}
	c.hbMu.Unlock()
	c.outMu.Lock()
	s.Outstanding = c.outstanding
	c.outMu.Unlock()
	sort.Ints(s.Suspects)
	sort.Ints(s.Suspended)
	sort.Ints(s.Dead)
	return s
}
