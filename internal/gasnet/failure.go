package gasnet

import (
	"errors"
	"fmt"
	"sort"
	"time"

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

// Default heartbeat timing. The scan period is real time (like the
// retransmission scan: the simulator's only actual clock); each probe charges
// CostModel.HeartbeatPeriod of virtual time, so confirmation completes within
// a bounded number of virtual detector periods.
const (
	defaultHBInterval     = 2 * time.Millisecond
	defaultHBSuspectAfter = 3  // silent scan periods before suspicion
	defaultHBConfirmAfter = 4  // unanswered backoff probes before confirm-dead
	defaultHBPartition    = 16 // charged patience probes before a permanent partition aborts; also the quiet-air reconfirmation rounds
)

// HeartbeatConfig tunes the UD-heartbeat failure detector. The detector is
// armed only when the fabric has PE-failure injections scheduled or Enable is
// set — a fault-free run never probes, suspects, or pays anything for it.
//
// Liveness is piggybacked on existing traffic: every software-level message
// from a peer (handshake legs, active messages, heartbeat acks) refreshes it.
// Explicit probes go only to monitored peers that have been silent for a full
// scan period. A peer that stays silent for SuspectAfter consecutive scans
// becomes suspect; it is then probed with exponential backoff and confirmed
// dead only after ConfirmAfter further unanswered probes. A PE slowed by the
// SlowPE injector is only charged virtual time — its real-time replies still
// arrive within a scan period — so slowness alone never confirms.
type HeartbeatConfig struct {
	// Enable arms the detector even without scheduled PE failures.
	Enable bool
	// Disable forces the detector off (watchdog tests use it to make an
	// injected failure genuinely hang the job).
	Disable bool
	// Interval is the real-time scan period (default 2ms).
	Interval time.Duration
	// SuspectAfter is the number of silent scan periods before suspicion
	// (default 3).
	SuspectAfter int
	// ConfirmAfter is the number of unanswered confirmation probes, with
	// exponential backoff, before a suspect is confirmed dead (default 4).
	ConfirmAfter int
}

// withDefaults fills zero fields with the default timing.
func (hc HeartbeatConfig) withDefaults() HeartbeatConfig {
	if hc.Interval <= 0 {
		hc.Interval = defaultHBInterval
	}
	if hc.SuspectAfter <= 0 {
		hc.SuspectAfter = defaultHBSuspectAfter
	}
	if hc.ConfirmAfter <= 0 {
		hc.ConfirmAfter = defaultHBConfirmAfter
	}
	return hc
}

// peerHealth is the detector's view of one monitored peer.
type peerHealth struct {
	lastHeard time.Time
	missed    int // consecutive silent scan periods
	suspect   bool
	probes    int // confirmation probes sent since suspicion
	lastProbe time.Time
	probeVT   int64 // virtual send time of the last explicit probe (RTT hist)
	dead      bool

	// suspended marks a peer the detector would have confirmed dead but for
	// the fabric's verdict that the pair is partitioned (every rail severed
	// while both sides are alive): the peer is held in suspend-and-retry
	// instead of aborting the job, with patience probes advancing virtual
	// time. suspendVT is the virtual time suspension began; patienceProbes
	// counts the charged probes spent waiting on a permanent partition.
	suspended      bool
	suspendVT      int64
	patienceProbes int
	// reconfirmRounds counts the clear-air reconfirmation rounds spent on
	// this peer after a severance ended (the partition healed, or the
	// verdict clock passed the window): the silence accumulated while the
	// fabric was dark proves nothing, and even afterwards a live peer can
	// lag behind recovery replays, so the detector re-drains the
	// confirmation budget defaultHBPartition times in quiet air before it
	// may declare the peer dead. An ack clears it via noteAlive.
	reconfirmRounds int
}

// Self-fate states cached in Conduit.selfState.
const (
	selfAlive int32 = iota
	selfKilled
	selfWedged
)

// hbInit resolves the heartbeat configuration and arms the scan timer when
// the failure plane is in play. Called from New.
func (c *Conduit) hbInit() {
	c.hb = c.cfg.Heartbeat.withDefaults()
	c.abortCh = make(chan struct{})
	c.deadPeers = make(map[int]bool)
	c.health = make(map[int]*peerHealth)
	fab := c.cfg.HCA.Fabric()
	c.hbArmed = !c.hb.Disable && (c.hb.Enable || fab.PEFaulty() || fab.NetFaulty())
	if c.hbArmed {
		c.hbMu.Lock()
		c.hbTimer = time.AfterFunc(c.hb.Interval, c.hbScan)
		c.hbMu.Unlock()
	}
}

// hbStop cancels the scan timer at Close.
func (c *Conduit) hbStop() {
	c.hbMu.Lock()
	if c.hbTimer != nil {
		c.hbTimer.Stop()
	}
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
		c.dropUnackedLocked(cn, now)
	})
	c.connMu.Unlock()
	c.udQP.Destroy()
	c.raiseLocal(&CrashError{Rank: c.cfg.Rank, VT: now})
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
		<-c.abortCh
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
		c.health[peer] = &peerHealth{lastHeard: timeNow()}
	}
	c.hbMu.Unlock()
}

// noteAlive refreshes the detector's liveness for peer — the piggyback path:
// any software-level message from the peer proves it alive, so explicit
// probes are needed only when a link is idle.
func (c *Conduit) noteAlive(peer int) {
	if !c.hbArmed || peer == c.cfg.Rank || peer < 0 || peer >= c.cfg.NProcs {
		return
	}
	c.hbMu.Lock()
	h := c.health[peer]
	if h == nil {
		h = &peerHealth{}
		c.health[peer] = h
	}
	h.lastHeard = timeNow()
	h.missed = 0
	cleared := h.suspect && !h.dead
	healed := h.suspended && !h.dead
	if cleared {
		h.suspect = false
		h.probes = 0
		h.suspended = false
		h.patienceProbes = 0
		h.reconfirmRounds = 0
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

// hbScan is the detector's periodic pass: check the out-of-band abort flag,
// then walk the monitored peers — advance silence counters, raise suspicions,
// send backoff probes, and confirm deaths. Probes go only to peers that have
// been silent for at least one full scan period.
func (c *Conduit) hbScan() {
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
		c.raiseLocal(&AbortError{Origin: n.Origin, Dead: n.Dead, Code: n.Code, Reason: n.Reason})
	}
	if c.Err() != nil {
		return // job is dead; no further scans
	}
	if c.selfFate(c.mgrClk.Now()) != selfAlive {
		// A killed or wedged PE's software no longer probes; keep polling only
		// the out-of-band abort flag above so the launcher's kill can land.
		c.hbRearm()
		return
	}
	now := timeNow()
	type ping struct {
		peer   int
		charge bool // confirmation probe: charge virtual detector period
	}
	var probes []ping
	var verdicts []int
	c.hbMu.Lock()
	for peer, h := range c.health {
		if h.dead {
			continue
		}
		if now.Sub(h.lastHeard) < c.hb.Interval {
			continue // piggybacked traffic is fresh; nothing to do
		}
		if !h.suspect {
			h.missed++
			if h.missed >= c.hb.SuspectAfter {
				h.suspect = true
				h.probes = 0
			}
			probes = append(probes, ping{peer, h.suspect})
			if h.suspect {
				c.event("suspect", peer, c.mgrClk.Now())
				c.gSuspect.Add(c.mgrClk.Now(), 1)
				c.led.Detect("pe", peer, c.mgrClk.Now(), "suspect")
			}
			continue
		}
		// Suspect: confirmation probes with exponential backoff, so a merely
		// slow or descheduled peer gets geometrically growing grace periods.
		shift := h.probes
		if shift > defaultProbeBackoffShift {
			shift = defaultProbeBackoffShift
		}
		if now.Sub(h.lastProbe) < c.hb.Interval<<shift {
			continue
		}
		h.probes++
		h.lastProbe = now
		if h.probes > c.hb.ConfirmAfter {
			// The confirmation budget is spent. Before declaring the peer
			// dead, consult the fabric: a peer silenced by a partition (every
			// rail between the pair severed, both sides alive) must be
			// suspended and retried, not aborted. Hold the probe count at the
			// threshold so the verdict re-runs every capped backoff period
			// for as long as the suspension lasts.
			h.probes = c.hb.ConfirmAfter
			verdicts = append(verdicts, peer)
			continue
		}
		probes = append(probes, ping{peer, true})
	}
	c.hbMu.Unlock()
	for _, p := range probes {
		c.sendPing(p.peer, p.charge)
	}
	for _, peer := range verdicts {
		c.partitionVerdict(peer)
	}
	if c.Err() == nil {
		c.hbRearm()
	}
}

func (c *Conduit) hbRearm() {
	c.hbMu.Lock()
	if !c.closed.Load() {
		c.hbTimer = time.AfterFunc(c.hb.Interval, c.hbScan)
	}
	c.hbMu.Unlock()
}

// partitionVerdict decides the fate of a suspect whose confirmation budget is
// spent: dead peer or partitioned peer. A peer that stayed silent while a
// live path to it existed is dead — abort, the PR 2 path. A peer severed on
// every rail is *partitioned*: both sides are alive but cannot talk, so the
// detector suspends it and retries, with bounded virtual-time patience. A
// partition with a scheduled heal is simply waited out — the suspension is
// bounded by the schedule, and the first post-heal ack resumes normal
// operation (and exactly-once delivery, via the session layer's retained
// window) through noteAlive. A permanent severance aborts the job with the
// distinct ExitPartitioned code once defaultHBPartition charged probes — each
// advancing virtual time one detector period — go unanswered.
func (c *Conduit) partitionVerdict(peer int) {
	fab := c.cfg.HCA.Fabric()
	fi := fab.Faults()
	netFaults := fi.NetFaultsScheduled()
	blocked := false
	heal := int64(0)
	// The verdict is judged at the job's current virtual time, not the
	// detector's: the manager clock only advances on served messages and
	// charged probes, so it can still sit before a fault window the app
	// thread has already run into (its send is what went silent). Take the
	// later of the two clocks.
	now := c.mgrClk.Now()
	if app := c.clk.Now(); app > now {
		now = app
	}
	if netFaults {
		ud, err := c.resolveUDOpt(peer, false)
		if err != nil {
			return // resolution in flight; re-evaluate at the next backoff period
		}
		src, dst := c.cfg.HCA.LID(), ud.LID
		blocked = fab.PathsSevered(src, dst, now)
		if blocked {
			var windowed bool
			windowed, heal = fi.PartitionInfo(src, dst, now)
			if !windowed {
				// Severed by permanent port/rail failures rather than a
				// partition window: no heal is ever coming.
				heal = -1
			}
		}
	}
	if !blocked {
		c.hbMu.Lock()
		h := c.health[peer]
		if h == nil || h.dead {
			c.hbMu.Unlock()
			return
		}
		if netFaults && (h.reconfirmRounds < defaultHBPartition || fi.SeveranceActiveAt(now)) {
			// The paths between us are clear, but the silence still proves
			// nothing. Three reasons. (1) Every probe so far may have been
			// swallowed by a severance window one of the pair's clocks was
			// inside (this peer need not be marked suspended: another peer's
			// suspension can warp the verdict clock past a window this one
			// silently sat out). (2) While ANY severance is in effect, a
			// live peer — even one on our own node — can be transitively
			// stalled behind a dark path to a third rank; death verdicts are
			// deferred until the fabric is quiet. (3) Even after a heal, a
			// live peer can lag for a while behind its own recovery replays.
			// So: restart the confirmation budget and probe from the verdict
			// clock, up to defaultHBPartition quiet-air rounds. A live peer's
			// first ack ends the suspicion via noteAlive; a dead one stays
			// silent until the rounds are spent and the verdict falls
			// through to confirmDead. Termination stays bounded: the rounds
			// are finite once the fabric is quiet, and a permanently severed
			// pair aborts with ExitPartitioned through the patience path
			// below.
			h.reconfirmRounds++
			h.probes = 0
			c.hbMu.Unlock()
			c.mgrClk.AdvanceTo(now)
			c.sendPing(peer, true)
			return
		}
		h.dead = true
		c.hbMu.Unlock()
		c.confirmDead(peer)
		return
	}
	first, exhausted := false, false
	c.hbMu.Lock()
	h := c.health[peer]
	if h == nil || h.dead {
		c.hbMu.Unlock()
		return
	}
	if !h.suspended {
		h.suspended = true
		h.suspendVT = c.mgrClk.Now()
		h.patienceProbes = 0
		first = true
	}
	h.reconfirmRounds = 0 // back inside a severance window; re-arm the grace
	if heal < 0 {
		h.patienceProbes++
		exhausted = h.patienceProbes > defaultHBPartition
	} else {
		h.patienceProbes = 0 // a scheduled heal re-opens unlimited patience
	}
	c.hbMu.Unlock()
	if first {
		c.statMu.Lock()
		c.stats.PartitionSuspensions++
		c.statMu.Unlock()
		c.event("partition-suspend", peer, c.mgrClk.Now())
		c.led.Detect("net", -1, c.mgrClk.Now(), "partition-suspend")
	}
	if exhausted {
		c.event("partition-fatal", peer, c.mgrClk.Now())
		c.raiseAbort(&AbortError{Origin: c.cfg.Rank, Dead: -1, Code: ExitPartitioned,
			Reason: fmt.Sprintf("rank %d partitioned from rank %d on every rail with no scheduled heal; gave up after %d patience probes",
				c.cfg.Rank, peer, defaultHBPartition)}, true)
		return
	}
	// A suspension with a scheduled heal is waited out in virtual time: warp
	// the detector clock to the heal boundary — nothing else can advance VT
	// while every path is dark, exactly like a discrete-event simulator
	// jumping to its next scheduled event — so the charged probe below
	// departs after the heal and draws the ack that ends the suspension.
	if heal >= 0 {
		c.mgrClk.AdvanceTo(heal)
	}
	// Charged patience probe: advances virtual time, keeping the suspension
	// bounded in VT, and — once the partition heals — draws the ack whose
	// arrival ends the suspension.
	c.sendPing(peer, true)
}

// sendPing sends one explicit heartbeat probe. Confirmation probes (charge)
// advance the manager clock by the virtual detector period, so a death is
// confirmed within a bounded number of virtual-time periods; routine
// keepalive probes ride a detached clock — background monitoring must never
// advance the PE's virtual time (or it would trip VT-scheduled faults and
// skew fault-free runs on its own).
func (c *Conduit) sendPing(peer int, charge bool) {
	// No fallback: a background probe must never block in the Put-Fence
	// collective or advance the app clock. An unresolved peer is skipped.
	ud, err := c.resolveUDOpt(peer, false)
	if err != nil {
		return
	}
	clk := c.mgrClk
	if charge {
		clk.Advance(c.model.HeartbeatPeriod)
	} else {
		clk = vclock.NewClock(c.mgrClk.Now())
	}
	c.hbMu.Lock()
	if h := c.health[peer]; h != nil {
		h.probeVT = clk.Now()
	}
	c.hbMu.Unlock()
	c.statMu.Lock()
	c.stats.HeartbeatsSent++
	c.statMu.Unlock()
	c.sendControl(peer, ud, connMsg{Kind: msgHeartbeat, SrcRank: int32(c.cfg.Rank), UD: c.udQP.Addr()}, clk)
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
		c.dropUnackedLocked(cn, c.mgrClk.Now())
	}
	c.connMu.Unlock()
	c.connCond.Broadcast()
	c.failPending(dropped)
	return true
}

// failPending completes dropped queued work requests as flushed, so blocked
// issuers (Get, atomics) fail fast and the Quiet accounting stays exact.
func (c *Conduit) failPending(pending []pendingWR) {
	for _, p := range pending {
		wrid := p.wr.WRID
		c.waiterMu.Lock()
		ch := c.waiters[wrid]
		delete(c.waiters, wrid)
		nbi := false
		if ch == nil && p.wr.Op == ib.OpRDMARead {
			if _, ok := c.pendingGets[wrid]; ok {
				delete(c.pendingGets, wrid)
				nbi = true
			}
		}
		c.waiterMu.Unlock()
		if ch != nil {
			ch <- ib.Completion{WRID: wrid, Op: p.wr.Op, Status: ib.StatusFlushed, VTime: c.mgrClk.Now()}
			continue
		}
		if p.wr.Op == ib.OpRDMAWrite || nbi || (p.wr.Op == ib.OpSend && wrid != 0) {
			c.putDone(ib.Completion{VTime: c.mgrClk.Now()})
		}
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
// blocked operation. First error wins.
func (c *Conduit) raiseLocal(err error) bool {
	c.abortMu.Lock()
	if c.abortErr != nil {
		c.abortMu.Unlock()
		return false
	}
	c.abortErr = err
	cbs := c.onAbort
	c.onAbort = nil
	close(c.abortCh)
	c.abortMu.Unlock()
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
	if !c.raiseLocal(ae) {
		return
	}
	c.event("abort", ae.Dead, c.mgrClk.Now())
	if ae.Dead >= 0 {
		c.led.Act("pe", ae.Dead, c.mgrClk.Now(), "abort")
	}
	if !propagate {
		return
	}
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
	c.raiseLocal(&AbortError{Origin: int(m.SrcRank), Dead: dead, Code: code, Reason: reason})
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
