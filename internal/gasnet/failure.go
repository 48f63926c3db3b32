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
// never heal: every rail between the pair is dark and no heal is scheduled.
// Deliberately distinct from both 1 (peer confirmed dead — here both sides are
// alive) and 124 (watchdog — the partition is detected and reported, not a
// hang).
const ExitPartitioned = 126

// AbortError is the terminal job-abort error. It is raised by the PE that
// confirms a peer dead, by an explicit GlobalExit, or by the cluster
// watchdog, and reaches every PE through the PMI abort (the launcher's kill
// path, pmiAbort).
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

// HeartbeatConfig forces the UD-heartbeat failure detector on or off. Left
// zero, it is armed only when the fabric has PE or network failures scheduled
// — a fault-free run never probes, suspects, or pays anything for it.
//
// Liveness is piggybacked on existing traffic: every software-level message
// from a peer (handshake legs, active messages, heartbeat acks) refreshes it.
// Explicit probes go only to monitored peers that have been silent for a full
// period; the rules are the health value in detector.go. The detector ticks on
// the job's timer queue once per CostModel.HeartbeatPeriod of virtual time —
// that is, only while the job is otherwise stuck — so a death is confirmed
// within a bounded number of virtual detector periods, and a peer that is
// merely slow on the host is never suspected at all.
type HeartbeatConfig struct {
	// Enable arms the detector even without scheduled failures.
	Enable bool
	// Disable forces the detector off (watchdog tests use it to make an
	// injected failure genuinely hang the job).
	Disable bool
}

// Self-fate states cached in Conduit.selfState.
const (
	selfAlive int32 = iota
	selfKilled
	selfWedged
)

// hbRearm schedules the next tick one period after now, unless Close has
// stopped the detector.
func (c *Conduit) hbRearm(now int64) {
	c.connMu.Lock()
	if !c.hbOff {
		c.hbTimer = c.sched.After(now+c.model.HeartbeatPeriod, c.cfg.Rank, c.hbTick)
	}
	c.connMu.Unlock()
}

// selfFate consults the fault plane for this PE's own scheduled crash/wedge
// at virtual time now, firing the first-trigger side effects. The app path
// passes its own clock; the progress path passes the arrival time, so an
// idle victim still crashes when traffic from the future reaches it.
func (c *Conduit) selfFate(now int64) int32 {
	if s := c.selfState.Load(); s != selfAlive {
		return s
	}
	switch c.cfg.HCA.Fabric().PEFate(c.cfg.Rank, now) {
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
// through PMI (the launcher's kill).
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
	return c.Err()
}

// Err returns the job-abort (or own-crash) error once this PE has aborted,
// else nil.
func (c *Conduit) Err() error {
	if p := c.abortErr.Load(); p != nil {
		return *p
	}
	return nil
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

// OnAbort registers f to run once when the job aborts (or immediately if it
// already has). Upper layers use it to wake their own condition variables so
// blocked receives can observe LivenessErr: with vclock.Cond.Wake, since the
// abort is published outside their locks.
func (c *Conduit) OnAbort(f func(error)) {
	c.done.mu.Lock()
	err := c.Err()
	if err == nil {
		c.done.onAbort = append(c.done.onAbort, f) // raiseLocal takes the list after publishing
	}
	c.done.mu.Unlock()
	if err != nil {
		f(err)
	}
}

// PeerDead reports whether peer has been confirmed dead.
func (c *Conduit) PeerDead(peer int) bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	cn := c.conns.get(peer)
	return cn != nil && cn.dead
}

// watched reports whether the detector covers peer at all: it is armed, and
// peer is another rank of this job.
func (c *Conduit) watched(peer int) bool {
	return c.hbArmed && peer != c.cfg.Rank && peer >= 0 && peer < c.cfg.NProcs
}

// MonitorPeer registers peer with the failure detector, so a blocking
// receive from it is covered even before any traffic has flowed. No-op when
// the detector is not armed.
func (c *Conduit) MonitorPeer(peer int) {
	if !c.watched(peer) {
		return
	}
	c.connMu.Lock()
	c.conns.getOrCreate(peer).health.watch(c.clk.Now())
	c.connMu.Unlock()
}

// noteAlive refreshes the detector's liveness for peer — the piggyback path:
// any software-level message from the peer (vt is its arrival) proves it
// alive, so explicit probes are needed only when a link is idle. A heartbeat
// ack also closes the RTT sample its probe opened.
func (c *Conduit) noteAlive(peer int, vt int64, ack bool) {
	if !c.watched(peer) {
		return
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	cn := c.conns.getOrCreate(peer)
	if ack {
		if rtt := cn.health.ackRTT(vt); rtt > 0 {
			c.hHBRTT.Record(rtt)
		}
	}
	cleared, healed := cn.health.heard(vt)
	if !cleared || cn.dead {
		return
	}
	now := c.mgrClk.Now()
	c.gSuspect.Add(now, -1)
	if healed {
		// A suspended peer answered: the partition healed and the pair is
		// reconnected. This is recovery, not a false alarm — the detector's
		// suspicion was correct while the windows were active.
		c.stats.PartitionHeals++
		c.event("partition-heal", peer, now)
		c.led.CloseAll("net", []string{"partition"}, -1, obs.InstJob, now, "heal-observed")
		return
	}
	c.stats.FalseSuspicions++
	c.event("suspect-clear", peer, now)
}

// hbTick is the detector's pass, one period of virtual time after the last:
// give every slot's health its tick and do what it asks — raise the
// suspicion, send the probe, fetch the verdict. It runs on the timer queue, so
// the job was stuck when it fired: virtual time really has passed for every
// PE, and the manager clock follows it.
func (c *Conduit) hbTick(vt int64) {
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
		// A killed or wedged PE's software no longer probes. Its tick still
		// rearms, so virtual time keeps moving while it hangs: the deadline
		// watchdog reads the timer queue's frontier.
		c.hbRearm(now)
		return
	}
	var peers, probes, verdicts []int
	c.connMu.Lock()
	if c.hbOff {
		c.connMu.Unlock()
		return
	}
	c.conns.each(func(peer int, cn *conn) {
		if !cn.dead {
			peers = append(peers, peer)
		}
	})
	sort.Ints(peers) // probe order must not depend on map iteration
	for _, peer := range peers {
		switch c.conns.get(peer).health.tick(now, c.model.HeartbeatPeriod) {
		case tickSuspect:
			c.event("suspect", peer, now)
			c.gSuspect.Add(now, 1)
			c.led.Detect("pe", peer, now, "suspect")
			fallthrough
		case tickProbe:
			probes = append(probes, peer)
		case tickJudge:
			verdicts = append(verdicts, peer)
		}
	}
	c.connMu.Unlock()
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

// partitionVerdict fetches, at virtual time now, the verdict on a suspect
// whose confirmation budget is spent — dead peer or partitioned peer
// (health.judge) — and carries it out. The fabric's schedule is the whole of
// the evidence; gathering it is all this shell adds.
func (c *Conduit) partitionVerdict(peer int, now int64) {
	var lid uint16
	if c.netFaulty {
		ud, err := c.resolveUDOpt(peer, false)
		if err != nil {
			return // resolution in flight; re-evaluate at the next tick
		}
		lid = ud.LID
	}
	c.connMu.Lock()
	cn := c.conns.get(peer)
	if cn.dead {
		c.connMu.Unlock()
		return
	}
	var p path
	p.dark, p.heal = c.severed(lid, now)
	p.dimmed = !p.dark && c.cfg.HCA.Fabric().SeveredDuring(c.cfg.HCA.LID(), lid, cn.health.since, now)
	f, first := cn.health.judge(now, p)
	if first {
		c.stats.PartitionSuspensions++
		c.event("partition-suspend", peer, now)
		c.led.Detect("net", -1, now, "partition-suspend")
	}
	c.connMu.Unlock()
	switch f {
	case fateRestart:
		c.sendPing(peer, now)
	case fateDead:
		c.confirmDead(peer, now)
	case fateFatal:
		c.event("partition-fatal", peer, now)
		c.abortAt(&AbortError{Origin: c.cfg.Rank, Dead: -1, Code: ExitPartitioned,
			Reason: fmt.Sprintf("rank %d partitioned from rank %d on every rail with no scheduled heal",
				c.cfg.Rank, peer)}, now)
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
	c.bump(&c.stats.HeartbeatsSent, 1)
	c.sendControl(peer, ud, connMsg{Kind: msgHeartbeat, SrcRank: int32(c.cfg.Rank), UD: c.udQP.Addr()}, vclock.NewClock(now))
}

// markDead flags peer as dead and strips its connection slot: the handshake
// (if any) is torn down and every queued work request is failed back to its
// issuer. Returns whether this call did the marking. confirmed (this PE's own
// detector condemned the peer) counts a PEFailure before anything blocked on
// the peer is released, so a PE that unwinds on ErrPeerDead reports it.
func (c *Conduit) markDead(peer int, confirmed bool) bool {
	c.connMu.Lock()
	cn := c.conns.getOrCreate(peer)
	if cn.dead {
		c.connMu.Unlock()
		return false
	}
	cn.dead = true
	if confirmed {
		c.stats.PEFailures++
	}
	dropped := cn.pending
	cn.pending = nil
	c.driveLocked(cn, peer, event{kind: evPeerDead}, &driveIn{})
	// Frames retained for a dead peer will never be acknowledged; release
	// them so Quiet does not wait on a ghost.
	c.trimAckedLocked(cn, math.MaxUint64, c.mgrClk.Now())
	c.connMu.Unlock()
	c.connCond.Broadcast()
	for _, p := range dropped {
		c.complete(p.wr.WRID, ib.Completion{VTime: c.mgrClk.Now()}, ErrPeerDead)
	}
	return true
}

// confirmDead finalizes a suspect at virtual time now, the detector's verdict
// time: mark the peer dead, fail everything queued against it, and raise the
// job abort that reaches every PE through PMI.
func (c *Conduit) confirmDead(peer int, now int64) {
	if !c.markDead(peer, true) {
		return
	}
	c.event("confirm-dead", peer, now)
	c.gSuspect.Add(now, -1)
	c.led.Act("pe", peer, now, "confirm-dead")
	c.abortAt(&AbortError{Origin: c.cfg.Rank, Dead: peer, Code: 1,
		Reason: fmt.Sprintf("rank %d confirmed dead by rank %d's failure detector", peer, c.cfg.Rank)}, now)
}

// raiseLocal records err as this PE's terminal state and releases every
// blocked operation. First error wins; the winner runs announce (may be nil)
// before anything blocked here is released, so by the time the application
// thread unwinds, the abort it unwinds with has been told to the job.
func (c *Conduit) raiseLocal(err error, announce func()) bool {
	if !c.abortErr.CompareAndSwap(nil, &err) {
		return false
	}
	// Whoever checked for an abort under the table's lock before err was
	// published is waiting on its condition by the time we get the lock.
	c.done.mu.Lock()
	cbs := c.done.onAbort
	c.done.onAbort = nil
	c.done.mu.Unlock()
	if announce != nil {
		announce()
	}
	close(c.abortCh)
	c.connCond.Wake() // its waiters read Err under connMu, which we do not hold
	c.done.cond.Broadcast()
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

// Abort raises a job abort from this PE (shmem_global_exit semantics): it
// records the abort here, then raises it through PMI (PMI2_Abort), which
// delivers it to every PE of the job — the dead rank included, whose "death"
// may be a wedge that only the launcher's kill can release.
func (c *Conduit) Abort(ae *AbortError) { c.abortAt(ae, c.mgrClk.Now()) }

// abortAt is Abort raised at virtual time now, by a path that knows it (the
// manager clock can lag a detector verdict's time).
func (c *Conduit) abortAt(ae *AbortError, now int64) {
	if ae.Code == 0 {
		ae.Code = 1
	}
	c.raiseLocal(ae, func() {
		c.event("abort", ae.Dead, now)
		if ae.Dead >= 0 {
			c.led.Act("pe", ae.Dead, now, "abort")
		}
		c.cfg.PMI.RaiseAbort(pmi.AbortNotice{Origin: ae.Origin, Dead: ae.Dead, Code: ae.Code, Reason: ae.Reason})
	})
}

// pmiAbort is this PE's end of the launcher's kill: the PMI server runs it
// once the job's abort is raised (New registers it). It marks the dead rank
// before publishing the abort error: once Err() is observable, PeerDead(dead)
// must already hold, so callers can fail fast without a window where the job
// is aborted but the victim still looks alive.
func (c *Conduit) pmiAbort(n pmi.AbortNotice) {
	if c.Err() != nil {
		return // the origin, or a PE that crashed on its own
	}
	if n.Dead >= 0 && n.Dead < c.cfg.NProcs && n.Dead != c.cfg.Rank {
		c.markDead(n.Dead, false)
	}
	c.raiseLocal(&AbortError{Origin: n.Origin, Dead: n.Dead, Code: n.Code, Reason: n.Reason}, nil)
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
	c.conns.each(func(peer int, cn *conn) {
		switch cn.state {
		case connReady:
			s.Ready++
		case connConnecting:
			s.Connecting++
		case connAccepted:
			s.Accepted++
		}
		s.PendingWRs += len(cn.pending)
		switch {
		case cn.dead:
			s.Dead = append(s.Dead, peer)
		case cn.health.suspect():
			s.Suspects = append(s.Suspects, peer)
			if cn.health.suspended {
				s.Suspended = append(s.Suspended, peer)
			}
		}
	})
	s.HeldReqs = len(c.heldReqs)
	s.LastReadyVT = c.lastReadyVT
	c.connMu.Unlock()
	c.done.mu.Lock()
	s.Outstanding = c.done.holds
	c.done.mu.Unlock()
	sort.Ints(s.Suspects)
	sort.Ints(s.Suspended)
	sort.Ints(s.Dead)
	return s
}
