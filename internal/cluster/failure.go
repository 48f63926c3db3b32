package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"goshmem/internal/gasnet"
	"goshmem/internal/pmi"
	"goshmem/internal/vclock"
)

// PEFault schedules a PE-level fault: the PE crashes (KillPEs) or wedges
// (WedgePEs) the first time its virtual clock reaches At nanoseconds.
type PEFault struct {
	Rank int
	At   int64 // virtual time (ns)
}

// Exit codes the launcher assigns to PEs of an aborted job, following the
// conventions of POSIX job launchers: 128+SIGKILL for a crashed process,
// 128+SIGABRT for a wedged one killed by the launcher, 124 (the timeout(1)
// convention) for a watchdog termination, and the abort code otherwise.
const (
	ExitKilled   = 137 // 128 + SIGKILL: PE crashed (fail-stop)
	ExitWedged   = 134 // 128 + SIGABRT: PE wedged, killed by the launcher
	ExitWatchdog = 124 // hung-job watchdog deadline/stall termination
	// ExitPMIFail: the out-of-band control plane failed permanently (PMI
	// retry budgets exhausted, no fallback left). Raised by the conduit;
	// re-exported here so launcher-side code has all codes in one place.
	ExitPMIFail = gasnet.ExitPMIFailure
	// ExitResourceExhausted: a finite adapter budget left a PE with provably
	// no path to forward progress after every degradation rung was tried.
	ExitResourceExhausted = gasnet.ExitResourceExhausted
	// ExitPartitioned: a peer was unreachable on every rail with no scheduled
	// heal, so the failure detector's verdict was final. Distinct from
	// 1 (peer confirmed dead) and 124 (watchdog): the peer was alive but
	// unreachable, and the job chose to exit rather than wait forever.
	ExitPartitioned = gasnet.ExitPartitioned
)

// exitCodeForErr classifies a liveness error into a per-PE exit code.
// Returns ok=false when err is not part of the failure plane.
func exitCodeForErr(err error) (int, bool) {
	if err == nil {
		return 0, false
	}
	var ce *gasnet.CrashError
	if errors.As(err, &ce) {
		return ExitKilled, true
	}
	var we *gasnet.WedgeError
	if errors.As(err, &we) {
		return ExitWedged, true
	}
	var ae *gasnet.AbortError
	if errors.As(err, &ae) {
		if ae.Code == 0 {
			return 1, true
		}
		return ae.Code, true
	}
	if errors.Is(err, gasnet.ErrPeerDead) {
		return 1, true
	}
	return 0, false
}

// exitCodeForPanic classifies a recovered panic value; the runtime layers
// panic with wrapped liveness errors on controlled job aborts.
func exitCodeForPanic(p any) (int, bool) {
	err, ok := p.(error)
	if !ok {
		return 0, false
	}
	return exitCodeForErr(err)
}

// watchdog is the hung-job detector: it fires when the job's virtual time
// exceeds a deadline or when no PE makes progress (virtual clocks and fabric
// deliveries frozen) for a stretch of real time, then dumps diagnostic state
// and terminates every PE with the watchdog exit code.
type watchdog struct {
	deadline int64         // virtual-time budget (0 = none)
	stall    time.Duration // real-time progress timeout (0 = none)

	sub *substrate // the clocks and fabric it reads, the PMI server it aborts through

	mu       sync.Mutex
	conduits map[int]*gasnet.Conduit
	fired    bool
	reason   string
	dump     string

	done    chan struct{}
	stopped chan struct{} // closed when run has returned
}

// watchdogPoll is how often, in real time, the watchdog checks the job.
const watchdogPoll = 20 * time.Millisecond

func newWatchdog(cfg Config, sub *substrate) *watchdog {
	if cfg.Deadline <= 0 && cfg.StallTimeout <= 0 {
		return nil
	}
	w := &watchdog{
		deadline: cfg.Deadline, stall: cfg.StallTimeout,
		sub:      sub,
		conduits: make(map[int]*gasnet.Conduit),
		done:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	go w.run()
	return w
}

// register hands the watchdog one PE's conduit once it exists, for the
// diagnostic dump. A conduit that arrives after the firing needs nothing
// more: it subscribed to the PMI abort, which reached it at once.
func (w *watchdog) register(rank int, c *gasnet.Conduit) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.conduits[rank] = c
	w.mu.Unlock()
}

func (w *watchdog) stop() {
	if w == nil {
		return
	}
	close(w.done)
	<-w.stopped // run's stack references the whole job: it must not outlive Run
}

// Fired reports whether the watchdog terminated the job, and why.
func (w *watchdog) result() (fired bool, reason, dump string) {
	if w == nil {
		return false, "", ""
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fired, w.reason, w.dump
}

func (w *watchdog) maxVT() int64 {
	// The timer queue's frontier counts: a job waiting out a silence spends
	// its virtual time there while every PE clock stands still.
	return max(w.sub.fab.Sched().Now(), maxClockVT(w.sub.clks))
}

// progress is a monotone signature of job activity: total virtual time plus
// total fabric deliveries. A wedged or deadlocked job freezes it.
func (w *watchdog) progress() int64 {
	var sig int64
	for _, clk := range w.sub.clks {
		sig += clk.Now()
	}
	for _, h := range w.sub.fab.HCAs() {
		sig += h.Stats().MsgsDelivered
	}
	return sig
}

func (w *watchdog) run() {
	defer close(w.stopped)
	ticker := time.NewTicker(watchdogPoll)
	defer ticker.Stop()
	lastSig := w.progress()
	lastChange := time.Now()
	for {
		select {
		case <-w.done:
			return
		case <-ticker.C:
		}
		if w.deadline > 0 {
			if vt := w.maxVT(); vt > w.deadline {
				w.fire(fmt.Sprintf("watchdog: job exceeded virtual-time deadline (%.3fs > %.3fs)",
					vclock.Seconds(vt), vclock.Seconds(w.deadline)))
				return
			}
		}
		if w.stall > 0 {
			if sig := w.progress(); sig != lastSig {
				lastSig = sig
				lastChange = time.Now()
			} else if time.Since(lastChange) >= w.stall {
				w.fire(fmt.Sprintf("watchdog: no progress (virtual clocks and fabric deliveries frozen) for %v", w.stall))
				return
			}
		}
	}
}

// fire dumps the job's state, then kills it the way a launcher does: one
// PMI abort, which every PE's conduit has subscribed to (and each conduit's
// abort releases its node barrier).
func (w *watchdog) fire(reason string) {
	// Capture diagnostics before tearing anything down.
	dump := w.buildDump(reason)
	w.mu.Lock()
	w.fired, w.reason, w.dump = true, reason, dump
	w.mu.Unlock()
	w.sub.srv.RaiseAbort(pmi.AbortNotice{Origin: -1, Dead: -1, Code: ExitWatchdog, Reason: reason})
}

// buildDump renders the per-PE diagnostic state dump: QP/connection states,
// in-flight handshakes, queue depths, detector state, clock skew.
func (w *watchdog) buildDump(reason string) string {
	w.mu.Lock()
	ranks := make([]int, 0, len(w.conduits))
	for r := range w.conduits {
		ranks = append(ranks, r)
	}
	snaps := make(map[int]gasnet.HealthSnapshot, len(w.conduits))
	for r, c := range w.conduits {
		snaps[r] = c.HealthSnapshot()
	}
	w.mu.Unlock()
	sort.Ints(ranks)

	maxVT := maxClockVT(w.sub.clks)
	minVT := maxVT
	for _, clk := range w.sub.clks {
		minVT = min(minVT, clk.Now())
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", reason)
	fmt.Fprintf(&b, "vclock skew: min=%.6fs max=%.6fs spread=%.6fs\n",
		vclock.Seconds(minVT), vclock.Seconds(maxVT), vclock.Seconds(maxVT-minVT))
	fmt.Fprintf(&b, "%-5s %-12s %-12s %-6s %-8s %-8s %-7s %-5s %-8s %-12s %s\n",
		"pe", "clockVT", "mgrVT", "ready", "connect", "accept", "pending", "held", "outst", "lastReadyVT", "detector")
	for _, r := range ranks {
		s := snaps[r]
		state := "alive"
		if s.Killed {
			state = "killed"
		} else if s.Wedged {
			state = "wedged"
		}
		if len(s.Suspects) > 0 {
			state += fmt.Sprintf(" suspects=%v", s.Suspects)
		}
		if len(s.Suspended) > 0 {
			state += fmt.Sprintf(" partitioned=%v", s.Suspended)
		}
		if len(s.Dead) > 0 {
			state += fmt.Sprintf(" dead=%v", s.Dead)
		}
		fmt.Fprintf(&b, "%-5d %-12.6f %-12.6f %-6d %-8d %-8d %-7d %-5d %-8d %-12.6f %s\n",
			r, vclock.Seconds(s.ClockVT), vclock.Seconds(s.MgrVT),
			s.Ready, s.Connecting, s.Accepted, s.PendingWRs, s.HeldReqs,
			s.Outstanding, vclock.Seconds(s.LastReadyVT), state)
	}
	return b.String()
}
