package cluster

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/shmem"
	"goshmem/internal/vclock"
)

// runBounded runs the job in a goroutine and fails the test if it does not
// terminate within the bound — the acceptance criterion is that an injected
// PE failure never hangs the launcher.
func runBounded(t *testing.T, cfg Config, app func(c *shmem.Ctx)) *Result {
	t.Helper()
	return runBoundedFor(t, cfg, 30*time.Second, app)
}

// runBoundedFor is runBounded with an explicit real-time bound, for soaks
// whose workload legitimately needs longer under the race detector.
func runBoundedFor(t *testing.T, cfg Config, bound time.Duration, app func(c *shmem.Ctx)) *Result {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := Run(cfg, app)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatalf("Run: %v", o.err)
		}
		return o.res
	case <-time.After(bound):
		t.Fatalf("job hung: Run did not terminate within %v despite injected fault", bound)
		return nil
	}
}

// computeBarrierLoop is the canonical victim workload: alternating compute
// phases and global barriers, so every PE regularly passes through the
// conduit (where fate schedules and liveness errors are observed).
func computeBarrierLoop(iters int, flops float64) func(c *shmem.Ctx) {
	return func(c *shmem.Ctx) {
		for i := 0; i < iters; i++ {
			c.Compute(flops)
			c.BarrierAll()
		}
	}
}

// TestKillPETerminatesJobWithExitCodes injects a fail-stop crash mid-job and
// verifies the whole job terminates in bounded time with launcher-style exit
// codes: 137 for the crashed PE, the abort's code 1 for every survivor. Nothing
// of the killed job outlives Run: the goroutine count gets back to where it
// was before the launch.
func TestKillPETerminatesJobWithExitCodes(t *testing.T) {
	const np, victim = 8, 5
	cfg := Config{
		NP: np, PPN: 4, Mode: gasnet.OnDemand, HeapSize: 1 << 20,
		KillPEs: []PEFault{{Rank: victim, At: 1 * vclock.Second}},
	}
	before := runtime.NumGoroutine()
	// 300 x 10ms virtual = 3s of virtual work; the victim crashes at 1s.
	res := runBounded(t, cfg, computeBarrierLoop(300, 2.5e7))
	// A goroutine that has signalled its end may still be exiting (the PE's
	// own, runBounded's): give them a second of wall time, no more.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the killed job", runtime.NumGoroutine()-before)
		}
	}

	if !res.Aborted {
		t.Fatal("job with a killed PE did not report Aborted")
	}
	if res.AbortReason == "" {
		t.Error("aborted job has empty AbortReason")
	}
	if got := res.PEs[victim].ExitCode; got != ExitKilled {
		t.Errorf("killed PE exit code = %d, want %d", got, ExitKilled)
	}
	// Every survivor unwinds with the abort's own code: the peer-death
	// abort, delivered through PMI.
	for _, p := range res.PEs {
		if p.Rank != victim && p.ExitCode != 1 {
			t.Errorf("survivor pe %d exit code = %d, want 1", p.Rank, p.ExitCode)
		}
	}
	c := res.Counters()
	if c.PEFailures < 1 {
		t.Errorf("PEFailures = %d, want >= 1", c.PEFailures)
	}
	if c.HeartbeatsSent == 0 {
		t.Error("no heartbeats sent while confirming a dead PE")
	}
}

// TestWatchdogStallFiresOnWedgedJob disables the failure detector so a
// wedged PE genuinely hangs the job, then verifies the stalled-progress
// watchdog terminates it: exit code 124 for stranded survivors, 134 for the
// wedged PE (killed by the launcher), and a non-empty diagnostic dump.
func TestWatchdogStallFiresOnWedgedJob(t *testing.T) {
	const np, victim = 8, 2
	cfg := Config{
		NP: np, PPN: 4, Mode: gasnet.OnDemand, HeapSize: 1 << 20,
		WedgePEs:     []PEFault{{Rank: victim, At: 1 * vclock.Second}},
		Heartbeat:    gasnet.HeartbeatConfig{Disable: true},
		StallTimeout: 250 * time.Millisecond,
	}
	res := runBounded(t, cfg, computeBarrierLoop(300, 2.5e7))

	if !res.Aborted {
		t.Fatal("wedged job did not report Aborted")
	}
	if !strings.Contains(res.AbortReason, "watchdog") {
		t.Errorf("abort reason %q does not mention the watchdog", res.AbortReason)
	}
	if res.Dump == "" {
		t.Error("watchdog fired without a diagnostic state dump")
	}
	if !strings.Contains(res.Dump, "wedged") {
		t.Errorf("state dump does not identify the wedged PE:\n%s", res.Dump)
	}
	if got := res.PEs[victim].ExitCode; got != ExitWedged && got != ExitWatchdog {
		t.Errorf("wedged PE exit code = %d, want %d or %d", got, ExitWedged, ExitWatchdog)
	}
	for _, p := range res.PEs {
		if p.Rank == victim {
			continue
		}
		if p.ExitCode != ExitWatchdog {
			t.Errorf("pe %d exit code = %d, want %d (watchdog)", p.Rank, p.ExitCode, ExitWatchdog)
		}
	}
}

// TestWatchdogDeadlineFires arms only the virtual-time deadline: a job whose
// compute loop runs past the budget is terminated even though it is making
// progress, and PEs that notice the abort via Err() exit 124.
func TestWatchdogDeadlineFires(t *testing.T) {
	cfg := Config{
		NP: 4, PPN: 4, Mode: gasnet.OnDemand, HeapSize: 1 << 20,
		Deadline: 500 * vclock.Millisecond,
	}
	res := runBounded(t, cfg, func(c *shmem.Ctx) {
		// 10s of virtual compute against a 0.5s deadline; poll Err so the
		// abort is observed between phases, as a cooperative app would. The
		// real-time sleep paces the loop so the watchdog's poller can see
		// the virtual clock cross the deadline while the job still runs.
		for i := 0; i < 1000 && c.Err() == nil; i++ {
			c.Compute(2.5e7)
			time.Sleep(time.Millisecond)
		}
	})
	if !res.Aborted {
		t.Fatal("job past its deadline did not report Aborted")
	}
	if !strings.Contains(res.AbortReason, "deadline") {
		t.Errorf("abort reason %q does not mention the deadline", res.AbortReason)
	}
	for _, p := range res.PEs {
		if p.ExitCode != ExitWatchdog {
			t.Errorf("pe %d exit code = %d, want %d", p.Rank, p.ExitCode, ExitWatchdog)
		}
	}
}

// TestFaultFreeJobHasZeroFailureCounters is the cluster-level happy-path
// guard: a clean run must show no detector or abort activity and all-zero
// exit codes.
func TestFaultFreeJobHasZeroFailureCounters(t *testing.T) {
	cfg := Config{NP: 8, PPN: 4, Mode: gasnet.OnDemand, HeapSize: 1 << 20}
	res := runBounded(t, cfg, computeBarrierLoop(20, 2.5e7))
	if res.Aborted {
		t.Fatalf("fault-free job reported Aborted: %s", res.AbortReason)
	}
	c := res.Counters()
	if c.PEFailures != 0 || c.HeartbeatsSent != 0 || c.FalseSuspicions != 0 {
		t.Errorf("fault-free run shows failure-detector activity: %+v", c)
	}
	for _, p := range res.PEs {
		if p.ExitCode != 0 {
			t.Errorf("pe %d exit code = %d on a clean run", p.Rank, p.ExitCode)
		}
	}
}

// TestWatchdogStopJoins: stop returns only after the watchdog's goroutine has,
// because that goroutine's stack references the whole job and a caller may
// measure the heap the moment Run returns (benchmark/ does, as the next job's
// baseline: with a watchdog merely told to stop, one baseline in five still
// contained the finished job).
func TestWatchdogStopJoins(t *testing.T) {
	for i := 0; i < 200; i++ {
		fab := ib.NewFabric(vclock.Default(), nil)
		w := newWatchdog(Config{StallTimeout: time.Hour}, &substrate{fab: fab})
		w.stop()
		select {
		case <-w.stopped:
		default:
			t.Fatalf("iteration %d: stop returned while the watchdog goroutine was still running", i)
		}
	}
	(*watchdog)(nil).stop()
}
