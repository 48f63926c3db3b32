package cluster

import (
	"math"
	"os"
	"strconv"
	"testing"
	"time"

	"goshmem/internal/apps/heat2d"
	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/pmi"
	"goshmem/internal/shmem"
	"goshmem/internal/vclock"
)

// runHeatCP runs the standard 16-PE heat2d job with an optional control-plane
// (PMI) injector and an optional fabric injector layered together.
func runHeatCP(t *testing.T, pmiFI *pmi.FaultInjector, ibFI *ib.FaultInjector) (heat2d.Result, *Result) {
	t.Helper()
	const np = 16
	var rank0 heat2d.Result
	cfg := Config{
		NP: np, PPN: 8, Mode: gasnet.OnDemand,
		HeapSize:  1 << 20,
		PMIFaults: pmiFI,
		Faults:    ibFI,
		Obs:       obs.Config{Incidents: true},
	}
	res := runBounded(t, cfg, func(c *shmem.Ctx) {
		r := heat2d.Run(c, heat2d.Params{NX: 32, NY: 8 * c.NPEs(), MaxIters: 20, CheckEvery: 5, Tol: 1e-6})
		if c.Me() == 0 {
			rank0 = r
		}
	})
	return rank0, res
}

// TestPMICrashFallbackByteIdentical is the graceful-degradation acceptance
// test: a server crash whose outage outlasts the IAllgather retry budget
// forces every PE onto the blocking Put-Fence-Get ladder, and the job still
// produces byte-identical results. The clean leg doubles as the fault-free
// guard for the new control-plane counters.
func TestPMICrashFallbackByteIdentical(t *testing.T) {
	clean, cleanRes := runHeatCP(t, nil, nil)
	if c := cleanRes.Counters(); c.PMIRetries != 0 || c.PMITimeouts != 0 ||
		c.FallbackExchanges != 0 || c.CorruptFrames != 0 {
		t.Errorf("fault-free run shows control-plane activity: %+v", c)
	}

	// Crash at t=0; the 600ms outage outlasts the default retry budget
	// (~255ms of backoff starting at the ~120ms launch), so the IAllgather
	// launch exhausts on every PE, while the fallback Puts — retrying later —
	// reach the recovered server.
	fi := pmi.NewFaultInjector(1)
	fi.CrashServer(0, 600*vclock.Millisecond)
	faulty, faultyRes := runHeatCP(t, fi, nil)

	if faultyRes.Aborted {
		t.Fatalf("recoverable outage aborted the job: %s", faultyRes.AbortReason)
	}
	if !fi.CrashTripped() {
		t.Fatal("armed server crash never tripped")
	}
	c := faultyRes.Counters()
	if c.FallbackExchanges != 16 {
		t.Errorf("FallbackExchanges = %d, want 16 (every PE degrades together)", c.FallbackExchanges)
	}
	if c.PMITimeouts < 16 {
		t.Errorf("PMITimeouts = %d, want >= 16 (one exhausted launch per PE)", c.PMITimeouts)
	}
	if c.PMIRetries == 0 {
		t.Error("no PMI retries recorded despite the outage")
	}
	if math.Float64bits(clean.Checksum) != math.Float64bits(faulty.Checksum) ||
		math.Float64bits(clean.Residual) != math.Float64bits(faulty.Residual) ||
		clean.Iters != faulty.Iters {
		t.Errorf("results diverged on the fallback path: clean %+v faulty %+v", clean, faulty)
	}
}

// TestPMICrashShortOutageStaysOnIAllgather: when the outage ends inside the
// retry budget, the exchange completes on the non-blocking path — retries
// fire, the fallback does not.
func TestPMICrashShortOutageStaysOnIAllgather(t *testing.T) {
	fi := pmi.NewFaultInjector(1)
	fi.CrashServer(0, 250*vclock.Millisecond)
	_, res := runHeatCP(t, fi, nil)
	if res.Aborted {
		t.Fatalf("short outage aborted the job: %s", res.AbortReason)
	}
	c := res.Counters()
	if c.FallbackExchanges != 0 {
		t.Errorf("FallbackExchanges = %d, want 0 (outage inside the retry budget)", c.FallbackExchanges)
	}
	if c.PMIRetries == 0 {
		t.Error("no retries recorded despite the outage")
	}
}

// TestPMIPermanentCrashAbortsWithTypedExitCode: with recovery disabled the
// retry budgets exhaust, the conduit raises the control-plane abort, and
// every PE exits with the distinct PMI-failure code in bounded time.
func TestPMIPermanentCrashAbortsWithTypedExitCode(t *testing.T) {
	fi := pmi.NewFaultInjector(1)
	fi.CrashServer(0, -1)
	_, res := runHeatCP(t, fi, nil)
	if !res.Aborted {
		t.Fatal("permanently crashed control plane did not abort the job")
	}
	if res.AbortReason == "" {
		t.Error("aborted job has empty AbortReason")
	}
	for _, p := range res.PEs {
		if p.ExitCode != ExitPMIFail {
			t.Errorf("pe %d exit code = %d, want %d", p.Rank, p.ExitCode, ExitPMIFail)
		}
	}
	if c := res.Counters(); c.PMITimeouts == 0 {
		t.Error("no PMI timeouts recorded on a permanent failure")
	}
}

// chaosSeed mirrors the gasnet soak's replay idiom: CHAOS_SEED pins the
// schedule, otherwise the wall clock varies it and failures print the seed.
func chaosSeed(t *testing.T) int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		return v
	}
	return time.Now().UnixNano()
}

// TestChaosControlPlaneSoak layers all three fault legs — control plane (PMI
// drop/slow/dup), fabric (UD drop/dup, link flaps) and, in
// the second leg, a PE failure — under one seed. Leg 1 asserts full fault
// transparency: byte-identical results. Leg 2 asserts the other acceptable
// outcome: a clean, bounded-time abort with launcher-style exit codes.
func TestChaosControlPlaneSoak(t *testing.T) {
	seed := chaosSeed(t)
	defer func() {
		if t.Failed() {
			t.Logf("replay with CHAOS_SEED=%d", seed)
		}
	}()

	clean, _ := runHeatCP(t, nil, nil)

	newPMIFI := func() *pmi.FaultInjector {
		fi := pmi.NewFaultInjector(seed)
		fi.SlowProb = 0.5
		fi.SlowTime = 200_000 // 0.2ms of launcher jitter
		fi.DropFirstN = 5     // deterministic retry burst
		fi.DropProb = 0.1
		fi.MaxDrops = 40 // bounded: never enough to exhaust a 10-try budget
		fi.DupProb = 0.2
		return fi
	}
	newIBFI := func() *ib.FaultInjector {
		fi := ib.NewFaultInjector(seed)
		fi.DropProb = 0.2
		fi.MaxDrops = 100
		fi.DupProb = 0.1
		fi.FlapProb = 0.05
		fi.MaxFlaps = 8
		return fi
	}

	// Leg 1: every fault transparent, results byte-identical.
	pmiFI, ibFI := newPMIFI(), newIBFI()
	faulty, faultyRes := runHeatCP(t, pmiFI, ibFI)
	if faultyRes.Aborted {
		t.Fatalf("transparent-leg run aborted: %s", faultyRes.AbortReason)
	}
	if math.Float64bits(clean.Checksum) != math.Float64bits(faulty.Checksum) ||
		math.Float64bits(clean.Residual) != math.Float64bits(faulty.Residual) ||
		clean.Iters != faulty.Iters {
		t.Errorf("results diverged under layered chaos: clean %+v faulty %+v", clean, faulty)
	}
	if pmiFI.Drops() == 0 || pmiFI.Slowdowns() == 0 {
		t.Errorf("control-plane leg idle: drops=%d slowdowns=%d", pmiFI.Drops(), pmiFI.Slowdowns())
	}
	if c := faultyRes.Counters(); c.PMIRetries == 0 {
		t.Error("no PMI retries despite injected drops")
	}

	// Leg 2: the same chaos plus a mid-job PE crash — the job must end in a
	// clean, bounded-time abort, never a hang or a wrong answer.
	cfg := Config{
		NP: 16, PPN: 8, Mode: gasnet.OnDemand, HeapSize: 1 << 20,
		PMIFaults: newPMIFI(),
		Faults:    newIBFI(),
		KillPEs:   []PEFault{{Rank: 3, At: 1 * vclock.Second}},
	}
	res := runBounded(t, cfg, computeBarrierLoop(300, 2.5e7))
	if !res.Aborted {
		t.Fatal("killed-PE leg did not report Aborted")
	}
	if got := res.PEs[3].ExitCode; got != ExitKilled {
		t.Errorf("killed PE exit code = %d, want %d", got, ExitKilled)
	}
	for _, p := range res.PEs {
		if p.ExitCode == 0 {
			t.Errorf("pe %d exited 0 from an aborted job", p.Rank)
		}
	}
}
