package cluster

import (
	"math"
	"testing"

	"goshmem/internal/apps/heat2d"
	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
)

// runHeat launches a small two-node heat2d job and returns the rank-0
// application result plus the aggregated cluster result.
func runHeat(t *testing.T, faults *ib.FaultInjector, maxLiveRC int) (heat2d.Result, *Result) {
	t.Helper()
	const np = 16
	var rank0 heat2d.Result
	cfg := Config{
		NP: np, PPN: 8, Mode: gasnet.OnDemand,
		HeapSize:  1 << 20,
		Faults:    faults,
		MaxLiveRC: maxLiveRC,
		Obs:       obs.Config{Incidents: true},
	}
	res, err := Run(cfg, func(c *shmem.Ctx) {
		r := heat2d.Run(c, heat2d.Params{NX: 32, NY: 8 * c.NPEs(), MaxIters: 20, CheckEvery: 5, Tol: 1e-6})
		if c.Me() == 0 {
			rank0 = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return rank0, res
}

// TestChaosRunByteIdenticalResults is the end-to-end fault-transparency
// invariant (DESIGN.md section 6): an application run under link flaps, UD
// loss/duplication and a live-QP cap must produce byte-identical results to
// the fault-free run — the resilience layer may cost virtual time, never
// correctness. It also checks the new counters aggregate into cluster.Result.
func TestChaosRunByteIdenticalResults(t *testing.T) {
	clean, cleanRes := runHeat(t, nil, 0)

	fi := ib.NewFaultInjector(42)
	fi.DropProb = 0.2
	fi.MaxDrops = 100
	fi.DupProb = 0.1
	fi.FlapProb = 0.05
	fi.MaxFlaps = 8
	faulty, faultyRes := runHeat(t, fi, 20) // cap below the 2-node mesh demand

	if math.Float64bits(clean.Checksum) != math.Float64bits(faulty.Checksum) {
		t.Errorf("checksum diverged under faults: clean %v faulty %v", clean.Checksum, faulty.Checksum)
	}
	if math.Float64bits(clean.Residual) != math.Float64bits(faulty.Residual) {
		t.Errorf("residual diverged under faults: clean %v faulty %v", clean.Residual, faulty.Residual)
	}
	if clean.Iters != faulty.Iters {
		t.Errorf("iteration count diverged under faults: clean %d faulty %d", clean.Iters, faulty.Iters)
	}

	if fi.Injected().Flaps == 0 {
		t.Error("no link flaps injected; the faulted leg tested nothing")
	}
	if faultyRes.Counters().LinkFaults == 0 {
		t.Error("no link faults detected despite injected flaps")
	}
	if faultyRes.Counters().Reconnects == 0 {
		t.Error("no reconnects recorded in cluster.Result despite flaps")
	}
	if faultyRes.Counters().Evictions == 0 {
		t.Error("no evictions recorded in cluster.Result despite the QP cap")
	}

	// Fault-free guard: without an injector or cap, the resilience machinery
	// must never fire — the happy path pays nothing.
	if n := cleanRes.Counters().LinkFaults; n != 0 {
		t.Errorf("fault-free run recorded %d link faults", n)
	}
	if n := cleanRes.Counters().Reconnects; n != 0 {
		t.Errorf("fault-free run recorded %d reconnects", n)
	}
	if n := cleanRes.Counters().Evictions; n != 0 {
		t.Errorf("fault-free run recorded %d evictions", n)
	}
	if n := cleanRes.Counters().Retransmits; n != 0 {
		t.Errorf("fault-free run recorded %d retransmissions", n)
	}
	if c := cleanRes.Counters(); c.PEFailures != 0 || c.HeartbeatsSent != 0 || c.FalseSuspicions != 0 {
		t.Errorf("fault-free run shows failure-detector activity: %+v", c)
	}
	if cleanRes.Aborted {
		t.Errorf("fault-free run reported Aborted: %s", cleanRes.AbortReason)
	}
}
