package cluster

import (
	"testing"
	"time"

	"goshmem/internal/apps/traffic"
	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/pmi"
	"goshmem/internal/shmem"
	"goshmem/internal/vclock"
)

// integrityFI builds the data-plane fault schedule for the integrity soaks:
// UD loss and duplication under the control plane, link flaps, silent RC
// payload corruption and torn RDMA writes on the data plane — every fault
// class the integrity trailer, dedup ledger and replay-on-reconnect paths
// exist to absorb. All caps are finite so the job always drains.
func integrityFI(seed int64) *ib.FaultInjector {
	fi := ib.NewFaultInjector(seed)
	fi.DropProb = 0.15
	fi.MaxDrops = 150
	fi.DupProb = 0.1
	fi.FlapProb = 0.03
	fi.MaxFlaps = 6
	fi.RCCorruptProb = 0.05
	fi.MaxRCCorrupts = 40
	fi.TornWriteProb = 0.05
	fi.MaxTornWrites = 12
	return fi
}

// runIntegrity executes the zipf traffic workload with the live-RC cap armed
// (so eviction churn interleaves with unacknowledged transfers) and, when fi
// is set, the integrity fault schedule on the fabric.
func runIntegrity(t *testing.T, fi *ib.FaultInjector) ([churnNP]uint64, *Result) {
	t.Helper()
	var digests [churnNP]uint64
	cfg := Config{
		NP: churnNP, PPN: churnPPN, Mode: gasnet.OnDemand,
		HeapSize:     churnHeap,
		MaxLiveRC:    churnLiveRC,
		Deadline:     60 * vclock.Second,
		StallTimeout: 30 * time.Second,
		Faults:       fi,
		Obs:          obs.Config{Incidents: true},
	}
	res, err := Run(cfg, func(c *shmem.Ctx) {
		digests[c.Me()] = traffic.Run(c, churnParams()).Digest
	})
	if err != nil {
		t.Fatal(err)
	}
	return digests, res
}

// TestIntegrityChaosSoak is the tentpole acceptance test: a seeded run with
// silent RC corruption, torn RDMA writes, link flaps, UD loss and forced
// evictions must produce per-rank digests byte-identical to the fault-free
// run — the faults cost retransmissions and reconnects, never correctness —
// while the integrity counters prove each recovery path actually fired.
func TestIntegrityChaosSoak(t *testing.T) {
	clean, cleanRes := runIntegrity(t, nil)

	const seed = 171717
	fi1 := integrityFI(seed)
	first, firstRes := runIntegrity(t, fi1)
	second, _ := runIntegrity(t, integrityFI(seed))

	for r := range clean {
		if first[r] != second[r] {
			t.Errorf("rank %d digest unstable across identical chaos runs: %x vs %x", r, first[r], second[r])
		}
		if first[r] != clean[r] {
			t.Errorf("rank %d digest diverged from the fault-free run: %x vs %x", r, first[r], clean[r])
		}
	}
	if firstRes.Aborted {
		t.Fatalf("integrity chaos soak aborted: %s", firstRes.AbortReason)
	}

	// Every injected fault class must have actually fired...
	if fi1.Injected().RCCorrupts == 0 || fi1.Injected().TornWrites == 0 || fi1.Injected().Flaps == 0 {
		t.Fatalf("fault schedule idle: corrupts=%d tears=%d flaps=%d",
			fi1.Injected().RCCorrupts, fi1.Injected().TornWrites, fi1.Injected().Flaps)
	}
	// ...and every recovery path must have answered: corrupt frames caught by
	// the trailer, torn writes detected and replayed, retransmissions of
	// unacknowledged transfers, and duplicate non-idempotent ops suppressed.
	c := firstRes.Counters()
	if c.RCCorruptFrames == 0 && c.TornWrites == 0 {
		t.Errorf("no data-plane faults observed by the conduit: %+v", c)
	}
	if c.TornWrites == 0 {
		t.Errorf("injected %d tears but the conduit recorded none", fi1.Injected().TornWrites)
	}
	if c.IntegrityRetransmits == 0 {
		t.Errorf("no integrity retransmissions despite %d injected data faults",
			fi1.Injected().RCCorrupts+fi1.Injected().TornWrites)
	}
	if c.DupOpsSuppressed == 0 {
		t.Errorf("no duplicate ops suppressed despite lost ACKs and replays: %+v", c)
	}
	if firstRes.Counters().Evictions == 0 {
		t.Errorf("no evictions under live-RC cap %d; churn leg idle", churnLiveRC)
	}

	// Fault-free guard: the integrity machinery must be inert without an
	// injector — zero cost on the happy path.
	cc := cleanRes.Counters()
	if cc.RCCorruptFrames != 0 || cc.TornWrites != 0 ||
		cc.DupOpsSuppressed != 0 || cc.IntegrityRetransmits != 0 {
		t.Errorf("fault-free run shows integrity activity: %+v", cc)
	}
}

// TestChaosCombinedSoak is the everything-at-once long-run soak: zipf traffic
// under half-demand resource budgets, the full data-plane fault schedule
// (corruption, tears, flaps, loss) and recoverable control-plane chaos, all
// from one seed. Leg A asserts full transparency — bounded virtual time and
// per-rank digests byte-identical to the clean run. Leg B adds a mid-job PE
// kill and asserts the other acceptable outcome: a clean bounded-time abort
// with launcher-style exit codes, where no surviving rank that completed
// reports a wrong answer.
func TestChaosCombinedSoak(t *testing.T) {
	seed := chaosSeed(t)
	defer func() {
		if t.Failed() {
			t.Logf("replay with CHAOS_SEED=%d", seed)
		}
	}()

	newPMIFI := func() *pmi.FaultInjector {
		fi := pmi.NewFaultInjector(seed)
		fi.SlowProb = 0.5
		fi.SlowTime = 200_000
		fi.DropFirstN = 5
		fi.DropProb = 0.1
		fi.MaxDrops = 40 // bounded: never enough to exhaust a retry budget
		fi.DupProb = 0.2
		return fi
	}
	combined := func(kill bool) ([churnNP]uint64, *Result) {
		var digests [churnNP]uint64
		cfg := Config{
			NP: churnNP, PPN: churnPPN, Mode: gasnet.OnDemand,
			HeapSize:     churnHeap,
			QPBudget:     churnQPBudget,
			MRBudget:     churnMRBudget,
			RQDepth:      churnRQDepth,
			MaxLiveRC:    churnLiveRC,
			FailQPAllocs: []int{6, 9},
			PMIFaults:    newPMIFI(),
			Faults:       integrityFI(seed),
			Deadline:     60 * vclock.Second,
			StallTimeout: 30 * time.Second,
		}
		if kill {
			// Mid-app: launch costs ~120ms of virtual time and the clean app
			// leg runs ~100ms beyond it, so 150ms lands inside the workload.
			cfg.KillPEs = []PEFault{{Rank: 3, At: 150 * vclock.Millisecond}}
		}
		res := runBounded(t, cfg, func(c *shmem.Ctx) {
			digests[c.Me()] = traffic.Run(c, churnParams()).Digest
		})
		return digests, res
	}

	clean, _ := runIntegrity(t, nil)

	// Leg A: every fault recoverable — transparent, bounded, byte-identical.
	digA, resA := combined(false)
	if resA.Aborted {
		t.Fatalf("combined chaos leg aborted: %s", resA.AbortReason)
	}
	if resA.JobVT >= 60*vclock.Second {
		t.Fatalf("combined chaos leg ran %d vt, past the %d deadline", resA.JobVT, 60*vclock.Second)
	}
	for _, p := range resA.PEs {
		if p.ExitCode != 0 {
			t.Errorf("pe %d exited %d from a recoverable-chaos run", p.Rank, p.ExitCode)
		}
	}
	for r := range clean {
		if digA[r] != clean[r] {
			t.Errorf("rank %d digest diverged under combined chaos: %x vs clean %x", r, digA[r], clean[r])
		}
	}
	cA := resA.Counters()
	if cA.PMIRetries == 0 {
		t.Error("control-plane leg idle: no PMI retries despite injected drops")
	}
	if cA.IntegrityRetransmits == 0 {
		t.Error("data-plane leg idle: no integrity retransmissions")
	}
	if cA.CreditStalls == 0 && cA.RNRNaks == 0 && cA.AllocFailures == 0 {
		t.Errorf("resource leg idle under half-demand budgets: %+v", cA)
	}

	// Leg B: the same chaos plus a fail-stop kill — clean bounded abort,
	// typed exit codes, and no completed rank with a wrong answer.
	digB, resB := combined(true)
	if !resB.Aborted {
		t.Fatal("killed-PE leg did not report Aborted")
	}
	if got := resB.PEs[3].ExitCode; got != ExitKilled {
		t.Errorf("killed PE exit code = %d, want %d", got, ExitKilled)
	}
	for _, p := range resB.PEs {
		if p.ExitCode == 0 {
			t.Errorf("pe %d exited 0 from an aborted job", p.Rank)
		}
	}
	for r := range clean {
		if digB[r] != 0 && digB[r] != clean[r] {
			t.Errorf("rank %d completed with a wrong digest under the kill leg: %x vs clean %x",
				r, digB[r], clean[r])
		}
	}
}
