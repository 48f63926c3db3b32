package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"goshmem/internal/apps/traffic"
	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
	"goshmem/internal/vclock"
)

// railCfg is the common scaffold for the multi-rail soaks: the churn traffic
// dimensions on a two-rail fabric, the watchdog as a bounded-termination
// backstop, and the incident ledger armed so every run can be reconciled.
func railCfg() Config {
	return Config{
		NP: churnNP, PPN: churnPPN, Mode: gasnet.OnDemand,
		HeapSize:     churnHeap,
		Rails:        2,
		Deadline:     60 * vclock.Second,
		StallTimeout: 30 * time.Second,
		Obs:          obs.Config{Metrics: true, Gauges: true, Incidents: true},
	}
}

// runRail executes the zipf traffic workload under cfg and returns the
// per-rank digests.
func runRail(t *testing.T, cfg Config) ([churnNP]uint64, *Result) {
	t.Helper()
	var digests [churnNP]uint64
	// A partitioned run rides many retransmission and probe timeouts, each a
	// quiescence of the whole job; under the race detector one run can take
	// tens of seconds, so the bound is generous — it guards against hanging,
	// not against slow.
	res := runBoundedFor(t, cfg, 120*time.Second, func(c *shmem.Ctx) {
		digests[c.Me()] = traffic.Run(c, churnParams()).Digest
	})
	return digests, res
}

// TestRailFailoverTransparent kills a whole rail mid-workload on a two-rail
// fabric and asserts full transparency: the job completes with per-rank
// digests byte-identical to the clean two-rail run, the recovery was APM or
// rail failover (never a peer-death abort), and the ledger reconciles the
// injected rail fault to exactly one resolved incident.
func TestRailFailoverTransparent(t *testing.T) {
	clean, cleanRes := runRail(t, railCfg())
	if cleanRes.Aborted {
		t.Fatalf("clean two-rail run aborted: %s", cleanRes.AbortReason)
	}
	cc := cleanRes.Counters()
	if cc.PathMigrations != 0 || cc.RailFailovers != 0 || cc.PartitionSuspensions != 0 {
		t.Fatalf("fault-free two-rail run shows rail fault-plane activity: %+v", cc)
	}

	// Launch fan-out runs to ~157ms of virtual time and the RC traffic
	// phase spans roughly 158-170ms, so 160ms lands mid-workload with
	// connections established over both rails — the window where APM (not
	// handshake-time rail selection) is the recovery that fires.
	cfg := railCfg()
	cfg.FailRails = []RailFault{{Rail: 0, At: 160 * vclock.Millisecond}}
	dig, res := runRail(t, cfg)
	if res.Aborted {
		t.Fatalf("rail-failure run aborted: %s", res.AbortReason)
	}
	for r := range clean {
		if dig[r] != clean[r] {
			t.Errorf("rank %d digest diverged after rail failure: %x vs clean %x", r, dig[r], clean[r])
		}
	}
	c := res.Counters()
	if c.PathMigrations+c.RailFailovers == 0 {
		t.Errorf("rail died mid-job but no path migrated and no connection failed over: %+v", c)
	}
	if c.PEFailures != 0 {
		t.Errorf("rail failure misdiagnosed as %d peer deaths", c.PEFailures)
	}

	// The schedule-driven topology gauges must record the rail going dark.
	final := map[int]int64{}
	for _, g := range res.Obs.Gauges().Stats() {
		if g.Name == "net.rail_up" {
			final[obs.InstRailIndex(g.Inst)] = g.Final
		}
	}
	if final[0] != 0 || final[1] != 1 {
		t.Errorf("net.rail_up finals = %v, want rail0=0 rail1=1", final)
	}
}

// TestPartitionHealTransparent severs node 0 from the rest of the fabric on
// every rail for a 150ms window mid-workload. Both sides stay alive; the
// detector must suspend the unreachable peers (never confirm them dead), and
// after the heal the retained-frame replay must deliver every op exactly
// once: digests byte-identical to the clean run, zero false peer deaths,
// every incident reconciled.
func TestPartitionHealTransparent(t *testing.T) {
	clean, _ := runRail(t, railCfg())

	cfg := railCfg()
	cfg.Partitions = []PartitionFault{{
		A: []int{0, 1, 2, 3}, B: []int{4, 5, 6, 7, 8, 9, 10, 11},
		At: 160 * vclock.Millisecond, Heal: 300 * vclock.Millisecond,
	}}
	dig, res := runRail(t, cfg)
	if res.Aborted {
		t.Fatalf("healed-partition run aborted: %s", res.AbortReason)
	}
	for _, p := range res.PEs {
		if p.ExitCode != 0 {
			t.Errorf("pe %d exited %d from a healed-partition run", p.Rank, p.ExitCode)
		}
	}
	for r := range clean {
		if dig[r] != clean[r] {
			t.Errorf("rank %d digest diverged across the partition window: %x vs clean %x", r, dig[r], clean[r])
		}
	}
	c := res.Counters()
	if c.PEFailures != 0 {
		t.Errorf("partition misdiagnosed as %d peer deaths (want suspend-and-retry)", c.PEFailures)
	}
	if c.PartitionSuspensions == 0 {
		t.Error("no peer was suspended during a 150ms full partition")
	}
	if c.PartitionHeals == 0 {
		t.Error("no suspended peer was observed to heal")
	}
	for _, k := range res.Incidents.Kinds {
		if k.Class == "net" && k.Kind == "partition" && k.MTTRMaxNS <= 0 {
			t.Errorf("partition incident closed with non-positive MTTR: %+v", k)
		}
	}
}

// TestIncidentStragglerSweep covers the ledger's straggler path: a scheduled
// network fault that no traffic ever trips is still reconciled — the
// schedule-time Open has no Detect/Act during the run, so the job-complete
// sweep must close it, stamping detection at job end and a nonzero MTTR.
func TestIncidentStragglerSweep(t *testing.T) {
	cfg := railCfg()
	cfg.FailRails = []RailFault{{Rail: 1, At: 1 * vclock.Millisecond}}
	// No traffic at all: every connection the launcher itself needs rides
	// rail selection (which simply avoids the dead rail), and nothing can
	// detect the fault in-band.
	res := runBounded(t, cfg, func(c *shmem.Ctx) {})
	if res.Aborted {
		t.Fatalf("idle run with one dead rail aborted: %s", res.AbortReason)
	}
	// Run's audit has matched the one injection to one resolved incident.
	for _, k := range res.Incidents.Kinds {
		if k.Class == "net" && k.Kind == "rail-down" && (k.Closed != 1 || k.MTTRMaxNS <= 0 || k.DetectMaxNS <= 0) {
			t.Errorf("straggler rail-down: want closed with positive MTTR and detection latency (Detect is stamped at job end): %+v", k)
		}
	}
	if c := res.Counters(); c.PathMigrations+c.RailFailovers != 0 {
		t.Errorf("idle run recorded data-plane recovery (%+v) — the fault should have been a pure straggler", c)
	}
}

// TestPermanentPartitionExitCode severs the fabric permanently. The job must
// neither hang into the watchdog (124) nor misreport a peer death (exit 1):
// the detector's first verdict on the severed pair exits the job with the
// partition code, in virtual time well under the watchdog deadline.
func TestPermanentPartitionExitCode(t *testing.T) {
	cfg := railCfg()
	cfg.Partitions = []PartitionFault{{
		A: []int{0, 1, 2, 3}, B: []int{4, 5, 6, 7, 8, 9, 10, 11},
		At: 160 * vclock.Millisecond, Heal: -1,
	}}
	_, res := runRail(t, cfg)
	if !res.Aborted {
		t.Fatal("permanently partitioned job did not abort")
	}
	sawPartitionExit := false
	for _, p := range res.PEs {
		if p.ExitCode == ExitPartitioned {
			sawPartitionExit = true
		}
		if p.ExitCode == ExitWatchdog {
			t.Errorf("pe %d hit the watchdog; the partition verdict should fire first", p.Rank)
		}
	}
	if !sawPartitionExit {
		codes := make([]int, len(res.PEs))
		for i, p := range res.PEs {
			codes[i] = p.ExitCode
		}
		t.Fatalf("no PE exited with ExitPartitioned (%d); exit codes = %v", ExitPartitioned, codes)
	}
	if res.JobVT >= 60*vclock.Second {
		t.Errorf("permanent partition ran to the watchdog deadline: JobVT=%d", res.JobVT)
	}
	c := res.Counters()
	if c.PartitionSuspensions == 0 {
		t.Error("no suspension recorded before the partition abort")
	}
	if c.PEFailures != 0 {
		t.Errorf("permanent partition misdiagnosed as %d peer deaths", c.PEFailures)
	}
}

// TestRecoveryCountersIndependentOfGOMAXPROCS: with every timeout and every
// detector tick an event on the job's virtual-time queue, how often the job
// retransmits and probes is a property of the fault schedule, not of the
// host. A ring workload loses its first twelve datagrams (the injector's cap
// makes that exact) and then rides out a healing partition; ten runs on one
// processor and ten on eight must count the same recovery work and end at the
// same virtual time.
func TestRecoveryCountersIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	seen := map[string]int{}
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 10; i++ {
			fi := ib.NewFaultInjector(7)
			fi.DropProb, fi.MaxDrops = 1, 12
			res := runBounded(t, Config{
				NP: 9, PPN: 3, Mode: gasnet.OnDemand, HeapSize: 1 << 16, Rails: 2, Faults: fi,
				Partitions: []PartitionFault{{
					A: []int{0, 1, 2}, B: []int{3, 4, 5, 6, 7, 8},
					At: 158 * vclock.Millisecond, Heal: 300 * vclock.Millisecond,
				}},
			}, ringApp(3, 512))
			if res.Aborted {
				t.Fatalf("GOMAXPROCS=%d run %d aborted: %s", procs, i, res.AbortReason)
			}
			c := res.Counters()
			if c.Retransmits == 0 || c.HeartbeatsSent == 0 || c.PartitionHeals == 0 {
				t.Fatalf("schedule exercised nothing: %+v", c)
			}
			seen[fmt.Sprintf("heartbeats=%d retransmits=%d integrity-retransmits=%d suspensions=%d heals=%d job-vt=%d",
				c.HeartbeatsSent, c.Retransmits, c.IntegrityRetransmits, c.PartitionSuspensions, c.PartitionHeals, res.JobVT)]++
		}
	}
	if len(seen) != 1 {
		t.Errorf("recovery work depends on the host: %v", seen)
	}
}

// TestRailIncidentDetectedAfterInjection runs the rail-smoke faulted shape
// (oshrun -np 8 -ppn 4 -rails 2 -app traffic -fail-rail 0@0.16 -incidents)
// sixteen times: no incident may be detected before it was injected. A path
// migration used to stamp its detection with the manager clock, which can
// lag the rail's scheduled death, so about one run in eight showed a negative
// detection latency on net/rail-down.
func TestRailIncidentDetectedAfterInjection(t *testing.T) {
	cfg := Config{
		NP: 8, PPN: 4, Mode: gasnet.OnDemand, HeapSize: 8 << 20,
		Rails:     2,
		FailRails: []RailFault{{Rail: 0, At: 160 * vclock.Millisecond}},
		Obs:       obs.Config{Incidents: true},
	}
	for run := 0; run < 16; run++ {
		res := runBounded(t, cfg, func(c *shmem.Ctx) {
			traffic.Run(c, traffic.Params{
				SlotsPerPE: 6, Ops: 300, Epochs: 3,
				Pattern: "zipf", ZipfS: 1.3,
				GetFrac: 0.2, AddFrac: 0.3, QuietEvery: 32,
				BulkEvery: 25, Seed: 77,
			})
		})
		if res.Aborted {
			t.Fatalf("run %d aborted: %s", run, res.AbortReason)
		}
		for _, in := range res.Obs.Ledger().Snapshot() {
			if in.DetectVT < in.InjectVT {
				t.Errorf("run %d: %s/%s detected at %d, before its injection at %d",
					run, in.Class, in.Kind, in.DetectVT, in.InjectVT)
			}
		}
	}
}
