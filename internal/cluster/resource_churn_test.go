package cluster

import (
	"testing"
	"time"

	"goshmem/internal/apps/traffic"
	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
	"goshmem/internal/vclock"
)

// Churn soak dimensions: 12 PEs on 3 nodes, budgets at roughly half the
// workload's peak demand. The full zipf mesh wants ~45 RC endpoints and 2 MiB
// of pinned heap per adapter; the budgets below force continuous QP eviction,
// one bounced heap per node, credit stalls and transient allocation
// failures, all at once.
const (
	churnNP       = 12
	churnPPN      = 4
	churnHeap     = 1 << 19               // 512 KiB per PE
	churnQPBudget = 24                    // 4 UD + at most 20 RC per adapter
	churnMRBudget = 1<<20 + 1<<19 + 1<<17 // 1.625 MiB: 3 of 4 heaps + slab fit
	churnRQDepth  = 4
	churnLiveRC   = 16
)

func churnParams() traffic.Params {
	// BulkEvery keeps multi-packet RDMA writes in the stream: one-sided
	// torn-write/dropped-packet faults act at link-packet granularity, so
	// without a bulk leg the word-sized traffic could never exercise the
	// partial-landing replay paths the integrity soaks assert on.
	return traffic.Params{SlotsPerPE: 6, Ops: 300, Epochs: 3, Pattern: "zipf",
		ZipfS: 1.3, GetFrac: 0.2, AddFrac: 0.3, QuietEvery: 32,
		BulkEvery: 25, Seed: 77}
}

// runChurn executes the irregular-traffic soak and returns the per-rank
// digest vector plus the cluster result. budgets arms the resource plane
// (QP/MR/receive budgets, QP-cap eviction, injected transient allocation
// failures); chaos layers fabric loss/duplication/flaps on top.
func runChurn(t *testing.T, budgets, chaos bool, seed int64) ([churnNP]uint64, *Result) {
	t.Helper()
	var digests [churnNP]uint64
	var apps [churnNP]traffic.Result
	cfg := Config{
		NP: churnNP, PPN: churnPPN, Mode: gasnet.OnDemand,
		HeapSize: churnHeap,
		// Bounded-termination backstop: the watchdog turns a deadlock or
		// livelock into a visible 124 instead of a hung test run.
		Deadline:     60 * vclock.Second,
		StallTimeout: 30 * time.Second,
		Obs:          obs.Config{Incidents: true},
	}
	if budgets {
		cfg.QPBudget = churnQPBudget
		cfg.MRBudget = churnMRBudget
		cfg.RQDepth = churnRQDepth
		cfg.MaxLiveRC = churnLiveRC
		// Transient failures past the UD range (allocations 1-4 are the UD
		// endpoints): the retry/evict ladder must absorb them.
		cfg.FailQPAllocs = []int{6, 9}
	}
	if chaos {
		fi := ib.NewFaultInjector(seed)
		fi.DropProb = 0.15
		fi.MaxDrops = 200
		fi.DupProb = 0.1
		fi.FlapProb = 0.03
		fi.MaxFlaps = 6
		cfg.Faults = fi
	}
	res, err := Run(cfg, func(c *shmem.Ctx) {
		r := traffic.Run(c, churnParams())
		digests[c.Me()] = r.Digest
		apps[c.Me()] = r
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, a := range apps {
		if a.Puts+a.Gets+a.Adds == 0 {
			t.Fatalf("rank %d issued no traffic", r)
		}
	}
	return digests, res
}

// TestResourceChurnSoak is the tentpole invariant: skewed irregular traffic
// under half-demand budgets, QP-cap churn and fabric chaos must terminate in
// bounded virtual time with data-plane results byte-identical to the
// unbudgeted fault-free run — resource pressure may cost time, never
// correctness — while the pressure counters prove the machinery was
// exercised and the hard budgets were never breached.
func TestResourceChurnSoak(t *testing.T) {
	clean, cleanRes := runChurn(t, false, false, 0)

	const seed = 424242
	first, firstRes := runChurn(t, true, true, seed)
	second, _ := runChurn(t, true, true, seed)

	for r := range clean {
		if first[r] != second[r] {
			t.Errorf("rank %d digest unstable across identical churn runs: %x vs %x", r, first[r], second[r])
		}
		if first[r] != clean[r] {
			t.Errorf("rank %d digest diverged from the fault-free run: %x vs %x", r, first[r], clean[r])
		}
	}
	if firstRes.Aborted {
		t.Fatalf("churn soak aborted: %s", firstRes.AbortReason)
	}

	// The pressure must be real: stalls or NAKs from the finite receive
	// queues, transient allocation failures absorbed by retry, one bounced
	// heap per node, and eviction churn from the live-QP cap.
	c := firstRes.Counters()
	if c.CreditStalls == 0 && c.RNRNaks == 0 {
		t.Errorf("no backpressure recorded under depth-%d receive queues: %+v", churnRQDepth, c)
	}
	if c.AllocFailures == 0 {
		t.Errorf("no allocation failures despite injected schedule: %+v", c)
	}
	if c.BounceFallbacks != churnNP/churnPPN {
		t.Errorf("bounce fallbacks = %d, want exactly one per node (%d): %+v",
			c.BounceFallbacks, churnNP/churnPPN, c)
	}
	if firstRes.Counters().Evictions == 0 {
		t.Errorf("no evictions under live-RC cap %d", churnLiveRC)
	}

	// Hard budgets were never breached (bounded memory / endpoint count).
	for i, h := range firstRes.HCA {
		if h.LiveRC > churnQPBudget-churnPPN {
			t.Errorf("hca %d live RC %d exceeds budget headroom %d", i, h.LiveRC, churnQPBudget-churnPPN)
		}
		if h.BytesPinned > churnMRBudget {
			t.Errorf("hca %d pinned %d bytes past the %d budget", i, h.BytesPinned, churnMRBudget)
		}
	}

	// Fault-free guard: with no budgets armed, the resource plane must be
	// inert on top of the existing resilience-free happy path.
	cc := cleanRes.Counters()
	if cc.CreditStalls != 0 || cc.RNRNaks != 0 || cc.AllocFailures != 0 ||
		cc.BounceFallbacks != 0 || cc.AdmissionRejects != 0 {
		t.Errorf("unbudgeted run shows resource-pressure activity: %+v", cc)
	}
	if cleanRes.Aborted {
		t.Errorf("fault-free soak aborted: %s", cleanRes.AbortReason)
	}
}

// TestResourceBudgetTooSmallExits125: a queue-pair budget that cannot fit a
// single RC endpoint leaves no forward-progress path. The job must terminate
// promptly with ExitResourceExhausted — not hang until the watchdog's 124.
func TestResourceBudgetTooSmallExits125(t *testing.T) {
	const np, ppn = 4, 2
	cfg := Config{
		NP: np, PPN: ppn, Mode: gasnet.OnDemand, HeapSize: 1 << 18,
		QPBudget:     ppn, // the UD endpoints consume the whole budget
		Deadline:     60 * vclock.Second,
		StallTimeout: 30 * time.Second,
	}
	p := traffic.Params{SlotsPerPE: 4, Ops: 50, Pattern: "uniform", Seed: 5}
	res, err := Run(cfg, func(c *shmem.Ctx) {
		traffic.Run(c, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("job with an unsatisfiable QP budget did not abort")
	}
	got125 := false
	for _, pe := range res.PEs {
		if pe.ExitCode == ExitWatchdog {
			t.Errorf("pe %d hit the watchdog (%d): exhaustion did not terminate the job itself", pe.Rank, pe.ExitCode)
		}
		if pe.ExitCode == ExitResourceExhausted {
			got125 = true
		}
	}
	if !got125 {
		codes := make([]int, len(res.PEs))
		for i, pe := range res.PEs {
			codes[i] = pe.ExitCode
		}
		t.Fatalf("no PE exited with %d (resource exhaustion); exit codes: %v",
			ExitResourceExhausted, codes)
	}
}
