package cluster

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"goshmem/internal/apps/traffic"
	"goshmem/internal/gasnet"
	"goshmem/internal/obs"
	"goshmem/internal/pmi"
	"goshmem/internal/shmem"
	"goshmem/internal/vclock"
)

// TestGaugeSeriesByteIdenticalFaultFree asserts the gauge tentpole's
// determinism contract: a fixed-seed fault-free run produces a byte-identical
// gauge time-series across repeated runs (the delta log commutes, the export
// fold sorts by virtual time). Run's audit holds the ledger to zero
// incidents: any would be a row with nothing injected.
func TestGaugeSeriesByteIdenticalFaultFree(t *testing.T) {
	csv := func(res *Result) []byte {
		var buf bytes.Buffer
		if err := obs.WriteGaugeCSV(&buf, res.Obs.Gauges().Series(obs.DefaultGaugeTick)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Events and flows ride along so that a failure can name its cause.
	resA, resB := runTwice(t, Config{
		NP: 9, PPN: 3, Mode: gasnet.OnDemand, HeapSize: 1 << 16,
		Obs: obs.Config{Gauges: true, Incidents: true, Events: true, Flows: true},
	}, ringApp(3, 512))
	csvA, csvB := csv(resA), csv(resB)
	if !bytes.Equal(csvA, csvB) {
		t.Errorf("fault-free gauge series differ across identical runs (%d vs %d bytes)\n%s",
			len(csvA), len(csvB), firstDivergence(resA, resB))
	}
	if len(csvA) <= len("gauge,inst,vt_ns,value\n") {
		t.Error("gauge series is empty; the sampler recorded nothing")
	}
	// The live-QP gauge must show real levels: every HCA ends the run with
	// its UD QPs still live, so finals are positive.
	sawLiveQP := false
	for _, g := range resA.Obs.Gauges().Stats() {
		if g.Name == "ib.live_qps" {
			sawLiveQP = true
			if g.Max <= 0 || g.Final <= 0 {
				t.Errorf("ib.live_qps inst %d: max=%d final=%d, want positive", g.Inst, g.Max, g.Final)
			}
		}
	}
	if !sawLiveQP {
		t.Error("no ib.live_qps gauge recorded")
	}
}

// TestIncidentReconciliationChaosSoak is the incident tentpole's acceptance
// soak: the combined recoverable chaos schedule (UD loss/dup, link flaps,
// silent RC corruption, torn writes, injected allocation failures, PMI
// drop/slow/dup) under one seed must end with every budgeted injected fault
// mapped to exactly one resolved incident carrying detection-latency and MTTR
// stamps, and the MTTR attribution mirrored into the metric registry.
func TestIncidentReconciliationChaosSoak(t *testing.T) {
	seed := chaosSeed(t)
	defer func() {
		if t.Failed() {
			t.Logf("replay with CHAOS_SEED=%d", seed)
		}
	}()

	pfi := pmi.NewFaultInjector(seed)
	pfi.SlowProb = 0.5
	pfi.SlowTime = 200_000
	pfi.DropFirstN = 5
	pfi.DropProb = 0.1
	pfi.MaxDrops = 40 // bounded: never enough to exhaust a retry budget
	pfi.DupProb = 0.2

	fi := integrityFI(seed)
	var digests [churnNP]uint64
	cfg := Config{
		NP: churnNP, PPN: churnPPN, Mode: gasnet.OnDemand,
		HeapSize:     churnHeap,
		QPBudget:     churnQPBudget,
		MRBudget:     churnMRBudget,
		RQDepth:      churnRQDepth,
		MaxLiveRC:    churnLiveRC,
		FailQPAllocs: []int{6, 9},
		PMIFaults:    pfi,
		Faults:       fi,
		Deadline:     60 * vclock.Second,
		StallTimeout: 30 * time.Second,
		Obs:          obs.Config{Metrics: true, Gauges: true, Incidents: true},
	}
	res := runBounded(t, cfg, func(c *shmem.Ctx) {
		digests[c.Me()] = traffic.Run(c, churnParams()).Digest
	})
	if res.Aborted {
		t.Fatalf("recoverable chaos soak aborted: %s", res.AbortReason)
	}
	if fi.Injected().Drops == 0 || fi.Injected().Flaps == 0 || fi.Injected().RCCorrupts == 0 || fi.Injected().TornWrites == 0 {
		t.Fatalf("fault schedule idle: drops=%d flaps=%d corrupts=%d tears=%d",
			fi.Injected().Drops, fi.Injected().Flaps, fi.Injected().RCCorrupts, fi.Injected().TornWrites)
	}
	if pfi.Drops() == 0 {
		t.Fatal("control-plane fault schedule idle: no PMI drops")
	}

	// Run's audit has matched every injection to one resolved incident. They
	// must carry real recovery timings: the UD drops are repaired by later
	// deliveries, so their kind row shows positive MTTR.
	for _, k := range res.Incidents.Kinds {
		if k.Class == "ud" && k.Kind == "drop" && k.MTTRMaxNS <= 0 {
			t.Errorf("ud/drop incidents closed with no recovery time: %+v", k)
		}
	}
	// The registry mirror must expose the per-kind MTTR attribution.
	sawMTTR := false
	for _, h := range res.Obs.Registry().Hists() {
		if strings.HasPrefix(h.Name, "incident.mttr_ns.") && h.Count > 0 {
			sawMTTR = true
		}
	}
	if !sawMTTR {
		t.Error("no incident.mttr_ns.* histograms mirrored into the registry")
	}
	// The report carries both telemetry sections.
	rep := BuildReport(res)
	if len(rep.Gauges) == 0 {
		t.Error("report has no gauge summary despite the gauge plane being on")
	}
	if rep.Incidents == nil || len(rep.Incidents.Kinds) == 0 {
		t.Error("report has no incident section despite injected faults")
	}
}

// TestRunAuditsLedger: a row that does not reconcile fails a completed job
// and is named; an aborted job, a job without a ledger and a fault-free run
// with the ledger on pass.
func TestRunAuditsLedger(t *testing.T) {
	ledger := &IncidentReport{Reconcile: []ReconcileRow{
		{Class: "ud", Kind: "drop", Injected: 2, Recorded: 2, Resolved: 2, OK: true},
		{Class: "rc", Kind: "rc-corrupt", Injected: 4, Recorded: 3, Resolved: 2},
	}}
	for i, tc := range []struct {
		res  Result
		want string
	}{
		{Result{Incidents: ledger}, "rc/rc-corrupt injected 4, recorded 3, resolved 2"},
		{Result{Incidents: ledger, Aborted: true}, ""},
		{Result{}, ""},
	} {
		if err := tc.res.audit(); (err == nil) != (tc.want == "") || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: audit() = %v, want an error naming %q", i, err, tc.want)
		}
	}
	if _, err := Run(Config{NP: 4, PPN: 2, HeapSize: 1 << 16, Obs: obs.Config{Incidents: true}}, func(*shmem.Ctx) {}); err != nil {
		t.Errorf("fault-free run with the ledger on: %v", err)
	}
}

// TestIncidentLedgerAbortedRun asserts the deliberate-abort leg: a mid-job PE
// kill opens a "pe" incident at setup, the failure detector's suspicion and
// confirmation stamp its detection, and the sweep resolves it (and everything
// the abort stranded) as aborted — never unresolved.
func TestIncidentLedgerAbortedRun(t *testing.T) {
	cfg := Config{
		NP: 8, PPN: 4, Mode: gasnet.OnDemand, HeapSize: 1 << 16,
		KillPEs:      []PEFault{{Rank: 3, At: 150 * vclock.Millisecond}},
		Deadline:     60 * vclock.Second,
		StallTimeout: 30 * time.Second,
		Obs:          obs.Config{Incidents: true},
	}
	res := runBounded(t, cfg, func(c *shmem.Ctx) {
		buf := c.Malloc(256)
		src := make([]byte, 256)
		for i := 0; i < 400; i++ {
			c.PutMem(buf, src, (c.Me()+1)%c.NPEs())
			c.Quiet()
		}
		c.BarrierAll()
	})
	if !res.Aborted {
		t.Fatal("killed-PE run did not abort")
	}
	var pe *obs.Incident
	incs := res.Obs.Ledger().Snapshot()
	for i := range incs {
		if incs[i].Class == "pe" {
			pe = &incs[i]
		}
	}
	if pe == nil {
		t.Fatalf("no pe incident recorded; ledger: %+v", incs)
	}
	if pe.Kind != "kill" || pe.Rank != 3 {
		t.Errorf("pe incident = %s/%d, want kill/3", pe.Kind, pe.Rank)
	}
	if pe.State != obs.IncidentAborted {
		t.Errorf("pe incident state = %s, want aborted", pe.State)
	}
	if pe.InjectVT != 150*vclock.Millisecond {
		t.Errorf("pe incident inject VT = %d, want %d", pe.InjectVT, 150*vclock.Millisecond)
	}
	for _, in := range incs {
		if in.State == obs.IncidentOpen || in.State == obs.IncidentUnresolved {
			t.Errorf("aborted run left incident %s/%s in state %s", in.Class, in.Kind, in.State)
		}
	}
}
