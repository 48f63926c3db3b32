// Command oshrun launches one application kernel on the simulated cluster,
// like `oshrun -np N ./app` launches an OpenSHMEM program:
//
//	oshrun -np 64 -ppn 8 -conn ondemand -app heat2d
//
// Applications: hello, heat2d, ep, mg, bt, sp, graph500.
// It reports the start_pes breakdown, total job time (virtual), and the
// resource usage counters the paper studies. The fault plane is exposed for
// resilience experiments: -drop/-dup/-flap/-slow/-corrupt/-rc-corrupt/
// -torn-writes inject fabric faults, -kill-pe/-wedge-pe schedule PE failures,
// -rails/-fail-port/-fail-rail/-partition exercise the multi-rail fault plane
// (automatic path migration, rail failover, partition suspend/heal),
// -pmi-slow/-pmi-drop/-pmi-crash degrade the out-of-band control plane, and
// -deadline arms the hung-job watchdog. See the README's fault-flag table.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"goshmem/internal/apps/graph500"
	"goshmem/internal/apps/heat2d"
	"goshmem/internal/apps/nas"
	"goshmem/internal/apps/traffic"
	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/mpi"
	"goshmem/internal/obs"
	"goshmem/internal/pmi"
	"goshmem/internal/shmem"
	"goshmem/internal/vclock"
)

// exitAbort terminates with the job's worst per-PE exit status when the run
// aborted (used by the JSON path, which must not print the text dump).
func exitAbort(res *cluster.Result) {
	if !res.Aborted {
		return
	}
	maxCode := 1
	for _, p := range res.PEs {
		if p.ExitCode > maxCode {
			maxCode = p.ExitCode
		}
	}
	os.Exit(maxCode)
}

// printPhaseTable prints the per-phase startup breakdown aggregated across
// PEs (average and worst single PE), followed by which endpoint-exchange
// path the job actually ran — the line that records a control-plane
// degradation (Iallgather lost, Put-Fence-Get fallback taken).
func printPhaseTable(res *cluster.Result) {
	phases := res.Obs.StartupPhases()
	names, sums, maxes := obs.PhaseTotals(phases)
	if len(names) == 0 {
		return
	}
	np := int64(len(phases))
	fmt.Printf("\n--- start_pes phase breakdown ---\n")
	fmt.Printf("%-14s %12s %12s\n", "phase", "avg", "max")
	for _, n := range names {
		fmt.Printf("%-14s %11.6fs %11.6fs\n", n, vclock.Seconds(sums[n]/np), vclock.Seconds(maxes[n]))
	}
	fmt.Printf("pmi exchange path: %s\n", res.ExchangePath())
}

// printMetricTables prints the generic counter and histogram registries.
// All-zero counters and empty histograms are suppressed unless all is set
// (-metrics-all), which prints the complete registry so a run's full metric
// surface — including the zeros — is visible and diffable.
func printMetricTables(res *cluster.Result, all bool) {
	reg := res.Obs.Registry()
	if reg == nil {
		return
	}
	var cs []obs.CounterSnapshot
	for _, c := range reg.Counters() {
		if all || c.Value != 0 {
			cs = append(cs, c)
		}
	}
	if len(cs) > 0 {
		note := "zero rows suppressed"
		if all {
			note = "full registry"
		}
		fmt.Printf("\n--- counters (job totals; %s) ---\n", note)
		for _, c := range cs {
			fmt.Printf("%-28s %14d\n", c.Name, c.Value)
		}
	}
	var hs []obs.HistSnapshot
	for _, h := range reg.Hists() {
		if all || h.Count > 0 {
			hs = append(hs, h)
		}
	}
	if len(hs) > 0 {
		us := func(ns int64) float64 { return float64(ns) / 1e3 }
		fmt.Printf("\n--- latency histograms (virtual µs) ---\n")
		fmt.Printf("%-28s %10s %10s %10s %10s %10s\n", "histogram", "count", "p50", "p95", "p99", "max")
		for _, h := range hs {
			fmt.Printf("%-28s %10d %10.1f %10.1f %10.1f %10.1f\n",
				h.Name, h.Count, us(h.P50), us(h.P95), us(h.P99), us(h.Max))
		}
	}
}

// instLabel renders a gauge instance key: PE rank, HCA lid, fabric rail, or
// the job.
func instLabel(inst int) string {
	switch {
	case inst == obs.InstJob:
		return "job"
	case inst <= obs.InstRail(0):
		return fmt.Sprintf("rail%d", obs.InstRailIndex(inst))
	case inst < obs.InstJob:
		return fmt.Sprintf("hca%d", obs.InstLID(inst))
	default:
		return fmt.Sprintf("pe%d", inst)
	}
}

// printGaugeTable prints each virtual-time gauge's min/max/final levels —
// the -metrics summary of the series -timeseries-out exports in full.
func printGaugeTable(res *cluster.Result) {
	stats := res.Obs.Gauges().Stats()
	if len(stats) == 0 {
		return
	}
	fmt.Printf("\n--- gauges (level over virtual time) ---\n")
	fmt.Printf("%-28s %8s %14s %14s %14s\n", "gauge", "inst", "min", "max", "final")
	for _, g := range stats {
		fmt.Printf("%-28s %8s %14d %14d %14d\n", g.Name, instLabel(g.Inst), g.Min, g.Max, g.Final)
	}
}

// parsePEFaults parses a comma-separated list of "rank@seconds" schedules
// (virtual seconds) into PE fault entries, validating that every rank is in
// [0,np) and every time is non-negative. It returns an error rather than
// exiting so malformed specs produce one clear diagnostic (and so it can be
// unit-tested).
func parsePEFaults(flagName, s string, np int) ([]cluster.PEFault, error) {
	if s == "" {
		return nil, nil
	}
	var out []cluster.PEFault
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		rankStr, atStr, ok := strings.Cut(item, "@")
		if !ok {
			return nil, fmt.Errorf("-%s wants rank@seconds, got %q", flagName, item)
		}
		rank, err1 := strconv.Atoi(rankStr)
		at, err2 := strconv.ParseFloat(atStr, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("-%s wants rank@seconds, got %q", flagName, item)
		}
		if rank < 0 || rank >= np {
			return nil, fmt.Errorf("-%s rank %d out of range [0,%d) in %q", flagName, rank, np, item)
		}
		if at < 0 {
			return nil, fmt.Errorf("-%s wants a non-negative time, got %q", flagName, item)
		}
		out = append(out, cluster.PEFault{Rank: rank, At: int64(at * float64(vclock.Second))})
	}
	return out, nil
}

// parsePortFaults parses a comma-separated list of "lid:rail@seconds" port
// failure schedules, validating the LID names a real node and the rail index
// is within the configured rail count.
func parsePortFaults(s string, rails, nodes int) ([]cluster.PortFault, error) {
	if s == "" {
		return nil, nil
	}
	var out []cluster.PortFault
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		spec, atStr, ok := strings.Cut(item, "@")
		lidStr, railStr, ok2 := strings.Cut(spec, ":")
		if !ok || !ok2 {
			return nil, fmt.Errorf("-fail-port wants lid:rail@seconds, got %q", item)
		}
		lid, err1 := strconv.Atoi(lidStr)
		rail, err2 := strconv.Atoi(railStr)
		at, err3 := strconv.ParseFloat(atStr, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("-fail-port wants lid:rail@seconds, got %q", item)
		}
		if lid < 1 || lid > nodes {
			return nil, fmt.Errorf("-fail-port lid %d out of range [1,%d] in %q (LIDs number the nodes from 1)", lid, nodes, item)
		}
		if rail < 0 || rail >= rails {
			return nil, fmt.Errorf("-fail-port rail %d out of range [0,%d) in %q", rail, rails, item)
		}
		if at < 0 {
			return nil, fmt.Errorf("-fail-port wants a non-negative time, got %q", item)
		}
		out = append(out, cluster.PortFault{LID: uint16(lid), Rail: rail, At: int64(at * float64(vclock.Second))})
	}
	return out, nil
}

// parseRailFaults parses a comma-separated list of "rail@seconds" whole-rail
// failure schedules.
func parseRailFaults(s string, rails int) ([]cluster.RailFault, error) {
	if s == "" {
		return nil, nil
	}
	var out []cluster.RailFault
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		railStr, atStr, ok := strings.Cut(item, "@")
		if !ok {
			return nil, fmt.Errorf("-fail-rail wants rail@seconds, got %q", item)
		}
		rail, err1 := strconv.Atoi(railStr)
		at, err2 := strconv.ParseFloat(atStr, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("-fail-rail wants rail@seconds, got %q", item)
		}
		if rail < 0 || rail >= rails {
			return nil, fmt.Errorf("-fail-rail rail %d out of range [0,%d) in %q", rail, rails, item)
		}
		if at < 0 {
			return nil, fmt.Errorf("-fail-rail wants a non-negative time, got %q", item)
		}
		out = append(out, cluster.RailFault{Rail: rail, At: int64(at * float64(vclock.Second))})
	}
	return out, nil
}

// parsePartitions parses a semicolon-separated list of partition windows,
// each "ranks:ranks@start[-heal]" with comma-separated rank lists and times
// in virtual seconds. An omitted heal means the partition never heals (the
// job exits with the partition code at the detector's first verdict on it).
func parsePartitions(s string, np int) ([]cluster.PartitionFault, error) {
	if s == "" {
		return nil, nil
	}
	parseRanks := func(list, item string) ([]int, error) {
		var out []int
		for _, rs := range strings.Split(list, ",") {
			r, err := strconv.Atoi(strings.TrimSpace(rs))
			if err != nil {
				return nil, fmt.Errorf("-partition wants ranks:ranks@start[-heal], got %q", item)
			}
			if r < 0 || r >= np {
				return nil, fmt.Errorf("-partition rank %d out of range [0,%d) in %q", r, np, item)
			}
			out = append(out, r)
		}
		return out, nil
	}
	var out []cluster.PartitionFault
	for _, item := range strings.Split(s, ";") {
		item = strings.TrimSpace(item)
		spec, window, ok := strings.Cut(item, "@")
		aStr, bStr, ok2 := strings.Cut(spec, ":")
		if !ok || !ok2 {
			return nil, fmt.Errorf("-partition wants ranks:ranks@start[-heal], got %q", item)
		}
		a, err := parseRanks(aStr, item)
		if err != nil {
			return nil, err
		}
		b, err := parseRanks(bStr, item)
		if err != nil {
			return nil, err
		}
		startStr, healStr, hasHeal := strings.Cut(window, "-")
		start, err := strconv.ParseFloat(startStr, 64)
		if err != nil || start < 0 {
			return nil, fmt.Errorf("-partition wants a non-negative start time, got %q", item)
		}
		heal := int64(-1)
		if hasHeal {
			h, err := strconv.ParseFloat(healStr, 64)
			if err != nil || h < start {
				return nil, fmt.Errorf("-partition heal must not precede start in %q", item)
			}
			heal = int64(h * float64(vclock.Second))
		}
		out = append(out, cluster.PartitionFault{
			A: a, B: b, At: int64(start * float64(vclock.Second)), Heal: heal,
		})
	}
	return out, nil
}

// checkProb validates a probability flag is in [0,1].
func checkProb(flagName string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("-%s wants a probability in [0,1], got %v", flagName, v)
	}
	return nil
}

// checkBudget validates a resource-budget flag is non-negative (zero means
// unbounded, matching the ib.Limits zero-value convention).
func checkBudget(flagName string, v int64) error {
	if v < 0 {
		return fmt.Errorf("-%s wants a non-negative budget (0 = unbounded), got %d", flagName, v)
	}
	return nil
}

// fatalUsage prints one clear diagnostic and exits with the flag-error code.
func fatalUsage(err error) {
	fmt.Fprintf(os.Stderr, "oshrun: %v\n", err)
	os.Exit(2)
}

func main() {
	np := flag.Int("np", 16, "number of PEs")
	ppn := flag.Int("ppn", 8, "PEs per simulated node")
	conn := flag.String("conn", "ondemand", "connection mode: static | ondemand")
	app := flag.String("app", "hello", "application: hello | heat2d | ep | mg | bt | sp | graph500 | traffic")
	class := flag.String("class", "S", "NAS class: S | A | B")
	blockingPMI := flag.Bool("blocking-pmi", false, "use blocking Put-Fence-Get instead of PMIX_Iallgather")
	trace := flag.Int("trace", 0, "print the first N connection-lifecycle events (virtual-time ordered)")
	traceOut := flag.String("trace-out", "", "write the full multi-layer event trace to FILE in Chrome trace-event (Perfetto) JSON")
	jsonOut := flag.Bool("json", false, "emit the full job report (counters, histograms, startup phases) as JSON instead of text")
	metrics := flag.Bool("metrics", false, "collect latency histograms and generic counters and print them in the text report")
	metricsAll := flag.Bool("metrics-all", false, "like -metrics but print the full registry, including all-zero counters and empty histograms")
	timeseriesOut := flag.String("timeseries-out", "", "write the virtual-time gauge series (live QPs, pinned bytes, retained frames, credits, RQ occupancy, suspects) to FILE as CSV, or JSON when FILE ends in .json")
	footprint := flag.Bool("footprint", false, "take engine footprint censuses (per-subsystem memory/goroutine attribution reconciled against the measured heap) at startup boundaries and job end; prints the census table and adds the footprint section to -json")
	profileOut := flag.String("profile-out", "", "write Go pprof profiles of the simulator itself (cpu.pprof, heap.pprof, allocs.pprof) into DIR")
	memstatsEvery := flag.Int("memstats-every", 0, "sample the runtime (heap bytes, goroutines) into the engine.* gauge series every N milliseconds of real time — long-soak memory telemetry; implies -footprint")
	incidents := flag.Bool("incidents", false,"record the causal incident ledger and print the per-fault-kind detection/MTTR summary plus the injector reconciliation; exit 1 when reconciliation fails on a completed job")
	topology := flag.Bool("topology", false, "record the per-pair flow matrix and print the traffic heatmap, peer-degree table and QP waste attribution")
	qpCap := flag.Int("qp-cap", 0, "cap live RC queue pairs per HCA; idle connections are LRU-evicted (0 = unbounded; on-demand mode only)")
	qpBudget := flag.Int("qp-budget", 0, "hard per-HCA queue-pair budget (UD+RC) the adapter enforces; exhaustion triggers eviction+retry, admission rejection, and exit 125 when progress is impossible (0 = unbounded)")
	mrBudget := flag.Int64("mr-budget", 0, "hard per-HCA pinned-memory budget in bytes; refused heap registrations degrade to bounce-buffering (0 = unbounded)")
	rqDepth := flag.Int("rq-depth", 0, "per-RC-QP receive-queue depth; full queues NAK senders, who back off on credit windows (0 = unbounded)")
	allocFail := flag.String("alloc-fail", "", "inject allocation faults: kind:n[,kind:n...] with kind qp|mr; each adapter's n-th (1-based) allocation of that kind fails")

	faultSeed := flag.Int64("fault-seed", 1, "fault-injector RNG seed (deterministic per seed)")
	drop := flag.Float64("drop", 0, "probability a UD datagram is dropped")
	dup := flag.Float64("dup", 0, "probability a UD datagram is duplicated")
	flap := flag.Float64("flap", 0, "probability an RC operation suffers a link fault")
	slow := flag.Float64("slow", 0, "probability an operation charges extra virtual time (PE slowdown)")
	slowTime := flag.Float64("slow-time", 100, "slowdown charge in virtual microseconds (fabric and PMI)")
	corrupt := flag.Float64("corrupt", 0, "probability a UD datagram has one bit flipped in flight (checksummed control frames recover via retransmission)")
	rcCorrupt := flag.Float64("rc-corrupt", 0, "probability an RC payload has one bit flipped in flight (integrity trailers detect it; sends retransmit, RDMA replays over a reconnect)")
	tornWrites := flag.Float64("torn-writes", 0, "probability a link fault tears an RDMA write mid-transfer, leaving a partial payload at the target until the clean replay overwrites it")
	killPE := flag.String("kill-pe", "", "crash PEs at virtual times: rank@seconds[,rank@seconds...]")
	wedgePE := flag.String("wedge-pe", "", "wedge PEs (stop progress, keep fabric ACKs) at virtual times: rank@seconds[,...]")
	rails := flag.Int("rails", 1, "independent network rails (ports per HCA, each its own fault domain); >1 arms RC automatic path migration")
	failPort := flag.String("fail-port", "", "fail HCA ports at virtual times: lid:rail@seconds[,...]; the port goes dark permanently")
	failRail := flag.String("fail-rail", "", "fail whole rails (switch planes) at virtual times: rail@seconds[,...]")
	partition := flag.String("partition", "", "sever rank sets on every rail: ranks:ranks@start[-heal][;...] in virtual seconds; omitted heal = permanent (exit 126)")
	deadline := flag.Float64("deadline", 0, "virtual-time job deadline in seconds; the watchdog aborts the job past it (0 = none)")
	pmiSlow := flag.Float64("pmi-slow", 0, "probability a PMI op is served with inflated latency (slow launcher)")
	pmiDrop := flag.Float64("pmi-drop", 0, "probability a PMI op (or its reply) is dropped; the client retries with backoff")
	pmiCrash := flag.Float64("pmi-crash", -1, "crash the PMI server at this virtual time in seconds, losing un-fenced KVS entries (<0 = never)")
	pmiRecover := flag.Float64("pmi-recover", 0.25, "seconds after -pmi-crash before the server recovers (<0 = never recovers)")
	flag.Parse()

	if *np <= 0 {
		fatalUsage(fmt.Errorf("-np wants a positive PE count, got %d", *np))
	}
	if *ppn <= 0 {
		fatalUsage(fmt.Errorf("-ppn wants a positive per-node PE count, got %d", *ppn))
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"drop", *drop}, {"dup", *dup}, {"flap", *flap}, {"slow", *slow},
		{"corrupt", *corrupt}, {"rc-corrupt", *rcCorrupt}, {"torn-writes", *tornWrites},
		{"pmi-slow", *pmiSlow}, {"pmi-drop", *pmiDrop},
	} {
		if err := checkProb(p.name, p.v); err != nil {
			fatalUsage(err)
		}
	}
	if *slowTime < 0 {
		fatalUsage(fmt.Errorf("-slow-time wants a non-negative duration, got %v", *slowTime))
	}
	if *deadline < 0 {
		fatalUsage(fmt.Errorf("-deadline wants a non-negative duration, got %v", *deadline))
	}
	if err := checkBudget("qp-budget", int64(*qpBudget)); err != nil {
		fatalUsage(err)
	}
	if err := checkBudget("mr-budget", *mrBudget); err != nil {
		fatalUsage(err)
	}
	if err := checkBudget("rq-depth", int64(*rqDepth)); err != nil {
		fatalUsage(err)
	}
	failQP, failMR, err := ib.ParseAllocFaults(*allocFail)
	if err != nil {
		fatalUsage(fmt.Errorf("-alloc-fail: %w", err))
	}

	mode := gasnet.OnDemand
	switch *conn {
	case "static":
		mode = gasnet.Static
	case "ondemand", "on-demand":
		mode = gasnet.OnDemand
	default:
		fmt.Fprintf(os.Stderr, "oshrun: unknown -conn %q\n", *conn)
		os.Exit(2)
	}
	cls := nas.Class((*class)[0])
	// In -json mode the report must be the only stdout output.
	quiet := *jsonOut

	var body func(c *shmem.Ctx)
	switch *app {
	case "hello":
		body = func(c *shmem.Ctx) {
			if c.Me() == 0 && !quiet {
				fmt.Printf("Hello World from %d PEs\n", c.NPEs())
			}
		}
	case "heat2d":
		body = func(c *shmem.Ctx) {
			r := heat2d.Run(c, heat2d.Params{NX: 64, NY: 8 * c.NPEs(), MaxIters: 50, CheckEvery: 10, Tol: 1e-4})
			if c.Me() == 0 && !quiet {
				fmt.Printf("heat2d: %d iters, residual %.3g, checksum %.6f\n", r.Iters, r.Residual, r.Checksum)
			}
		}
	case "ep":
		body = func(c *shmem.Ctx) {
			r := nas.EP(c, nas.EPParamsFor(cls))
			if c.Me() == 0 && !quiet {
				fmt.Printf("EP class %c: checksum %.6f\n", cls, r.Checksum)
			}
		}
	case "mg":
		body = func(c *shmem.Ctx) {
			r := nas.MG(c, nas.MGParamsFor(cls))
			if c.Me() == 0 && !quiet {
				fmt.Printf("MG class %c: checksum %.6f, residual %.3g\n", cls, r.Checksum, r.Residual)
			}
		}
	case "bt":
		body = func(c *shmem.Ctx) {
			r := nas.BT(c, cls)
			if c.Me() == 0 && !quiet {
				fmt.Printf("BT class %c: checksum %.6f\n", cls, r.Checksum)
			}
		}
	case "sp":
		body = func(c *shmem.Ctx) {
			r := nas.SP(c, cls)
			if c.Me() == 0 && !quiet {
				fmt.Printf("SP class %c: checksum %.6f\n", cls, r.Checksum)
			}
		}
	case "graph500":
		body = func(c *shmem.Ctx) {
			m := mpi.New(c.Conduit())
			r := graph500.Run(c, m, graph500.DefaultParams())
			if c.Me() == 0 && !quiet {
				fmt.Printf("graph500: reached %d, traversed %d, valid=%v\n",
					r.ReachedSum, r.TraversedSum, r.ValidationOK)
			}
		}
	case "traffic":
		// The resource-churn driver: skewed put/get/fetch-add streams with
		// a rotating hot set, the workload the churn soak runs under tight
		// budgets. Fixed parameters keep the digest reproducible; rank 0
		// prints its own digest so nightly runs diff clean unless the
		// data plane drifts.
		body = func(c *shmem.Ctx) {
			r := traffic.Run(c, traffic.Params{
				SlotsPerPE: 6, Ops: 300, Epochs: 3,
				Pattern: "zipf", ZipfS: 1.3,
				GetFrac: 0.2, AddFrac: 0.3, QuietEvery: 32,
				BulkEvery: 25, Seed: 77,
			})
			if c.Me() == 0 && !quiet {
				fmt.Printf("traffic: digest %016x, %d puts %d gets %d adds, %d distinct peers\n",
					r.Digest, r.Puts, r.Gets, r.Adds, r.DistinctPeers)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "oshrun: unknown -app %q\n", *app)
		os.Exit(2)
	}

	var faults *ib.FaultInjector
	if *drop > 0 || *dup > 0 || *flap > 0 || *slow > 0 || *corrupt > 0 ||
		*rcCorrupt > 0 || *tornWrites > 0 {
		faults = ib.NewFaultInjector(*faultSeed)
		faults.DropProb = *drop
		faults.DupProb = *dup
		faults.FlapProb = *flap
		faults.SlowProb = *slow
		faults.SlowTime = int64(*slowTime * float64(vclock.Microsecond))
		faults.CorruptProb = *corrupt
		faults.RCCorruptProb = *rcCorrupt
		faults.TornWriteProb = *tornWrites
	}
	var pmiFaults *pmi.FaultInjector
	if *pmiSlow > 0 || *pmiDrop > 0 || *pmiCrash >= 0 {
		pmiFaults = pmi.NewFaultInjector(*faultSeed)
		pmiFaults.SlowProb = *pmiSlow
		pmiFaults.SlowTime = int64(*slowTime * float64(vclock.Microsecond))
		pmiFaults.DropProb = *pmiDrop
		if *pmiCrash >= 0 {
			recoverAfter := int64(-1)
			if *pmiRecover >= 0 {
				recoverAfter = int64(*pmiRecover * float64(vclock.Second))
			}
			pmiFaults.CrashServer(int64(*pmiCrash*float64(vclock.Second)), recoverAfter)
		}
	}

	killPEs, err := parsePEFaults("kill-pe", *killPE, *np)
	if err != nil {
		fatalUsage(err)
	}
	wedgePEs, err := parsePEFaults("wedge-pe", *wedgePE, *np)
	if err != nil {
		fatalUsage(err)
	}
	if *rails < 1 {
		fatalUsage(fmt.Errorf("-rails wants at least one rail, got %d", *rails))
	}
	nodes := (*np + *ppn - 1) / *ppn
	failPorts, err := parsePortFaults(*failPort, *rails, nodes)
	if err != nil {
		fatalUsage(err)
	}
	failRails, err := parseRailFaults(*failRail, *rails)
	if err != nil {
		fatalUsage(err)
	}
	partitions, err := parsePartitions(*partition, *np)
	if err != nil {
		fatalUsage(err)
	}

	wantMetrics := *jsonOut || *metrics || *metricsAll
	wantFootprint := *footprint || *memstatsEvery > 0
	// Any configured fault source makes the incident ledger worth carrying in
	// the JSON report; the text path keeps it opt-in via -incidents.
	anyFaults := faults != nil || pmiFaults != nil ||
		len(killPEs)+len(wedgePEs) > 0 || len(failQP)+len(failMR) > 0 ||
		len(failPorts)+len(failRails)+len(partitions) > 0
	cfg := cluster.Config{
		NP: *np, PPN: *ppn, Mode: mode, BlockingPMI: *blockingPMI,
		HeapSize: 8 << 20, Trace: *trace > 0, MaxLiveRC: *qpCap,
		QPBudget: *qpBudget, MRBudget: *mrBudget, RQDepth: *rqDepth,
		FailQPAllocs: failQP,
		FailMRAllocs: failMR,
		Faults:       faults,
		PMIFaults:    pmiFaults,
		KillPEs:      killPEs,
		WedgePEs:     wedgePEs,
		Rails:        *rails,
		FailPorts:    failPorts,
		FailRails:    failRails,
		Partitions:   partitions,
		Deadline:      int64(*deadline * float64(vclock.Second)),
		MemstatsEvery: time.Duration(*memstatsEvery) * time.Millisecond,
		Obs: obs.Config{
			Events:  *trace > 0 || *traceOut != "",
			Metrics: wantMetrics,
			Flows:   *topology || *jsonOut,
			Gauges:  wantMetrics || *timeseriesOut != "" || wantFootprint,
			// Footprint stays strictly opt-in (never implied by -json or
			// -metrics): census snapshots read wall-clock runtime state, so
			// the footprint section and engine.* gauges are not
			// run-to-run-deterministic and must not leak into report or
			// time-series diffs that are.
			Footprint: wantFootprint,
			Incidents: *incidents || (*jsonOut && anyFaults),
		},
	}

	// -profile-out profiles the simulator itself (not the simulation): CPU
	// over the whole run, heap and allocation profiles at job end. The
	// census answers "which subsystem owns the bytes"; the pprof artifacts
	// answer "which call stacks allocated them".
	if *profileOut != "" {
		if err := os.MkdirAll(*profileOut, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "oshrun:", err)
			os.Exit(1)
		}
		cf, err := os.Create(filepath.Join(*profileOut, "cpu.pprof"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "oshrun:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			fmt.Fprintln(os.Stderr, "oshrun: cpu profile:", err)
			os.Exit(1)
		}
		defer cf.Close()
	}

	res, err := cluster.Run(cfg, body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oshrun:", err)
		os.Exit(1)
	}

	if *profileOut != "" {
		pprof.StopCPUProfile()
		writeProfile := func(name, profile string, gc bool) {
			f, err := os.Create(filepath.Join(*profileOut, name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "oshrun:", err)
				os.Exit(1)
			}
			if gc {
				runtime.GC() // heap.pprof should show retained bytes, not float
			}
			if err := pprof.Lookup(profile).WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "oshrun: writing", name+":", err)
				os.Exit(1)
			}
			f.Close()
		}
		writeProfile("heap.pprof", "heap", true)
		writeProfile("allocs.pprof", "allocs", false)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oshrun:", err)
			os.Exit(1)
		}
		if err := res.Obs.WritePerfetto(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "oshrun: writing trace:", err)
			os.Exit(1)
		}
		if n := res.Obs.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "oshrun: warning: %d events dropped to ring overflow; rerun with a larger ring\n", n)
		}
	}

	if *timeseriesOut != "" {
		f, err := os.Create(*timeseriesOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oshrun:", err)
			os.Exit(1)
		}
		series := res.Obs.Gauges().Series(obs.DefaultGaugeTick)
		if strings.HasSuffix(*timeseriesOut, ".json") {
			err = obs.WriteGaugeJSON(f, series)
		} else {
			err = obs.WriteGaugeCSV(f, series)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "oshrun: writing timeseries:", err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		rep := cluster.BuildReport(res)
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "oshrun:", err)
			os.Exit(1)
		}
		exitAbort(res)
		if *incidents && rep.Incidents != nil && !rep.Incidents.Reconciled {
			os.Exit(1)
		}
		return
	}

	if *trace > 0 {
		fmt.Printf("\n--- connection trace (first %d of %d events) ---\n", min(*trace, len(res.Trace)), len(res.Trace))
		for i, e := range res.Trace {
			if i >= *trace {
				break
			}
			fmt.Printf("%12.6fs  pe %4d  %-20s peer %d\n", vclock.Seconds(e.VT), e.Rank, e.Kind, e.Peer)
		}
	}

	b := res.PEs[0].Breakdown
	fmt.Printf("\n--- job report (%s, %d PEs, %d ppn) ---\n", mode, *np, *ppn)
	fmt.Printf("start_pes avg:      %8.3fs  (conn %.3fs, pmi %.3fs, memreg %.3fs, shmem %.3fs, other %.3fs)\n",
		vclock.Seconds(res.InitAvg), vclock.Seconds(b.ConnectionSetup), vclock.Seconds(b.PMIExchange),
		vclock.Seconds(b.MemoryReg), vclock.Seconds(b.SharedMemSetup), vclock.Seconds(b.Other))
	fmt.Printf("job time (virtual): %8.3fs\n", vclock.Seconds(res.JobVT))
	fmt.Printf("avg RC endpoints/PE: %7.1f   avg peers/PE: %.1f   (simulated in %v real)\n",
		res.AvgEndpoints(), res.AvgPeers(), res.Wall.Round(1e6))

	// One unified failure/resilience table, two rows abreast in the order the
	// counters are declared; all-zero rows (and an all-zero table) suppressed.
	col := 0
	obs.EachCounter(res.Counters(), func(d obs.CounterDef, v int64) {
		if d.Table != "resilience" || v == 0 {
			return
		}
		if col == 0 {
			fmt.Printf("\n--- resilience counters (all PEs) ---\n")
		}
		fmt.Printf("%-18s %8d    ", d.Label, v)
		if col++; col%2 == 0 {
			fmt.Println()
		}
	})
	if col%2 != 0 {
		fmt.Println()
	}

	if res.Obs != nil {
		printPhaseTable(res)
		printMetricTables(res, *metricsAll)
		printGaugeTable(res)
	}

	if res.Footprint != nil {
		fmt.Println()
		res.Footprint.WriteText(os.Stdout)
	}

	reconFailed := false
	if *incidents {
		fmt.Printf("\n--- incident ledger ---\n")
		ir := cluster.BuildIncidentReport(res)
		ir.WriteText(os.Stdout)
		// An aborted job is allowed to leave incidents unreconciled (the
		// abort tore recovery down mid-flight); a completed one is not.
		reconFailed = !ir.Reconciled && !res.Aborted
	}

	if *topology {
		fmt.Printf("\n--- communication topology ---\n")
		cluster.WriteTopologyText(os.Stdout, res)
	}

	if res.Aborted {
		fmt.Printf("\n--- job aborted ---\n%s\n", res.AbortReason)
		if res.Dump != "" {
			fmt.Printf("\n--- watchdog state dump ---\n%s", res.Dump)
		}
		maxCode := 1
		fmt.Printf("per-PE exit codes:\n")
		for _, p := range res.PEs {
			fmt.Printf("  pe %4d: exit %d\n", p.Rank, p.ExitCode)
			if p.ExitCode > maxCode {
				maxCode = p.ExitCode
			}
		}
		os.Exit(maxCode)
	}
	if reconFailed {
		os.Exit(1)
	}
}
