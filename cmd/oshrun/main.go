// Command oshrun launches one application kernel on the simulated cluster,
// like `oshrun -np N ./app` launches an OpenSHMEM program:
//
//	oshrun -np 64 -ppn 8 -conn ondemand -app heat2d
//
// Applications: hello, heat2d, ep, mg, bt, sp, graph500.
// It reports the start_pes breakdown, total job time (virtual), and the
// resource usage counters the paper studies. The fault plane is exposed for
// resilience experiments: -drop/-dup/-flap/-slow/-rc-corrupt/-torn-writes
// inject fabric faults, -kill-pe/-wedge-pe schedule PE failures,
// -rails/-fail-port/-fail-rail/-partition exercise the multi-rail fault plane
// (automatic path migration, rail failover, partition suspend/heal),
// -pmi-slow/-pmi-drop/-pmi-crash degrade the out-of-band control plane, and
// -deadline arms the hung-job watchdog. See the README's fault-flag table.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is oshrun: parse the flags into a cluster.Config and a kernel, run the
// job, write what was asked for. It returns the process exit status — 2 for a
// usage error, 1 for a launcher or I/O failure or a completed job whose ledger
// does not reconcile, else the job's (exitCode).
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	kernel, err := o.job()
	if err != nil {
		fmt.Fprintf(stderr, "oshrun: %v\n", err)
		return 2
	}
	cpu, err := o.startProfile()
	if err == nil {
		var res *cluster.Result
		res, err = cluster.Run(o.cfg, func(c *shmem.Ctx) {
			// In -json mode the report must be the only stdout output.
			if line := kernel(c); c.Me() == 0 && !o.json {
				fmt.Fprintln(stdout, line)
			}
		})
		pprof.StopCPUProfile() // no-op unless startProfile started one
		// A job whose audit failed still reports what it did.
		if res != nil {
			err = errors.Join(err, o.write(res, cpu, stdout))
		}
		if err == nil {
			return exitCode(res)
		}
	}
	fmt.Fprintln(stderr, "oshrun:", err)
	return 1
}

// options is oshrun's flag set. A flag that is a cluster.Config field as it
// stands is parsed straight into cfg; job derives the rest of cfg from the
// others.
type options struct {
	cfg                                 cluster.Config
	trace, memstatsEvery                int
	faultSeed                           int64
	conn, app, class, allocFail         string
	traceOut, timeseriesOut, profileOut string
	killPE, wedgePE                     string
	failPort, failRail, partition       string
	json, metrics, metricsAll           bool
	footprint, incidents, topology      bool
	drop, dup, flap, slow, slowTime     float64
	rcCorrupt, tornWrites               float64
	deadline, pmiSlow, pmiDrop          float64
	pmiCrash, pmiRecover                float64
}

// parseFlags reads the command line. A malformed flag has already been
// reported on stderr (with the usage) when it returns an error.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("oshrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.cfg.NP, "np", 16, "number of PEs")
	fs.IntVar(&o.cfg.PPN, "ppn", 8, "PEs per simulated node")
	fs.StringVar(&o.conn, "conn", "ondemand", "connection mode: static | ondemand")
	fs.StringVar(&o.app, "app", "hello", "application: hello | heat2d | ep | mg | bt | sp | graph500 | traffic")
	fs.StringVar(&o.class, "class", "S", "NAS class: S | A | B")
	fs.BoolVar(&o.cfg.BlockingPMI, "blocking-pmi", false, "use blocking Put-Fence-Get instead of PMIX_Iallgather")
	fs.IntVar(&o.trace, "trace", 0, "print the first N connection-lifecycle events (virtual-time ordered)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the full multi-layer event trace to FILE in Chrome trace-event (Perfetto) JSON")
	fs.BoolVar(&o.json, "json", false, "emit the full job report (counters, histograms, startup phases) as JSON instead of text")
	fs.BoolVar(&o.metrics, "metrics", false, "collect latency histograms and generic counters and print them in the text report")
	fs.BoolVar(&o.metricsAll, "metrics-all", false, "like -metrics but print the full registry, including all-zero counters and empty histograms")
	fs.StringVar(&o.timeseriesOut, "timeseries-out", "", "write the virtual-time gauge series (live QPs, pinned bytes, retained frames, credits, RQ occupancy, suspects) to FILE as CSV, or JSON when FILE ends in .json")
	fs.BoolVar(&o.footprint, "footprint", false, "take engine footprint censuses (per-subsystem memory/goroutine attribution reconciled against the measured heap) at startup boundaries and job end; prints the census table and adds the footprint section to -json")
	fs.StringVar(&o.profileOut, "profile-out", "", "write Go pprof profiles of the simulator itself (cpu.pprof, heap.pprof, allocs.pprof) into DIR")
	fs.IntVar(&o.memstatsEvery, "memstats-every", 0, "sample the runtime (heap bytes, goroutines) into the engine.* gauge series every N milliseconds of real time — long-soak memory telemetry; implies -footprint")
	fs.BoolVar(&o.incidents, "incidents", false, "record the causal incident ledger and print the per-fault-kind detection/MTTR summary plus the injector reconciliation")
	fs.BoolVar(&o.topology, "topology", false, "record the per-pair flow matrix and print the traffic heatmap, peer-degree table and QP waste attribution")
	fs.IntVar(&o.cfg.MaxLiveRC, "qp-cap", 0, "cap live RC queue pairs per HCA; idle connections are LRU-evicted (0 = unbounded; on-demand mode only)")
	fs.IntVar(&o.cfg.QPBudget, "qp-budget", 0, "hard per-HCA queue-pair budget (UD+RC) the adapter enforces; exhaustion triggers eviction+retry, admission rejection, and exit 125 when progress is impossible (0 = unbounded)")
	fs.Int64Var(&o.cfg.MRBudget, "mr-budget", 0, "hard per-HCA pinned-memory budget in bytes; refused heap registrations degrade to bounce-buffering (0 = unbounded)")
	fs.IntVar(&o.cfg.RQDepth, "rq-depth", 0, "per-RC-QP receive-queue depth; full queues NAK senders, who back off on credit windows (0 = unbounded)")
	fs.StringVar(&o.allocFail, "alloc-fail", "", "inject allocation faults: kind:n[,kind:n...] with kind qp|mr; each adapter's n-th (1-based) allocation of that kind fails")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "fault-injector RNG seed (deterministic per seed)")
	fs.Float64Var(&o.drop, "drop", 0, "probability a UD datagram is dropped")
	fs.Float64Var(&o.dup, "dup", 0, "probability a UD datagram is duplicated")
	fs.Float64Var(&o.flap, "flap", 0, "probability an RC operation suffers a link fault")
	fs.Float64Var(&o.slow, "slow", 0, "probability an operation charges extra virtual time (PE slowdown)")
	fs.Float64Var(&o.slowTime, "slow-time", 100, "slowdown charge in virtual microseconds (fabric and PMI)")
	fs.Float64Var(&o.rcCorrupt, "rc-corrupt", 0, "probability an RC transmission is corrupted in flight (the receiving adapter's ICRC drops it and the requester retransmits; 7 in a row fail the request and the connection recovers by reconnect and replay)")
	fs.Float64Var(&o.tornWrites, "torn-writes", 0, "probability a link fault tears an RDMA write mid-transfer, leaving a partial payload at the target until the clean replay overwrites it")
	fs.StringVar(&o.killPE, "kill-pe", "", "crash PEs at virtual times: rank@seconds[,rank@seconds...]")
	fs.StringVar(&o.wedgePE, "wedge-pe", "", "wedge PEs (stop progress, keep fabric ACKs) at virtual times: rank@seconds[,...]")
	fs.IntVar(&o.cfg.Rails, "rails", 1, "independent network rails (ports per HCA, each its own fault domain); >1 arms RC automatic path migration")
	fs.StringVar(&o.failPort, "fail-port", "", "fail HCA ports at virtual times: lid:rail@seconds[,...]; the port goes dark permanently")
	fs.StringVar(&o.failRail, "fail-rail", "", "fail whole rails (switch planes) at virtual times: rail@seconds[,...]")
	fs.StringVar(&o.partition, "partition", "", "sever rank sets on every rail: ranks:ranks@start[-heal][;...] in virtual seconds; omitted heal = permanent (exit 126)")
	fs.Float64Var(&o.deadline, "deadline", 0, "virtual-time job deadline in seconds; the watchdog aborts the job past it (0 = none)")
	fs.Float64Var(&o.pmiSlow, "pmi-slow", 0, "probability a PMI op is served with inflated latency (slow launcher)")
	fs.Float64Var(&o.pmiDrop, "pmi-drop", 0, "probability a PMI op (or its reply) is dropped; the client retries with backoff")
	fs.Float64Var(&o.pmiCrash, "pmi-crash", -1, "crash the PMI server at this virtual time in seconds, losing un-fenced KVS entries (<0 = never)")
	fs.Float64Var(&o.pmiRecover, "pmi-recover", 0.25, "seconds after -pmi-crash before the server recovers (<0 = never recovers)")
	return o, fs.Parse(args)
}

// checkProb validates a probability flag is in [0,1].
func checkProb(flagName string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("-%s wants a probability in [0,1], got %v", flagName, v)
	}
	return nil
}

// checkNonNegative validates a budget flag (zero means unbounded, matching the
// ib.Limits zero-value convention) or a duration flag.
func checkNonNegative[T int64 | float64](flagName, what string, v T) error {
	if v < 0 {
		return fmt.Errorf("-%s wants a non-negative %s, got %v", flagName, what, v)
	}
	return nil
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// kernel is what one PE runs; the string is the line rank 0 reports.
type kernel func(c *shmem.Ctx) string

// kernels is the -app table for one NAS class.
func kernels(cls nas.Class) map[string]kernel {
	nasLine := func(name string, checksum float64) string {
		return fmt.Sprintf("%s class %c: checksum %.6f", name, cls, checksum)
	}
	return map[string]kernel{
		"hello": func(c *shmem.Ctx) string { return fmt.Sprintf("Hello World from %d PEs", c.NPEs()) },
		"heat2d": func(c *shmem.Ctx) string {
			r := heat2d.Run(c, heat2d.Params{NX: 64, NY: 8 * c.NPEs(), MaxIters: 50, CheckEvery: 10, Tol: 1e-4})
			return fmt.Sprintf("heat2d: %d iters, residual %.3g, checksum %.6f", r.Iters, r.Residual, r.Checksum)
		},
		"ep": func(c *shmem.Ctx) string { return nasLine("EP", nas.EP(c, nas.EPParamsFor(cls)).Checksum) },
		"mg": func(c *shmem.Ctx) string {
			r := nas.MG(c, nas.MGParamsFor(cls))
			return nasLine("MG", r.Checksum) + fmt.Sprintf(", residual %.3g", r.Residual)
		},
		"bt": func(c *shmem.Ctx) string { return nasLine("BT", nas.BT(c, cls).Checksum) },
		"sp": func(c *shmem.Ctx) string { return nasLine("SP", nas.SP(c, cls).Checksum) },
		"graph500": func(c *shmem.Ctx) string {
			r := graph500.Run(c, mpi.New(c.Conduit()), graph500.DefaultParams())
			return fmt.Sprintf("graph500: reached %d, traversed %d, valid=%v", r.ReachedSum, r.TraversedSum, r.ValidationOK)
		},
		// The resource-churn driver: skewed put/get/fetch-add streams with a
		// rotating hot set, the workload the churn soak runs under tight
		// budgets. Fixed parameters keep the digest reproducible; rank 0
		// prints its own digest so nightly runs diff clean unless the data
		// plane drifts.
		"traffic": func(c *shmem.Ctx) string {
			r := traffic.Run(c, traffic.Params{
				SlotsPerPE: 6, Ops: 300, Epochs: 3,
				Pattern: "zipf", ZipfS: 1.3,
				GetFrac: 0.2, AddFrac: 0.3, QuietEvery: 32,
				BulkEvery: 25, Seed: 77,
			})
			return fmt.Sprintf("traffic: digest %016x, %d puts %d gets %d adds, %d distinct peers",
				r.Digest, r.Puts, r.Gets, r.Adds, r.DistinctPeers)
		},
	}
}

// job turns the flags into the job they describe: it completes o.cfg and
// returns the kernel. Its errors are usage errors.
func (o *options) job() (kernel, error) {
	cfg := &o.cfg
	if cfg.NP <= 0 {
		return nil, fmt.Errorf("-np wants a positive PE count, got %d", cfg.NP)
	}
	if cfg.PPN <= 0 {
		return nil, fmt.Errorf("-ppn wants a positive per-node PE count, got %d", cfg.PPN)
	}
	const budget = "budget (0 = unbounded)"
	err := firstErr(
		checkProb("drop", o.drop), checkProb("dup", o.dup), checkProb("flap", o.flap), checkProb("slow", o.slow),
		checkProb("rc-corrupt", o.rcCorrupt), checkProb("torn-writes", o.tornWrites),
		checkProb("pmi-slow", o.pmiSlow), checkProb("pmi-drop", o.pmiDrop),
		checkNonNegative("slow-time", "duration", o.slowTime), checkNonNegative("deadline", "duration", o.deadline),
		checkNonNegative("qp-budget", budget, int64(cfg.QPBudget)), checkNonNegative("mr-budget", budget, cfg.MRBudget),
		checkNonNegative("rq-depth", budget, int64(cfg.RQDepth)), checkNonNegative("qp-cap", budget, int64(cfg.MaxLiveRC)),
		checkNonNegative("trace", "event count", int64(o.trace)),
		checkNonNegative("memstats-every", "period (0 = off)", int64(o.memstatsEvery)))
	if err != nil {
		return nil, err
	}
	if cfg.FailQPAllocs, cfg.FailMRAllocs, err = ib.ParseAllocFaults(o.allocFail); err != nil {
		return nil, fmt.Errorf("-alloc-fail: %w", err)
	}
	if cfg.Mode, err = gasnet.ParseMode(o.conn); err != nil {
		return nil, err
	}
	if o.class != "S" && o.class != "A" && o.class != "B" {
		return nil, fmt.Errorf("-class wants S, A or B, got %q", o.class)
	}
	k := kernels(nas.Class(o.class[0]))[o.app]
	if k == nil {
		return nil, fmt.Errorf("unknown -app %q", o.app)
	}
	var railsErr error
	if cfg.Rails < 1 {
		railsErr = fmt.Errorf("-rails wants at least one rail, got %d", cfg.Rails)
	}
	nodes := (cfg.NP + cfg.PPN - 1) / cfg.PPN
	err = firstErr(
		parsePEFaults("kill-pe", o.killPE, cfg.NP, &cfg.KillPEs),
		parsePEFaults("wedge-pe", o.wedgePE, cfg.NP, &cfg.WedgePEs),
		railsErr,
		parsePortFaults(o.failPort, cfg.Rails, nodes, &cfg.FailPorts),
		parseRailFaults(o.failRail, cfg.Rails, &cfg.FailRails),
		parsePartitions(o.partition, cfg.NP, &cfg.Partitions))
	if err != nil {
		return nil, err
	}
	o.injectors()
	// Any configured fault source makes the incident ledger worth carrying in
	// the JSON report; the text path keeps it opt-in via -incidents.
	anyFaults := cfg.Faults != nil || cfg.PMIFaults != nil ||
		len(cfg.KillPEs)+len(cfg.WedgePEs)+len(cfg.FailQPAllocs)+len(cfg.FailMRAllocs) > 0 ||
		len(cfg.FailPorts)+len(cfg.FailRails)+len(cfg.Partitions) > 0
	wantMetrics := o.json || o.metrics || o.metricsAll
	wantFootprint := o.footprint || o.memstatsEvery > 0
	cfg.HeapSize = 8 << 20
	cfg.Deadline = vt(o.deadline)
	cfg.MemstatsEvery = time.Duration(o.memstatsEvery) * time.Millisecond
	cfg.Obs = obs.Config{
		Events:  o.trace > 0 || o.traceOut != "",
		Metrics: wantMetrics,
		Flows:   o.topology || o.json,
		Gauges:  wantMetrics || o.timeseriesOut != "" || wantFootprint,
		// Footprint stays strictly opt-in (never implied by -json or
		// -metrics): census snapshots read wall-clock runtime state, so the
		// footprint section and engine.* gauges are not
		// run-to-run-deterministic and must not leak into report or
		// time-series diffs that are.
		Footprint: wantFootprint,
		Incidents: o.incidents || (o.json && anyFaults),
	}
	if o.traceOut != "" {
		cfg.Obs.RingCap = -1 // the exported trace is complete: no ring drops an event
	}
	return k, nil
}

// The four fault-schedule flags share one grammar: a list of items, each
// "what@when" with times in virtual seconds. They differ only in how they
// read the two halves.

// item is one "what@when" entry of a schedule flag being read. The first
// thing found wrong with it is its error; the readers below carry on with
// zero values, so a parser reads the parts in order and scanSchedule looks at
// the error once.
type item struct {
	flag, form string // the flag's name and its grammar, for diagnostics
	text       string // the whole item as typed
	what, when string // the halves either side of '@'
	err        error
}

func (it *item) fail(format string, args ...any) {
	if it.err == nil {
		it.err = fmt.Errorf("-"+it.flag+" "+format, args...)
	}
}

func (it *item) malformed() { it.fail("wants %s, got %q", it.form, it.text) }

// num reads s as an integer in [lo,hi).
func (it *item) num(name, s string, lo, hi int) int {
	v, err := strconv.Atoi(s)
	if err != nil {
		it.malformed()
	} else if v < lo || v >= hi {
		it.fail("%s %d out of range [%d,%d) in %q", name, v, lo, hi, it.text)
	}
	return v
}

// at reads s as a non-negative time and returns it in virtual nanoseconds.
func (it *item) at(s string) int64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		it.malformed()
	} else if v < 0 {
		it.fail("wants a non-negative time, got %q", it.text)
	}
	return vt(v)
}

func vt(seconds float64) int64 { return int64(seconds * float64(vclock.Second)) }

// scanSchedule splits a schedule flag's value at sep and each item at its '@',
// and hands the items to read one by one. It returns the first bad item's
// error rather than exiting, so a malformed spec produces one clear diagnostic.
func scanSchedule(flagName, form, sep, s string, read func(it *item)) error {
	if s == "" {
		return nil
	}
	for _, text := range strings.Split(s, sep) {
		it := &item{flag: flagName, form: form, text: strings.TrimSpace(text)}
		var ok bool
		if it.what, it.when, ok = strings.Cut(it.text, "@"); ok {
			read(it)
		} else {
			it.malformed()
		}
		if it.err != nil {
			return it.err
		}
	}
	return nil
}

// parsePEFaults reads -kill-pe / -wedge-pe, "rank@seconds[,...]", into out.
func parsePEFaults(flagName, s string, np int, out *[]cluster.PEFault) error {
	return scanSchedule(flagName, "rank@seconds", ",", s, func(it *item) {
		*out = append(*out, cluster.PEFault{Rank: it.num("rank", it.what, 0, np), At: it.at(it.when)})
	})
}

// parseRailFaults reads -fail-rail, "rail@seconds[,...]", into out.
func parseRailFaults(s string, rails int, out *[]cluster.RailFault) error {
	return scanSchedule("fail-rail", "rail@seconds", ",", s, func(it *item) {
		*out = append(*out, cluster.RailFault{Rail: it.num("rail", it.what, 0, rails), At: it.at(it.when)})
	})
}

// parsePortFaults reads -fail-port, "lid:rail@seconds[,...]", into out. The
// LID must name a real node: AddHCA numbers them from 1.
func parsePortFaults(s string, rails, nodes int, out *[]cluster.PortFault) error {
	return scanSchedule("fail-port", "lid:rail@seconds", ",", s, func(it *item) {
		lidStr, railStr, ok := strings.Cut(it.what, ":")
		lid, err := strconv.Atoi(lidStr)
		if !ok || err != nil {
			it.malformed()
		} else if lid < 1 || lid > nodes {
			it.fail("lid %d out of range [1,%d] in %q (LIDs number the nodes from 1)", lid, nodes, it.text)
		}
		*out = append(*out, cluster.PortFault{LID: uint16(lid), Rail: it.num("rail", railStr, 0, rails), At: it.at(it.when)})
	})
}

// parsePartitions reads -partition, "ranks:ranks@start[-heal][;...]" with
// comma-separated rank lists, into out. An omitted heal means the partition
// never heals (the job exits with the partition code at the detector's first
// verdict on it).
func parsePartitions(s string, np int, out *[]cluster.PartitionFault) error {
	return scanSchedule("partition", "ranks:ranks@start[-heal]", ";", s, func(it *item) {
		ranks := func(list string) (rs []int) {
			for _, r := range strings.Split(list, ",") {
				rs = append(rs, it.num("rank", strings.TrimSpace(r), 0, np))
			}
			return rs
		}
		aStr, bStr, ok := strings.Cut(it.what, ":")
		if !ok {
			it.malformed()
		}
		p := cluster.PartitionFault{A: ranks(aStr), B: ranks(bStr), Heal: -1}
		startStr, healStr, hasHeal := strings.Cut(it.when, "-")
		start, err := strconv.ParseFloat(startStr, 64)
		if err != nil || start < 0 {
			it.fail("wants a non-negative start time, got %q", it.text)
		}
		p.At = vt(start)
		if hasHeal {
			heal, err := strconv.ParseFloat(healStr, 64)
			if err != nil || heal < start {
				it.fail("heal must not precede start in %q", it.text)
			}
			p.Heal = vt(heal)
		}
		*out = append(*out, p)
	})
}

// injectors builds the probabilistic fault injectors — fabric and PMI — the
// flags ask for, both seeded from -fault-seed.
func (o *options) injectors() {
	slowTime := int64(o.slowTime * float64(vclock.Microsecond))
	if o.drop > 0 || o.dup > 0 || o.flap > 0 || o.slow > 0 || o.rcCorrupt > 0 || o.tornWrites > 0 {
		fi := ib.NewFaultInjector(o.faultSeed)
		fi.DropProb, fi.DupProb, fi.FlapProb = o.drop, o.dup, o.flap
		fi.SlowProb, fi.SlowTime = o.slow, slowTime
		fi.RCCorruptProb, fi.TornWriteProb = o.rcCorrupt, o.tornWrites
		o.cfg.Faults = fi
	}
	if o.pmiSlow > 0 || o.pmiDrop > 0 || o.pmiCrash >= 0 {
		pf := pmi.NewFaultInjector(o.faultSeed)
		pf.SlowProb, pf.SlowTime, pf.DropProb = o.pmiSlow, slowTime, o.pmiDrop
		if o.pmiCrash >= 0 {
			recoverAfter := int64(-1)
			if o.pmiRecover >= 0 {
				recoverAfter = vt(o.pmiRecover)
			}
			pf.CrashServer(vt(o.pmiCrash), recoverAfter)
		}
		o.cfg.PMIFaults = pf
	}
}

// startProfile begins -profile-out: Go pprof profiles of the simulator itself
// (not the simulation) — CPU over the whole run, into the buffer it returns,
// heap and allocations at job end (write). The census answers "which subsystem
// owns the bytes"; these answer "which call stacks allocated them".
func (o *options) startProfile() (*bytes.Buffer, error) {
	if o.profileOut == "" {
		return nil, nil
	}
	if err := os.MkdirAll(o.profileOut, 0o755); err != nil {
		return nil, err
	}
	cpu := new(bytes.Buffer)
	if err := pprof.StartCPUProfile(cpu); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return cpu, nil
}

// write emits what the flags asked of a finished job: the profile, trace and
// time-series artifacts, then the report on stdout, JSON or text.
func (o *options) write(res *cluster.Result, cpu *bytes.Buffer, stdout io.Writer) error {
	if o.profileOut != "" {
		profile := func(name string, write func(w io.Writer) error) error {
			return writeFile(filepath.Join(o.profileOut, name+".pprof"), name+".pprof", write)
		}
		err := profile("cpu", func(w io.Writer) error { _, err := cpu.WriteTo(w); return err })
		runtime.GC() // heap.pprof should show retained bytes, not float
		for _, name := range []string{"heap", "allocs"} {
			if err == nil {
				err = profile(name, func(w io.Writer) error { return pprof.Lookup(name).WriteTo(w, 0) })
			}
		}
		if err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		if err := writeFile(o.traceOut, "trace", res.Obs.WritePerfetto); err != nil {
			return err
		}
	}
	if o.timeseriesOut != "" {
		series := res.Obs.Gauges().Series(obs.DefaultGaugeTick)
		format := obs.WriteGaugeCSV
		if strings.HasSuffix(o.timeseriesOut, ".json") {
			format = obs.WriteGaugeJSON
		}
		if err := writeFile(o.timeseriesOut, "timeseries", func(w io.Writer) error { return format(w, series) }); err != nil {
			return err
		}
	}
	if o.json {
		return cluster.BuildReport(res).WriteJSON(stdout)
	}
	writeText(stdout, o, res)
	return nil
}

// The report.

// printPhaseTable prints the per-phase startup breakdown aggregated across
// PEs (average and worst single PE), followed by which endpoint-exchange
// path the job actually ran — the line that records a control-plane
// degradation (Iallgather lost, Put-Fence-Get fallback taken).
func printPhaseTable(w io.Writer, res *cluster.Result) {
	if res.Obs == nil {
		return
	}
	sums, maxes := res.PhaseTotals()
	np := int64(len(res.PEs))
	fmt.Fprintf(w, "\n--- start_pes phase breakdown ---\n")
	fmt.Fprintf(w, "%-14s %12s %12s\n", "phase", "avg", "max")
	for i, n := range shmem.PhaseNames {
		fmt.Fprintf(w, "%-14s %11.6fs %11.6fs\n", n, vclock.Seconds(sums[i]/np), vclock.Seconds(maxes[i]))
	}
	fmt.Fprintf(w, "pmi exchange path: %s\n", res.ExchangePath())
}

// printMetricTables prints the generic counter and histogram registries.
// All-zero counters and empty histograms are suppressed unless all is set
// (-metrics-all), which prints the complete registry so a run's full metric
// surface — including the zeros — is visible and diffable.
func printMetricTables(w io.Writer, res *cluster.Result, all bool) {
	reg := res.Obs.Registry()
	if reg == nil {
		return
	}
	cs, hs, note := reg.Counters(), reg.Hists(), "full registry"
	if !all {
		cs = slices.DeleteFunc(cs, func(c obs.CounterSnapshot) bool { return c.Value == 0 })
		hs = slices.DeleteFunc(hs, func(h obs.HistSnapshot) bool { return h.Count == 0 })
		note = "zero rows suppressed"
	}
	if len(cs) > 0 {
		fmt.Fprintf(w, "\n--- counters (job totals; %s) ---\n", note)
		for _, c := range cs {
			fmt.Fprintf(w, "%-28s %14d\n", c.Name, c.Value)
		}
	}
	if len(hs) > 0 {
		us := func(ns int64) float64 { return float64(ns) / 1e3 }
		fmt.Fprintf(w, "\n--- latency histograms (virtual µs) ---\n")
		fmt.Fprintf(w, "%-28s %10s %10s %10s %10s %10s\n", "histogram", "count", "p50", "p95", "p99", "max")
		for _, h := range hs {
			fmt.Fprintf(w, "%-28s %10d %10.1f %10.1f %10.1f %10.1f\n",
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
func printGaugeTable(w io.Writer, res *cluster.Result) {
	stats := res.Obs.Gauges().Stats()
	if len(stats) == 0 {
		return
	}
	fmt.Fprintf(w, "\n--- gauges (level over virtual time) ---\n")
	fmt.Fprintf(w, "%-28s %8s %14s %14s %14s\n", "gauge", "inst", "min", "max", "final")
	for _, g := range stats {
		fmt.Fprintf(w, "%-28s %8s %14d %14d %14d\n", g.Name, instLabel(g.Inst), g.Min, g.Max, g.Final)
	}
}

// isConnLifecycle selects the conduit's connection-lifecycle and failure
// plane events out of the full gasnet-layer stream (which also carries
// ud-send/ud-recv datagrams, connect spans and heartbeat traffic). These are
// the events -trace prints.
func isConnLifecycle(e obs.Event) bool {
	if e.Layer != obs.LayerGasnet || e.Dur != 0 {
		return false
	}
	if strings.HasPrefix(e.Kind, "conn-") {
		return true
	}
	switch e.Kind {
	case "pe-fail", "suspect", "suspect-clear", "confirm-dead", "abort",
		"path-migrate", "rail-failover",
		"partition-suspend", "partition-heal", "partition-fatal":
		return true
	}
	return false
}

// printResilience prints the one unified failure/resilience table, two rows
// abreast in the order the counters are declared; all-zero rows (and an
// all-zero table) suppressed.
func printResilience(w io.Writer, res *cluster.Result) {
	var cells []string
	obs.EachCounter(res.Counters(), func(d obs.CounterDef, v int64) {
		if d.Table == "resilience" && v != 0 {
			cells = append(cells, fmt.Sprintf("%-18s %8d    ", d.Label, v))
		}
	})
	for i, cell := range cells {
		if i == 0 {
			fmt.Fprintf(w, "\n--- resilience counters (all PEs) ---\n")
		}
		fmt.Fprint(w, cell)
		if i%2 == 1 || i == len(cells)-1 {
			fmt.Fprintln(w)
		}
	}
}

// writeText prints the job report: the start_pes breakdown, virtual job time
// and endpoint counts, then whichever sections the flags asked for, then —
// for an aborted job — why, the watchdog's dump and the per-PE exit codes.
func writeText(w io.Writer, o *options, res *cluster.Result) {
	if o.trace > 0 {
		var trace []obs.Event
		for _, e := range res.Obs.Events() {
			if isConnLifecycle(e) {
				trace = append(trace, e)
			}
		}
		shown := trace[:min(o.trace, len(trace))]
		fmt.Fprintf(w, "\n--- connection trace (first %d of %d events) ---\n", len(shown), len(trace))
		for _, e := range shown {
			fmt.Fprintf(w, "%12.6fs  pe %4d  %-20s peer %d\n", vclock.Seconds(e.VT), e.Rank, e.Kind, e.Peer)
		}
	}
	b := res.PEs[0].Phases.Fig1()
	fmt.Fprintf(w, "\n--- job report (%s, %d PEs, %d ppn) ---\n", res.Cfg.Mode, res.Cfg.NP, res.Cfg.PPN)
	fmt.Fprintf(w, "start_pes avg:      %8.3fs  (conn %.3fs, pmi %.3fs, memreg %.3fs, shmem %.3fs, other %.3fs)\n",
		vclock.Seconds(res.InitAvg), vclock.Seconds(b[0]), vclock.Seconds(b[1]),
		vclock.Seconds(b[2]), vclock.Seconds(b[3]), vclock.Seconds(b[4]))
	fmt.Fprintf(w, "job time (virtual): %8.3fs\n", vclock.Seconds(res.JobVT))
	fmt.Fprintf(w, "avg RC endpoints/PE: %7.1f   avg peers/PE: %.1f   (simulated in %v real)\n",
		res.AvgEndpoints(), res.AvgPeers(), res.Wall.Round(1e6))
	printResilience(w, res)
	printPhaseTable(w, res)
	printMetricTables(w, res, o.metricsAll)
	printGaugeTable(w, res)
	if res.Footprint != nil {
		fmt.Fprintln(w)
		res.Footprint.WriteText(w)
	}
	if o.incidents {
		fmt.Fprintf(w, "\n--- incident ledger ---\n")
		res.Incidents.WriteText(w)
	}
	if o.topology {
		fmt.Fprintf(w, "\n--- communication topology ---\n")
		cluster.WriteTopologyText(w, res)
	}
	if res.Aborted {
		fmt.Fprintf(w, "\n--- job aborted ---\n%s\n", res.AbortReason)
		if res.Dump != "" {
			fmt.Fprintf(w, "\n--- watchdog state dump ---\n%s", res.Dump)
		}
		fmt.Fprintf(w, "per-PE exit codes:\n")
		for _, p := range res.PEs {
			fmt.Fprintf(w, "  pe %4d: exit %d\n", p.Rank, p.ExitCode)
		}
	}
}

// exitCode is the launcher's own status for a job that ran and passed its
// audit: the worst per-PE status when it aborted, else 0.
func exitCode(res *cluster.Result) int {
	if !res.Aborted {
		return 0
	}
	code := 1
	for _, p := range res.PEs {
		code = max(code, p.ExitCode)
	}
	return code
}

// writeFile creates path, fills it through write and closes it: the one way
// an artifact (profile, trace, time series) reaches disk. what names the
// artifact in the error of a failed write.
func writeFile(path, what string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", what, err)
	}
	return nil
}
