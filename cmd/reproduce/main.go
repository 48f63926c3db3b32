// Command reproduce regenerates the paper's tables and figures as text
// tables. Without flags it runs every experiment at laptop-friendly scales;
// -full uses the paper's scales where memory permits (static sweeps stop at
// 4,096 PEs; see EXPERIMENTS.md). -exp runs one experiment; `reproduce -h`
// lists them.
//
// -exp bench records the simulator's performance trajectory instead: a
// small, fixed suite of startup, latency, phase and footprint measurements
// written as one JSON document, BENCH_<date>.json. With -check it compares
// every virtual number against the latest committed BENCH_*.json and exits 1
// when one differs; `make bench` writes the file, and CI runs the check.
//
// Usage:
//
//	reproduce [-exp NAME] [-full]
//	reproduce -exp bench [-check] [-o FILE] [-footprint-max-np N] [-footprint-csv FILE]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"goshmem/internal/apps/nas"
	"goshmem/internal/bench"
	"goshmem/internal/gasnet"
)

// scale is the job sizes every experiment runs at. Static (fully connected)
// jobs stop at maxStatic in every sweep. init is the Fig 1 / 5(b) / phases
// sweep, startup Fig 5(a)'s, msg Fig 6's message sizes, coll Fig 7(a,b)'s
// per-PE bytes at collNP, barrier Fig 7(c)'s job sizes, res Fig 9's sweep
// with its projection to projN, and peersNP Table I's job size.
type scale struct {
	ppn, maxStatic, collNP, nasNP, projN, peersNP           int
	init, startup, msg, coll, barrier, g500, res, footprint []int
	nasClass                                                nas.Class
}

// laptop is the default scale.
var laptop = scale{
	ppn: 16, maxStatic: 1024,
	init: []int{128, 256, 512, 1024}, startup: []int{128, 256, 512, 1024},
	msg: []int{1, 16, 256, 4096, 65536, 1 << 20}, coll: []int{1, 16, 256, 1024}, collNP: 128,
	barrier: []int{16, 64, 256}, nasNP: 64, nasClass: nas.ClassA, g500: []int{16, 64},
	res: []int{16, 64, 256}, projN: 1024, peersNP: 64, footprint: []int{64, 256, 1024},
}

// paper is the -full scale; it needs several GiB of RAM.
var paper = scale{
	ppn: 16, maxStatic: 4096,
	init: []int{128, 256, 512, 1024, 2048, 4096}, startup: []int{128, 256, 512, 1024, 2048, 4096, 8192},
	msg: laptop.msg, coll: laptop.coll, collNP: 512,
	barrier: []int{64, 128, 256, 512, 1024}, nasNP: 256, nasClass: nas.ClassB, g500: []int{128, 256, 512},
	res: []int{64, 256, 1024}, projN: 4096, peersNP: 256, footprint: []int{64, 256, 1024, 4096},
}

// run is one invocation at one scale. A sweep that several experiments
// show runs at most once, when the first of them asks for it.
type run struct {
	scale
	staticPhases, onDemandPhases func() []bench.PhasePoint
	startupPts                   func() []bench.StartupPoint
	nasPts                       func() []bench.NASPoint
	resources                    func() (map[string][]bench.PeerPoint, map[string]float64)
}

func newRun(s scale) *run {
	return &run{
		scale: s,
		staticPhases: sync.OnceValue(func() []bench.PhasePoint {
			return must(bench.StartupPhases(gasnet.Static, bench.CapSizes(s.init, s.maxStatic), s.ppn))
		}),
		onDemandPhases: sync.OnceValue(func() []bench.PhasePoint {
			return must(bench.StartupPhases(gasnet.OnDemand, s.init, s.ppn))
		}),
		startupPts: sync.OnceValue(func() []bench.StartupPoint { return must(bench.Startup(s.startup, s.ppn, s.maxStatic)) }),
		nasPts:     sync.OnceValue(func() []bench.NASPoint { return must(bench.NASExecution(s.nasNP, 8, s.nasClass)) }),
		resources: sync.OnceValues(func() (map[string][]bench.PeerPoint, map[string]float64) {
			series, proj, err := bench.ResourceUsage(s.res, 8, s.projN)
			die(err)
			return series, proj
		}),
	}
}

// experiment is one -exp name and the tables it prints.
type experiment struct {
	name string
	run  func(*run) tables
}

// experiments is every experiment -exp can name, in the order -exp all
// prints them.
var experiments = []experiment{
	{"fig1", func(r *run) tables {
		return tables{bench.BreakdownTable("Figure 1: start_pes breakdown, current (static) design, 16 ppn", r.staticPhases())}
	}},
	{"fig5b", func(r *run) tables {
		return tables{bench.BreakdownTable("Figure 5(b): start_pes breakdown, proposed (on-demand + PMIX_Iallgather) design", r.onDemandPhases())}
	}},
	{"fig5a", func(r *run) tables { return tables{bench.StartupTable(r.startupPts())} }},
	{"fig6", func(r *run) tables {
		return tables{bench.PutGetTable(must(bench.PutGetLatency(r.msg, 200))), bench.AtomicTable(must(bench.AtomicLatency(500)))}
	}},
	{"fig7", func(r *run) tables {
		return tables{bench.CollectiveTable(r.collNP, must(bench.CollectiveLatency(r.collNP, r.coll, 5, 8))),
			bench.BarrierTable(must(bench.BarrierLatency(r.barrier, 20, 8)))}
	}},
	{"fig8a", func(r *run) tables { return tables{bench.NASTable(r.nasNP, r.nasClass, r.nasPts())} }},
	{"fig8b", func(r *run) tables { return tables{bench.Graph500Table(must(bench.Graph500Execution(r.g500, 8)))} }},
	{"table1", func(r *run) tables {
		return tables{bench.PeersTableRender(r.peersNP, must(bench.PeersAt(r.peersNP, 8)))}
	}},
	{"fig9", func(r *run) tables {
		series, proj := r.resources()
		return tables{bench.ResourceTable(series, proj, r.res, r.projN)}
	}},
	{"fig2", func(r *run) tables {
		series, _ := r.resources()
		return tables{bench.SummaryTable(r.startupPts(), r.nasPts(), series)}
	}},
	// The Fig 1 / Fig 5(b) breakdowns before the fold: every startup phase.
	{"phases", func(r *run) tables {
		return tables{bench.PhaseTable("Startup phases (obs plane), current (static) design", r.staticPhases()),
			bench.PhaseTable("Startup phases (obs plane), proposed (on-demand) design", r.onDemandPhases())}
	}},
	{"ablation", func(r *run) tables { return tables{bench.AblationTable(must(bench.Ablations(64, 8)))} }},
	// Not a paper figure: the resource plane's backpressure tax, burst
	// put-with-signal latency as the receive-queue depth shrinks.
	{"credits", func(r *run) tables {
		return tables{bench.CreditTable(must(bench.CreditStallLatency([]int{0, 16, 4, 1}, 32, 20)))}
	}},
	// Fig 5(a)'s memory story measured from inside the engine: the footprint
	// census at the init-done boundary, per-PE bytes and goroutines versus
	// job size in both modes, reconciled against runtime.ReadMemStats.
	{"footprint", func(r *run) tables {
		st := must(bench.FootprintSweep(gasnet.Static, bench.CapSizes(r.footprint, r.maxStatic), r.ppn))
		return tables{bench.FootprintTable(st, must(bench.FootprintSweep(gasnet.OnDemand, r.footprint, r.ppn)))}
	}},
}

// tables is what an experiment prints.
type tables = []*bench.Table

// selected returns the experiments -exp names, matched in any case: all of
// them for "all", none for an unknown name.
func selected(exp string) []experiment {
	return slices.DeleteFunc(slices.Clone(experiments), func(e experiment) bool {
		return !strings.EqualFold(exp, "all") && !strings.EqualFold(exp, e.name)
	})
}

// names lists the experiments in table order.
func names() string {
	var ns []string
	for _, e := range experiments {
		ns = append(ns, e.name)
	}
	return strings.Join(ns, ", ")
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, "+names()+"), or bench for the perf trajectory")
	full := flag.Bool("full", false, "use paper-scale job sizes (slower; needs several GiB of RAM)")
	out := flag.String("o", "", "-exp bench: output file (default BENCH_<yyyy-mm-dd>.json)")
	check := flag.Bool("check", false, "-exp bench: compare against the most recent committed BENCH_*.json and exit nonzero when any virtual-time number differs from it (wall time and footprint warn only)")
	fpMaxNP := flag.Int("footprint-max-np", 4096, "-exp bench: cap the footprint sweep at this np (CI runners cap lower)")
	fpCSV := flag.String("footprint-csv", "", "-exp bench: also write the footprint sweep as CSV to FILE (the nightly artifact)")
	flag.Parse()

	if strings.EqualFold(*exp, "bench") {
		trajectory(*out, *check, *fpMaxNP, *fpCSV)
		return
	}
	todo := selected(*exp)
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "reproduce: unknown experiment %q; valid: all, bench, %s\n", *exp, names())
		os.Exit(2)
	}
	s := laptop
	if *full {
		s = paper
	}
	r := newRun(s)
	for _, e := range todo {
		for _, t := range e.run(r) {
			t.Fprint(os.Stdout)
		}
	}
}

// trajectory runs the perf-trajectory suite, writes it to out (default
// BENCH_<today>.json) and prints its deltas against the latest committed
// BENCH_*.json. It exits 1 when -check finds a changed virtual number and 2
// when -check would overwrite its own baseline.
func trajectory(out string, check bool, fpMaxNP int, fpCSV string) {
	base, basePath, err := bench.LoadBaseline(".")
	die(err)
	path, err := bench.OutputPath(".", out, time.Now().UTC().Format("2006-01-02"), basePath, check)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(2)
	}
	// A capped sweep must be loud about what it dropped: a silently-truncated
	// sweep reads as "covered the full range" in the committed trajectory.
	fpSizes := bench.CapSizes(bench.FootprintSizes, fpMaxNP)
	if dropped := bench.FootprintSizes[len(fpSizes):]; len(dropped) > 0 {
		fmt.Fprintf(os.Stderr, "reproduce: footprint sweep capped at np=%d; dropping sizes %v\n", fpMaxNP, dropped)
	}
	d, err := bench.Trajectory(fpSizes)
	die(err)
	if fpCSV != "" {
		f, err := os.Create(fpCSV)
		die(err)
		die(errors.Join(bench.WriteFootprintCSV(f, d.Footprint), f.Close()))
	}
	b, err := json.MarshalIndent(d, "", "  ")
	die(err)
	die(os.WriteFile(path, append(b, '\n'), 0o644))
	fmt.Printf("wrote %s (suite wall time %.1fs)\n", path, float64(d.WallNS)/1e9)
	if base == nil {
		// Loud, so a lane whose baseline went missing cannot pass silently;
		// exit 0, so a fresh checkout can bootstrap its first baseline.
		fmt.Fprintf(os.Stderr, "reproduce: WARNING: no prior BENCH_*.json baseline; %s is the first, and nothing was compared\n", path)
		return
	}
	if bench.Compare(os.Stdout, base, d, basePath) && check {
		fmt.Fprintf(os.Stderr, "reproduce: virtual-time numbers differ from %s: a cost-model change must be declared and the baseline regenerated\n", basePath)
		os.Exit(1)
	}
}

// must exits 1 on a failed experiment and returns its result otherwise.
func must[T any](v T, err error) T {
	die(err)
	return v
}

// die exits 1 on a failed experiment.
func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}
