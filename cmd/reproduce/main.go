// Command reproduce regenerates the paper's tables and figures as text
// tables. Without flags it runs every experiment at laptop-friendly default
// scales; -full uses the paper's scales where memory permits (the static
// fully connected sweep is capped by -maxstatic; see EXPERIMENTS.md).
//
// -exp bench records the simulator's performance trajectory instead: a
// small, fixed suite of startup, latency, phase and footprint measurements
// written as one JSON document, BENCH_<date>.json. With -check it compares
// every virtual number against the latest committed BENCH_*.json and exits 1
// when one differs; `make bench` writes the file, and CI runs the check.
//
// Usage:
//
//	reproduce [-exp all|fig1|fig2|fig5a|fig5b|fig6|fig7|fig8a|fig8b|fig9|table1|ablation|phases|credits|footprint] [-full] [-maxstatic N]
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
	"time"

	"goshmem/internal/apps/nas"
	"goshmem/internal/bench"
	"goshmem/internal/gasnet"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, fig1, fig2, fig5a, fig5b, fig6, fig7, fig8a, fig8b, fig9, table1, ablation, phases, credits, footprint), or bench for the perf trajectory")
	full := flag.Bool("full", false, "use paper-scale job sizes (slower; needs several GiB of RAM)")
	maxStatic := flag.Int("maxstatic", 0, "largest job size for static (fully connected) sweeps; 0 = preset")
	out := flag.String("o", "", "-exp bench: output file (default BENCH_<yyyy-mm-dd>.json)")
	check := flag.Bool("check", false, "-exp bench: compare against the most recent committed BENCH_*.json and exit nonzero when any virtual-time number differs from it (wall time and footprint warn only)")
	fpMaxNP := flag.Int("footprint-max-np", 4096, "-exp bench: cap the footprint sweep at this np (CI runners cap lower)")
	fpCSV := flag.String("footprint-csv", "", "-exp bench: also write the footprint sweep as CSV to FILE (the nightly artifact)")
	flag.Parse()

	if strings.EqualFold(*exp, "bench") {
		trajectory(*out, *check, *fpMaxNP, *fpCSV)
		return
	}
	emit := func(t *bench.Table) { t.Fprint(os.Stdout) }

	// Scale presets.
	ppn := 16
	initSizes := []int{128, 256, 512, 1024}             // Fig 1 / 5b sweep
	startupSizes := []int{128, 256, 512, 1024}          // Fig 5a sweep
	msgSizes := []int{1, 16, 256, 4096, 65536, 1 << 20} // Fig 6
	collSizes := []int{1, 16, 256, 1024}                // Fig 7a/b per-PE bytes
	barrierSizes := []int{16, 64, 256}                  // Fig 7c
	collNP := 128
	nasNP, nasClass := 64, nas.ClassA
	g500Sizes := []int{16, 64}
	resSizes := []int{16, 64, 256}
	projN := 1024
	capStatic := 1024
	if *full {
		initSizes = []int{128, 256, 512, 1024, 2048, 4096}
		startupSizes = []int{128, 256, 512, 1024, 2048, 4096, 8192}
		collNP = 512
		barrierSizes = []int{64, 128, 256, 512, 1024}
		nasNP, nasClass = 256, nas.ClassB
		g500Sizes = []int{128, 256, 512}
		resSizes = []int{64, 256, 1024}
		projN = 4096
		capStatic = 4096
	}
	if *maxStatic > 0 {
		capStatic = *maxStatic
	}

	// asked records every name a block asks for, so an -exp that none of
	// them knows is refused with the list of those that are known.
	var asked []string
	want := func(name string) bool {
		asked = append(asked, name)
		return *exp == "all" || strings.EqualFold(*exp, name)
	}
	var startupPts []bench.StartupPoint
	var nasPts []bench.NASPoint
	var resSeries map[string][]bench.PeerPoint

	if want("fig1") {
		pts := must(bench.StartupPhases(gasnet.Static, capSizes(initSizes, capStatic), ppn))
		emit(bench.BreakdownTable("Figure 1: start_pes breakdown, current (static) design, 16 ppn", pts))
	}
	if want("fig5b") {
		pts := must(bench.StartupPhases(gasnet.OnDemand, initSizes, ppn))
		emit(bench.BreakdownTable("Figure 5(b): start_pes breakdown, proposed (on-demand + PMIX_Iallgather) design", pts))
	}
	if want("fig5a") || want("fig2") {
		startupPts = must(bench.Startup(startupSizes, ppn, capStatic))
		if want("fig5a") {
			emit(bench.StartupTable(startupPts))
		}
	}
	if want("fig6") {
		emit(bench.PutGetTable(must(bench.PutGetLatency(msgSizes, 200))))
		emit(bench.AtomicTable(must(bench.AtomicLatency(500))))
	}
	if want("fig7") {
		emit(bench.CollectiveTable(collNP, must(bench.CollectiveLatency(collNP, collSizes, 5, 8))))
		emit(bench.BarrierTable(must(bench.BarrierLatency(barrierSizes, 20, 8))))
	}
	if want("fig8a") || want("fig2") {
		nasPts = must(bench.NASExecution(nasNP, 8, nasClass))
		if want("fig8a") {
			emit(bench.NASTable(nasNP, nasClass, nasPts))
		}
	}
	if want("fig8b") {
		emit(bench.Graph500Table(must(bench.Graph500Execution(g500Sizes, 8))))
	}
	if want("table1") {
		np := 256
		if !*full {
			np = 64
		}
		emit(bench.PeersTableRender(np, must(bench.PeersAt(np, 8))))
	}
	if want("fig9") || want("fig2") {
		var proj map[string]float64
		var err error
		resSeries, proj, err = bench.ResourceUsage(resSizes, 8, projN)
		die(err)
		if want("fig9") {
			emit(bench.ResourceTable(resSeries, proj, resSizes, projN))
		}
	}
	if want("fig2") {
		emit(bench.SummaryTable(startupPts, nasPts, resSeries))
	}
	if want("phases") {
		// The Fig 1 / Fig 5(b) breakdowns before the fold: every startup phase.
		pts := must(bench.StartupPhases(gasnet.Static, capSizes(initSizes, capStatic), ppn))
		emit(bench.PhaseTable("Startup phases (obs plane), current (static) design", pts))
		pts = must(bench.StartupPhases(gasnet.OnDemand, initSizes, ppn))
		emit(bench.PhaseTable("Startup phases (obs plane), proposed (on-demand) design", pts))
	}
	if want("ablation") {
		emit(bench.AblationTable(must(bench.Ablations(64, 8))))
	}
	if want("credits") {
		// Not a paper figure: the resource plane's backpressure tax, burst
		// put-with-signal latency as the receive-queue depth shrinks.
		emit(bench.CreditTable(must(bench.CreditStallLatency([]int{0, 16, 4, 1}, 32, 20))))
	}
	if want("footprint") {
		// Fig 5(a)'s memory story measured from inside the engine: the
		// footprint census at the init-done boundary, per-PE bytes and
		// goroutines versus job size in both modes, reconciled against
		// runtime.ReadMemStats.
		sizes := []int{64, 256, 1024}
		if *full {
			sizes = []int{64, 256, 1024, 4096}
		}
		st := must(bench.FootprintSweep(gasnet.Static, capSizes(sizes, capStatic), ppn, 0))
		od := must(bench.FootprintSweep(gasnet.OnDemand, sizes, ppn, 0))
		emit(bench.FootprintTable(st, od))
	}
	if *exp != "all" && !slices.ContainsFunc(asked, func(n string) bool { return strings.EqualFold(n, *exp) }) {
		slices.Sort(asked)
		fmt.Fprintf(os.Stderr, "reproduce: unknown experiment %q; valid: all, bench, %s\n", *exp, strings.Join(slices.Compact(asked), ", "))
		os.Exit(2)
	}
}

// capSizes keeps the sizes up to max; a max <= 0 keeps them all.
func capSizes(sizes []int, max int) []int {
	var out []int
	for _, s := range sizes {
		if s <= max || max <= 0 {
			out = append(out, s)
		}
	}
	return out
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
	fpSizes := capSizes(bench.FootprintSizes, fpMaxNP)
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
