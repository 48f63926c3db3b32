// Command bench records the simulator's performance trajectory: a small,
// fixed suite of startup, latency and phase measurements written as one
// machine-readable JSON document. `make bench` runs it and writes
// BENCH_<date>.json; nightly CI uploads the file so regressions in the
// modeled numbers (and in the wall cost of producing them) show up as a
// diffable series over time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"goshmem/internal/bench"
	"goshmem/internal/gasnet"
)

// SchemaVersion identifies the BENCH_<date>.json document shape so the
// trajectory tooling can evolve with it. Bump on any breaking change.
const SchemaVersion = 1

// doc is the perf-trajectory document.
type doc struct {
	SchemaVersion int    `json:"schema_version"`
	Date          string `json:"date"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`

	// WallNS is the wall-clock cost of producing the whole suite — the
	// simulator's own speed, as opposed to the virtual-time numbers below.
	WallNS int64 `json:"wall_ns"`

	// Startup is Figure 5(a) at reduced sizes: start_pes and Hello World
	// virtual seconds for both connection modes.
	Startup []bench.StartupPoint `json:"startup"`

	// Latency is Figure 6 at reduced sizes: put/get virtual latency (ns per
	// op) for both modes.
	Latency []bench.LatencyPoint `json:"latency_put_get"`

	// CreditStall is the resource-plane backpressure suite: burst
	// put-with-signal latency (virtual ns per op) and the stall/NAK
	// counters as the receive-queue depth shrinks; depth 0 is the
	// unbounded baseline.
	CreditStall []bench.CreditPoint `json:"latency_credit_stall"`

	// PhasesStatic / PhasesOnDemand are the obs-plane startup-phase
	// breakdowns (virtual seconds per phase, averaged across PEs).
	PhasesStatic   []bench.PhasePoint `json:"phases_static"`
	PhasesOnDemand []bench.PhasePoint `json:"phases_ondemand"`

	// Footprint is the engine scaling sweep: census-measured bytes-per-PE,
	// goroutines-per-PE and startup time versus np in both connection
	// modes. It only warns under -check: the bytes are the Go runtime's to
	// decide, and static-mode startup at np >= 1024 charges the adapter's
	// endpoint-cache penalty, which samples the live-QP count in host order
	// and so moves in the seventh digit from run to run.
	Footprint []bench.FootprintPoint `json:"footprint"`
}

// Virtual-time numbers are the cost model's output: deterministic, so -check
// demands them equal to the baseline's, bit for bit — a change is a declared
// cost-model change, committed with a regenerated baseline, never noise.
// warnPct is the threshold for the footprint sweep and the suite's wall time:
// growth past it is called out but does not fail the run.
const warnPct = 10.0

// footprintSizes is the fixed np sweep of the footprint suite.
var footprintSizes = []int{64, 256, 1024, 4096}

// loadBaseline decodes the lexically-latest BENCH_*.json in dir — with
// date-stamped names, lexical order is chronological order, so this is the
// most recent committed trajectory point. It runs before the suite writes
// anything.
func loadBaseline(dir string) (*doc, string) {
	matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	sort.Strings(matches)
	for i := len(matches) - 1; i >= 0; i-- {
		p := matches[i]
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var d doc
		if err := json.Unmarshal(b, &d); err != nil {
			fmt.Fprintf(os.Stderr, "bench: skipping unreadable baseline %s: %v\n", p, err)
			continue
		}
		return &d, p
	}
	return nil, ""
}

// outputPath is the file the run writes: out, else BENCH_<today>.json in dir.
// A -check run never writes over the baseline it checks against; a plain run
// may, which is how a baseline is regenerated.
func outputPath(dir, out, today, basePath string, check bool) (string, error) {
	path := out
	if path == "" {
		path = filepath.Join(dir, "BENCH_"+today+".json")
	}
	abs, _ := filepath.Abs(path)
	baseAbs, _ := filepath.Abs(basePath)
	if check && basePath != "" && abs == baseAbs {
		return "", fmt.Errorf("-check would overwrite its baseline %s: name another output with -o", basePath)
	}
	return path, nil
}

// pctDelta is the relative change in percent; a zero baseline reports 0 so
// newly-added points never fail the gate.
func pctDelta(old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	return (cur - old) / old * 100
}

// reportDeltas prints the per-suite comparison against the baseline and
// reports whether any virtual-time number differs from it.
func reportDeltas(base, cur *doc, basePath string) bool {
	fmt.Printf("\ndeltas vs %s (%s):\n", basePath, base.Date)
	var changedSuites, warnedSuites []string
	note := func(list *[]string, s string) {
		for _, x := range *list {
			if x == s {
				return
			}
		}
		*list = append(*list, s)
	}
	// row is the gate for a virtual number: any difference is a change.
	row := func(suite, point, metric string, old, new float64) {
		verdict := ""
		if old != new {
			verdict = "  CHANGED"
			note(&changedSuites, suite)
		}
		fmt.Printf("  %-20s %-16s %-14s %14.1f -> %14.1f  %+7.1f%%%s\n",
			suite, point, metric, old, new, pctDelta(old, new), verdict)
	}
	// warnRow is for what the host or the Go runtime decides: past-threshold
	// growth is called out loudly but does not fail the run.
	warnRow := func(suite, point, metric string, old, new float64) {
		d := pctDelta(old, new)
		verdict := ""
		if d > warnPct {
			verdict = "  WARN"
			note(&warnedSuites, suite)
		}
		fmt.Printf("  %-20s %-16s %-14s %14.1f -> %14.1f  %+7.1f%%%s\n",
			suite, point, metric, old, new, d, verdict)
	}

	startupByN := map[int]bench.StartupPoint{}
	for _, p := range base.Startup {
		startupByN[p.N] = p
	}
	for _, p := range cur.Startup {
		b, ok := startupByN[p.N]
		if !ok {
			continue
		}
		id := fmt.Sprintf("np=%d", p.N)
		row("startup", id, "init_static_s", b.InitStatic, p.InitStatic)
		row("startup", id, "init_od_s", b.InitOnDemand, p.InitOnDemand)
		row("startup", id, "hello_static_s", b.HelloStatic, p.HelloStatic)
		row("startup", id, "hello_od_s", b.HelloOnDemand, p.HelloOnDemand)
	}

	latBySize := map[int]bench.LatencyPoint{}
	for _, p := range base.Latency {
		latBySize[p.Size] = p
	}
	for _, p := range cur.Latency {
		b, ok := latBySize[p.Size]
		if !ok {
			continue
		}
		id := fmt.Sprintf("size=%d", p.Size)
		row("latency_put_get", id, "put_static", b.PutStatic, p.PutStatic)
		row("latency_put_get", id, "put_od", b.PutOD, p.PutOD)
		row("latency_put_get", id, "get_static", b.GetStatic, p.GetStatic)
		row("latency_put_get", id, "get_od", b.GetOD, p.GetOD)
	}

	creditByDepth := map[int]bench.CreditPoint{}
	for _, p := range base.CreditStall {
		creditByDepth[p.RQDepth] = p
	}
	for _, p := range cur.CreditStall {
		b, ok := creditByDepth[p.RQDepth]
		if !ok {
			continue
		}
		id := fmt.Sprintf("depth=%d", p.RQDepth)
		row("latency_credit_stall", id, "burst_put_ns", b.BurstPutNS, p.BurstPutNS)
		row("latency_credit_stall", id, "credit_stalls", float64(b.CreditStalls), float64(p.CreditStalls))
		row("latency_credit_stall", id, "rnr_naks", float64(b.RNRNaks), float64(p.RNRNaks))
	}

	fpByKey := map[string]bench.FootprintPoint{}
	for _, p := range base.Footprint {
		fpByKey[fmt.Sprintf("%s/%d", p.Mode, p.N)] = p
	}
	for _, p := range cur.Footprint {
		b, ok := fpByKey[fmt.Sprintf("%s/%d", p.Mode, p.N)]
		if !ok {
			continue
		}
		id := fmt.Sprintf("%s np=%d", p.Mode, p.N)
		warnRow("footprint", id, "bytes_per_pe", b.BytesPerPE, p.BytesPerPE)
		warnRow("footprint", id, "startup_s", b.StartupS, p.StartupS)
	}

	warnRow("wall", "suite", "wall_ns", float64(base.WallNS), float64(cur.WallNS))
	if len(changedSuites) > 0 {
		fmt.Printf("  suites with changed virtual numbers: %v\n", changedSuites)
	}
	if len(warnedSuites) > 0 {
		fmt.Printf("  warned suites (>%.0f%%, not failing): %v\n", warnPct, warnedSuites)
	}
	return len(changedSuites) > 0
}

func main() {
	out := flag.String("o", "", "output file (default BENCH_<yyyy-mm-dd>.json)")
	check := flag.Bool("check", false, "compare against the most recent committed BENCH_*.json and exit nonzero when any virtual-time number differs from it (wall time and footprint bytes warn only)")
	fpMaxNP := flag.Int("footprint-max-np", 4096, "cap the footprint sweep at this np (the full sweep's static np=4096 point builds ~8.4M connections; CI runners cap lower)")
	fpCSV := flag.String("footprint-csv", "", "also write the footprint sweep as CSV to FILE (the nightly artifact)")
	flag.Parse()

	base, basePath := loadBaseline(".")
	path, err := outputPath(".", *out, time.Now().UTC().Format("2006-01-02"), basePath, *check)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}

	d := doc{
		SchemaVersion: SchemaVersion,
		Date:          time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
	}

	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}

	t0 := time.Now()

	d.Startup, err = bench.Startup([]int{64, 128, 256}, 8, 256)
	die(err)

	d.Latency, err = bench.PutGetLatency([]int{8, 4096, 65536}, 50)
	die(err)

	d.CreditStall, err = bench.CreditStallLatency([]int{0, 16, 4, 1}, 32, 20)
	die(err)

	d.PhasesStatic, err = bench.PhaseBreakdown(gasnet.Static, []int{64, 128}, 8)
	die(err)
	d.PhasesOnDemand, err = bench.PhaseBreakdown(gasnet.OnDemand, []int{64, 128}, 8)
	die(err)

	// Footprint sweep. A capped run must be loud about what it dropped: a
	// silently-truncated sweep reads as "covered the full range" in the
	// committed trajectory.
	fpSizes := footprintSizes
	if *fpMaxNP > 0 {
		var kept, dropped []int
		for _, n := range footprintSizes {
			if n > *fpMaxNP {
				dropped = append(dropped, n)
			} else {
				kept = append(kept, n)
			}
		}
		if len(dropped) > 0 {
			fmt.Fprintf(os.Stderr, "bench: footprint sweep capped at np=%d; dropping sizes %v\n", *fpMaxNP, dropped)
		}
		fpSizes = kept
	}
	fpStatic, err := bench.FootprintSweep(gasnet.Static, fpSizes, 16, 0)
	die(err)
	fpOD, err := bench.FootprintSweep(gasnet.OnDemand, fpSizes, 16, 0)
	die(err)
	d.Footprint = append(fpStatic, fpOD...)
	if *fpCSV != "" {
		cf, err := os.Create(*fpCSV)
		die(err)
		die(bench.WriteFootprintCSV(cf, d.Footprint))
		die(cf.Close())
		fmt.Printf("wrote %s\n", *fpCSV)
	}

	d.WallNS = time.Since(t0).Nanoseconds()

	f, err := os.Create(path)
	die(err)
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	die(enc.Encode(&d))
	die(f.Close())
	fmt.Printf("wrote %s (suite wall time %.1fs)\n", path, float64(d.WallNS)/1e9)

	if base == nil {
		if *check {
			// A -check run with nothing to check against must be loud: a CI
			// lane that silently passes because the baseline artifact went
			// missing would mask every future regression. Exit 0 so a fresh
			// checkout can still bootstrap its first baseline.
			fmt.Fprintf(os.Stderr, "bench: WARNING: -check requested but no prior BENCH_*.json baseline exists; "+
				"equality gate NOT applied (wrote %s as the new baseline)\n", path)
			return
		}
		fmt.Printf("no prior BENCH_*.json baseline found; skipping delta report\n")
		return
	}
	changed := reportDeltas(base, &d, basePath)
	if changed && *check {
		fmt.Fprintf(os.Stderr, "bench: virtual-time numbers differ from %s: a cost-model change must be declared and the baseline regenerated\n", basePath)
		os.Exit(1)
	}
}
