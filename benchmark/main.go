// Command benchmark is the repository's host-cost benchmark: seven closed-loop
// reference jobs measured end to end, and a traced mode that attributes the
// cost to layers (vclock → ib → pmi → gasnet → shmem → cluster) from outside.
// README.md is the catalogue; BENCHMARK.json at the repository root is the
// manifest a driver reads, generated from registry.go by -manifest.
//
//	go run . -all -seed 1            every workload, set written to out/
//	go run . -all -traced            the same with per-layer metrics
//	go run . -workload rma_small     one workload; last line is one JSON object
//	go run . -compare A.json B.json  verdict per (workload, metric) against its bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	all := fs.Bool("all", false, "run every workload and write the set to -out/<timestamp>.json")
	name := fs.String("workload", "", "run one workload; the last line printed is its result as one JSON object")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", runSeconds, "how long each workload's timed loop runs")
	trace := fs.Int("trace", 0, "1 switches tracing on: per-layer metrics are reported, not end-to-end ones")
	traced := fs.Bool("traced", false, "same as -trace 1")
	compare := fs.Bool("compare", false, "compare two sets: -compare A.json B.json")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as the registry declares it")
	ladder := fs.String("ladder", "go run ./ladder", "command that runs the ladder program")
	out := fs.String("out", "out", "directory -all writes its set to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := runOpts{seed: *seed, seconds: *seconds, traced: *traced || *trace == 1, ladder: *ladder, log: stderr}

	switch {
	case *printManifest:
		b, err := manifest()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		stdout.Write(b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare A.json B.json")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *all:
		return runAll(o, *out, stdout, stderr)
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		r, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		printResult(stdout, r)
		if err := json.NewEncoder(stdout).Encode(resultLine(r)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	fs.Usage()
	return 2
}

// environment is recorded with every set: numbers from different machines or
// toolchains are not comparable, and -compare says so when these differ.
type environment struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	CPUModel   string `json:"cpu_model"`
	Time       string `json:"time"`
}

func readEnvironment() environment {
	e := environment{Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: os.Getenv("GOGC"),
		CPUModel: "unknown", Time: time.Now().UTC().Format(time.RFC3339)}
	if e.GOGC == "" {
		e.GOGC = "100"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// resultSet is what -all writes and -compare reads.
type resultSet struct {
	Env       environment       `json:"env"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Workloads []*workloadResult `json:"workloads"`
}

// runAll runs every workload in catalogue order. It exits non-zero when any
// oracle or exactness check fails.
func runAll(o runOpts, outDir string, stdout, stderr io.Writer) int {
	set := resultSet{Env: readEnvironment(), Seed: o.seed, Seconds: o.seconds, Traced: o.traced}
	fmt.Fprintf(stdout, "env: %s %s/%s nproc=%d GOMAXPROCS=%d GOGC=%s cpu=%q\n", set.Env.Go, set.Env.GOOS,
		set.Env.GOARCH, set.Env.NumCPU, set.Env.GOMAXPROCS, set.Env.GOGC, set.Env.CPUModel)
	if o.traced {
		// The rungs do not depend on the workload: climb them once.
		var err error
		if o.rungs, err = runLadder(o.ladder, []string{"-rungs"}); err != nil {
			o.rungs = nil
			o.ladderErr = err
		}
	}
	code := 0
	for i := range workloads {
		// Hand the previous workload's heap back at once, so that the next
		// one starts as it would in a process of its own and does not run
		// beside the scavenger returning a gigabyte in the background.
		debug.FreeOSMemory()
		r, err := runWorkload(&workloads[i], o)
		if err != nil {
			fmt.Fprintln(stderr, err)
			code = 1
			continue
		}
		printResult(stdout, r)
		if !r.correct() {
			code = 1
		}
		set.Workloads = append(set.Workloads, r)
	}
	if !o.traced {
		printObsPair(stdout, &set)
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	path := filepath.Join(outDir, time.Now().UTC().Format("20060102T150405Z")+".json")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "set written to %s\n", path)
	return code
}

// printResult prints one workload's metrics by name with unit, sample count
// and bound, then its checks.
func printResult(w io.Writer, r *workloadResult) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s) seed=%d jobs_attempted=%d jobs_failed=%d op_unit=%q\n",
		r.Name, mode, r.Seed, r.JobsAttempted, r.JobsFailed, r.OpUnit)
	for _, m := range endToEnd {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-32s %14.6g %-10s n=%-3d bound=%g%%\n", m.Name, v.Value, v.Unit, v.N, 100*v.Bound)
		}
	}
	for _, m := range perLayer {
		if v, ok := r.Layers[m.Name]; ok {
			fmt.Fprintf(w, "  %-32s %14.6g %-10s n=%d\n", m.Name, v.Value, v.Unit, v.N)
		}
	}
	if r.Ladder != "" {
		fmt.Fprintf(w, "  ladder %s\n", r.Ladder)
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  check %-32s %s %s\n", c.Name, verdict, c.Detail)
	}
}

// printObsPair reports what the obs planes and exporters cost end to end:
// the one number that needs two workloads of the same set.
func printObsPair(w io.Writer, set *resultSet) {
	wall := map[string]float64{}
	for _, r := range set.Workloads {
		wall[r.Name] = r.Metrics["job_wall_s"].Value
	}
	if on, off := wall["app_traffic_obs"], wall["app_traffic"]; on > 0 && off > 0 {
		fmt.Fprintf(w, "\nobs pair: app_traffic_obs.job_wall_s ÷ app_traffic.job_wall_s − 1 = %.4g\n", on/off-1)
	}
}

// resultLine is the one JSON object a driver reads from the last line: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced one.
func resultLine(r *workloadResult) any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	src := r.Metrics
	if r.Traced {
		src = r.Layers
	}
	for name, v := range src {
		metrics[name] = mv{v.Value, v.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), r.JobsAttempted, r.JobsFailed, metrics}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads -compare prints are the ones a driver would compute.
func quartiles(samples []float64) (q1, q3 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
