package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"goshmem/internal/gasnet"
)

// SchemaVersion identifies the BENCH_<date>.json document shape so the
// trajectory tooling can evolve with it. Bump on any breaking change.
const SchemaVersion = 1

// Doc is the perf-trajectory document, BENCH_<date>.json: a small fixed
// suite of startup, latency and phase measurements, plus the footprint sweep.
type Doc struct {
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
	Startup []StartupPoint `json:"startup"`

	// Latency is Figure 6 at reduced sizes: put/get virtual latency (ns per
	// op) for both modes.
	Latency []LatencyPoint `json:"latency_put_get"`

	// CreditStall is the resource-plane backpressure suite: burst
	// put-with-signal latency (virtual ns per op) and the stall/NAK
	// counters as the receive-queue depth shrinks; depth 0 is the
	// unbounded baseline.
	CreditStall []CreditPoint `json:"latency_credit_stall"`

	// PhasesStatic / PhasesOnDemand are the startup-phase breakdowns
	// (virtual seconds per phase, averaged across PEs).
	PhasesStatic   []PhasePoint `json:"phases_static"`
	PhasesOnDemand []PhasePoint `json:"phases_ondemand"`

	// Footprint is the engine scaling sweep: census-measured bytes-per-PE,
	// goroutines-per-PE and startup time versus np in both connection
	// modes. It only warns under -check: the bytes are the Go runtime's to
	// decide, and static-mode startup at np >= 1024 charges the adapter's
	// endpoint-cache penalty, which samples the live-QP count in host order
	// and so moves in the seventh digit from run to run.
	Footprint []FootprintPoint `json:"footprint"`
}

// FootprintSizes is the trajectory's footprint sweep. Static stops at
// np=1024: its np=4096 point builds ~8.4M connections and needs ~7 GB, so
// the committed baseline has no such row.
var FootprintSizes = []int{64, 256, 1024, 4096}

// Trajectory runs the fixed suite, the footprint sweep at fpSizes (static's
// capped at np=1024).
func Trajectory(fpSizes []int) (*Doc, error) {
	d := &Doc{
		SchemaVersion: SchemaVersion,
		Date:          time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
	}
	t0 := time.Now()
	var err error
	set(&d.Startup, &err)(Startup([]int{64, 128, 256}, 8, 256))
	set(&d.Latency, &err)(PutGetLatency([]int{8, 4096, 65536}, 50))
	set(&d.CreditStall, &err)(CreditStallLatency([]int{0, 16, 4, 1}, 32, 20))
	set(&d.PhasesStatic, &err)(StartupPhases(gasnet.Static, []int{64, 128}, 8))
	set(&d.PhasesOnDemand, &err)(StartupPhases(gasnet.OnDemand, []int{64, 128}, 8))
	set(&d.Footprint, &err)(FootprintSweep(gasnet.Static, CapSizes(fpSizes, 1024), 16))
	var onDemand []FootprintPoint
	set(&onDemand, &err)(FootprintSweep(gasnet.OnDemand, fpSizes, 16))
	d.Footprint = append(d.Footprint, onDemand...)
	d.WallNS = time.Since(t0).Nanoseconds()
	return d, err
}

// set returns a sink for one suite's result: it stores the points in dst and
// the error in err, unless an earlier suite already failed (the later suites
// still run; their results are dropped).
func set[T any](dst *[]T, err *error) func([]T, error) {
	return func(pts []T, e error) {
		if *err == nil {
			*dst, *err = pts, e
		}
	}
}

// LoadBaseline decodes the lexically-latest BENCH_*.json in dir — with
// date-stamped names, lexical order is chronological order, so this is the
// most recent committed trajectory point. It returns nil when dir has none,
// and an error when the latest one does not decode. It runs before the suite
// writes anything.
func LoadBaseline(dir string) (*Doc, string, error) {
	matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if len(matches) == 0 {
		return nil, "", nil
	}
	p := slices.Max(matches)
	b, err := os.ReadFile(p)
	var d Doc
	if err == nil {
		err = json.Unmarshal(b, &d)
	}
	if err != nil {
		return nil, p, fmt.Errorf("baseline %s: %w", p, err)
	}
	return &d, p, nil
}

// OutputPath is the file the run writes: out, else BENCH_<today>.json in dir.
// A -check run never writes over the baseline it checks against; a plain run
// may, which is how a baseline is regenerated.
func OutputPath(dir, out, today, basePath string, check bool) (string, error) {
	if out == "" {
		out = filepath.Join(dir, "BENCH_"+today+".json")
	}
	abs, _ := filepath.Abs(out)
	baseAbs, _ := filepath.Abs(basePath)
	if check && basePath != "" && abs == baseAbs {
		return "", fmt.Errorf("-check would overwrite its baseline %s: name another output with -o", basePath)
	}
	return out, nil
}

// warnPct is the threshold for the warn-only suites: growth past it is
// called out but does not fail the run. A zero baseline reports no growth,
// so newly-added points never warn.
const warnPct = 10.0

// warnOnly are the suites whose numbers the host or the Go runtime decides.
// Every other number is the cost model's output: deterministic, so it must
// equal the baseline's bit for bit, and a change is a declared cost-model
// change committed with a regenerated baseline, never noise.
var warnOnly = map[string]bool{"footprint": true, "wall": true}

// pointKeys are the fields that identify a point within its suite.
var pointKeys = []string{"mode", "np", "N", "Size", "RQDepth"}

// row names one compared number.
type row struct{ suite, point, metric string }

// rows flattens every numeric leaf of d's suites into (suite, point, metric)
// rows, in suite, point and metric order, plus the suite's wall time.
func rows(d *Doc) ([]row, map[row]float64) {
	var doc map[string]any
	b, err := json.Marshal(d)
	if err == nil {
		err = json.Unmarshal(b, &doc)
	}
	if err != nil {
		panic("bench: trajectory doc does not round-trip: " + err.Error())
	}
	wall := row{"wall", "suite", "wall_ns"}
	keys, vals := []row{wall}, map[row]float64{wall: float64(d.WallNS)}
	add := func(r row, v float64) { keys, vals[r] = append(keys, r), v }
	for _, suite := range sortedKeys(doc) {
		pts, _ := doc[suite].([]any)
		for _, p := range pts {
			fields := p.(map[string]any)
			var id []string
			for _, k := range pointKeys {
				if v, ok := fields[k]; ok {
					id = append(id, fmt.Sprintf("%s=%v", k, v))
					delete(fields, k)
				}
			}
			point := strings.Join(id, " ")
			for _, k := range sortedKeys(fields) {
				switch v := fields[k].(type) {
				case float64:
					add(row{suite, point, k}, v)
				case map[string]any:
					for _, sub := range sortedKeys(v) {
						add(row{suite, point, k + "." + sub}, v[sub].(float64))
					}
				}
			}
		}
	}
	return keys, vals
}

// Compare prints every row of cur against base, read from basePath, and
// reports whether a number outside the warn-only suites changed. A point
// present on one side only is skipped.
func Compare(w io.Writer, base, cur *Doc, basePath string) (changed bool) {
	fmt.Fprintf(w, "\ndeltas vs %s (%s):\n", basePath, base.Date)
	_, old := rows(base)
	keys, now := rows(cur)
	changes, warnings := 0, 0
	for _, r := range keys {
		o, ok := old[r]
		if !ok {
			continue
		}
		n, d, verdict := now[r], 0.0, ""
		if o != 0 {
			d = (n - o) / o * 100
		}
		switch {
		case warnOnly[r.suite] && d > warnPct:
			verdict, warnings = "  WARN", warnings+1
		case !warnOnly[r.suite] && o != n:
			verdict, changes = "  CHANGED", changes+1
		}
		fmt.Fprintf(w, "  %-20s %-18s %-32s %16g -> %16g  %+7.1f%%%s\n",
			r.suite, r.point, r.metric, o, n, d, verdict)
	}
	fmt.Fprintf(w, "  %d virtual numbers changed; %d warnings (>%.0f%% growth, not failing)\n", changes, warnings, warnPct)
	return changes > 0
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
