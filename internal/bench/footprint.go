package bench

import (
	"fmt"
	"io"
	"sort"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/obs"
	"goshmem/internal/vclock"
)

// The footprint suite is the engine's scaling trajectory: bytes-per-PE and
// goroutines-per-PE versus job size in both connection modes, measured by
// the footprint census at the init-done boundary (the point Fig. 5(a)'s
// memory curve is defined at). ROADMAP item 1 — the sharded event engine —
// will be judged against exactly these numbers, so every PR commits them to
// BENCH_<date>.json and `bench -check` warns when they regress.

// FootprintPoint is one (np, mode) sample of the engine scaling sweep.
type FootprintPoint struct {
	N    int    `json:"np"`
	Mode string `json:"mode"`

	// BytesPerPE is the measured job-owned heap growth (init-done census
	// heap minus baseline) divided by np; ModeledBytesPerPE is the census
	// attribution total for the same boundary. The two agreeing (Reconciled)
	// is what makes the first number trustworthy.
	BytesPerPE        float64 `json:"bytes_per_pe"`
	ModeledBytesPerPE float64 `json:"modeled_bytes_per_pe"`
	GoroutinesPerPE   float64 `json:"goroutines_per_pe"`
	Reconciled        bool    `json:"reconciled"`

	// StartupS is the average start_pes time (virtual seconds) of the same
	// run, so the memory/startup trade-off stays one record.
	StartupS float64 `json:"startup_s"`

	// SubsystemBytesPerPE attributes BytesPerPE: modeled on-heap bytes per
	// subsystem divided by np, at the init-done boundary.
	SubsystemBytesPerPE map[string]float64 `json:"subsystem_bytes_per_pe"`

	// WallNS is the real cost of producing this point.
	WallNS int64 `json:"wall_ns"`
}

// FootprintSweep measures the engine footprint across job sizes in one
// connection mode. Like Startup, each PE registers a 1 GiB symmetric heap
// and allocates nothing from it, so nothing of it is backed: BytesPerPE is
// the engine's own per-PE cost — connection state, queue pairs, endpoint
// directories, telemetry — with no heap to subtract. Static points above
// maxStatic are skipped (same rationale as Startup: the O(np²) connection
// mesh at full scale is the pressure under study, not a number this harness
// needs minutes to reproduce).
func FootprintSweep(mode gasnet.Mode, sizes []int, ppn, maxStatic int) ([]FootprintPoint, error) {
	var out []FootprintPoint
	for _, n := range sizes {
		if mode == gasnet.Static && maxStatic > 0 && n > maxStatic {
			continue
		}
		res, err := startupJob(mode, n, ppn, obs.Config{Footprint: true})
		if err != nil {
			return nil, err
		}
		p, err := footprintPoint(res, n)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func footprintPoint(res *cluster.Result, n int) (FootprintPoint, error) {
	fp := res.Footprint
	if fp == nil || len(fp.Snapshots) == 0 {
		return FootprintPoint{}, fmt.Errorf("footprint: census missing from run at np=%d", n)
	}
	var base, init *obs.CensusSnapshot
	for i := range fp.Snapshots {
		switch fp.Snapshots[i].Label {
		case "baseline":
			base = &fp.Snapshots[i]
		case "init-done":
			init = &fp.Snapshots[i]
		}
	}
	if base == nil || init == nil {
		return FootprintPoint{}, fmt.Errorf("footprint: baseline/init-done snapshots missing at np=%d", n)
	}
	p := FootprintPoint{
		N:                   n,
		Mode:                fmt.Sprint(res.Cfg.Mode),
		BytesPerPE:          float64(init.HeapBytes-base.HeapBytes) / float64(n),
		ModeledBytesPerPE:   float64(init.ModeledHeapBytes()) / float64(n),
		GoroutinesPerPE:     float64(init.Goroutines) / float64(n),
		Reconciled:          fp.Reconciled,
		StartupS:            vclock.Seconds(res.InitAvg),
		SubsystemBytesPerPE: map[string]float64{},
		WallNS:              res.Wall.Nanoseconds(),
	}
	for sub, b := range init.SubsystemHeapBytes() {
		p.SubsystemBytesPerPE[sub] = float64(b) / float64(n)
	}
	return p, nil
}

// FootprintTable renders the sweep as the Fig. 5(a)-shaped memory curve:
// static per-PE bytes grow linearly with np (the O(np²) job-wide mesh) while
// on-demand stays flat — the asymmetry the paper's design exists to buy.
func FootprintTable(static, onDemand []FootprintPoint) *Table {
	byN := map[int]*[2]FootprintPoint{}
	for _, p := range static {
		e := byN[p.N]
		if e == nil {
			e = &[2]FootprintPoint{}
			byN[p.N] = e
		}
		e[0] = p
	}
	for _, p := range onDemand {
		e := byN[p.N]
		if e == nil {
			e = &[2]FootprintPoint{}
			byN[p.N] = e
		}
		e[1] = p
	}
	var ns []int
	for n := range byN {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	t := &Table{
		Title: "Engine footprint vs job size (census at init-done)",
		Headers: []string{"nprocs", "static B/PE", "ondemand B/PE", "ratio",
			"static gor/PE", "ondemand gor/PE", "static init(s)", "ondemand init(s)"},
		Notes: []string{
			"static bytes/PE grow with np (O(np^2) connection mesh job-wide); on-demand stays near-flat — the Fig. 5(a) memory story",
			"every point census-reconciled against runtime.ReadMemStats (drift within tolerance)",
		},
	}
	for _, n := range ns {
		e := byN[n]
		st, od := "-", "-"
		ratio, sg, og, si, oi := "-", "-", "-", "-", "-"
		if e[0].N != 0 {
			st = f0(e[0].BytesPerPE)
			sg = f1(e[0].GoroutinesPerPE)
			si = f3(e[0].StartupS)
		}
		if e[1].N != 0 {
			od = f0(e[1].BytesPerPE)
			og = f1(e[1].GoroutinesPerPE)
			oi = f3(e[1].StartupS)
		}
		if e[0].N != 0 && e[1].N != 0 && e[1].BytesPerPE > 0 {
			ratio = f1(e[0].BytesPerPE / e[1].BytesPerPE)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), st, od, ratio, sg, og, si, oi,
		})
	}
	return t
}

// WriteFootprintCSV renders sweep points as stable CSV for the nightly
// artifact: one row per (np, mode), sorted by (mode, np).
func WriteFootprintCSV(w io.Writer, pts []FootprintPoint) error {
	sorted := append([]FootprintPoint(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Mode != sorted[j].Mode {
			return sorted[i].Mode < sorted[j].Mode
		}
		return sorted[i].N < sorted[j].N
	})
	if _, err := fmt.Fprintln(w, "mode,np,bytes_per_pe,modeled_bytes_per_pe,goroutines_per_pe,startup_s,reconciled,wall_ns"); err != nil {
		return err
	}
	for _, p := range sorted {
		if _, err := fmt.Fprintf(w, "%s,%d,%.0f,%.0f,%.2f,%.6f,%v,%d\n",
			p.Mode, p.N, p.BytesPerPE, p.ModeledBytesPerPE, p.GoroutinesPerPE,
			p.StartupS, p.Reconciled, p.WallNS); err != nil {
			return err
		}
	}
	return nil
}

// f0 formats a float with no decimals.
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
