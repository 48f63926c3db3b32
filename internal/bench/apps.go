package bench

import (
	"fmt"

	"goshmem/internal/apps/graph500"
	"goshmem/internal/apps/heat2d"
	"goshmem/internal/apps/nas"
	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/mpi"
	"goshmem/internal/shmem"
	"goshmem/internal/vclock"
)

// NASPoint is one bar pair of Figure 8(a).
type NASPoint struct {
	App              string
	Static, OnDemand float64 // job execution time, seconds
	ImprovementPct   float64
}

// appRunner launches one of the paper's applications.
type appRunner func(c *shmem.Ctx)

// nasApps returns the four OpenSHMEM NAS kernels for a class.
func nasApps(class nas.Class) map[string]appRunner {
	return map[string]appRunner{
		"BT": func(c *shmem.Ctx) { nas.BT(c, class) },
		"EP": func(c *shmem.Ctx) { nas.EP(c, nas.EPParamsFor(class)) },
		"MG": func(c *shmem.Ctx) { nas.MG(c, nas.MGParamsFor(class)) },
		"SP": func(c *shmem.Ctx) { nas.SP(c, class) },
	}
}

// NASExecution reproduces Figure 8(a): total execution time (as reported by
// the job launcher — launch + init + kernel + finalize) of the OpenSHMEM
// NAS kernels with static and on-demand connections.
func NASExecution(np, ppn int, class nas.Class) ([]NASPoint, error) {
	apps := nasApps(class)
	var out []NASPoint
	for _, name := range []string{"BT", "EP", "MG", "SP"} {
		s, o, err := both(func(mode gasnet.Mode) (float64, error) {
			res, err := cluster.Run(cluster.Config{NP: np, PPN: ppn, Mode: mode,
				HeapSize: paperHeap}, apps[name])
			if err != nil {
				return 0, fmt.Errorf("%s %s: %w", name, mode, err)
			}
			return vclock.Seconds(res.JobVT), nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, NASPoint{App: name, Static: s, OnDemand: o, ImprovementPct: (s - o) / s * 100})
	}
	return out, nil
}

// NASTable renders Figure 8(a).
func NASTable(np int, class nas.Class, pts []NASPoint) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 8(a): NAS (OpenSHMEM) execution time, class %c, %d PEs", class, np),
		Headers: []string{"app", "static(s)", "on-demand(s)", "improvement %"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{p.App, f2(p.Static), f2(p.OnDemand), f1(p.ImprovementPct)})
	}
	t.Notes = append(t.Notes, "paper reports improvements of 18%-35% at 256 processes, class B")
	return t
}

// G500Point is one x of Figure 8(b).
type G500Point struct {
	N                int
	Static, OnDemand float64
	DiffPct          float64
}

// Graph500Execution reproduces Figure 8(b): hybrid MPI+OpenSHMEM Graph500
// total execution time (including generation and validation) at several
// process counts, both connection modes.
func Graph500Execution(sizes []int, ppn int) ([]G500Point, error) {
	p := graph500.DefaultParams()
	var out []G500Point
	for _, n := range sizes {
		s, o, err := both(func(mode gasnet.Mode) (float64, error) {
			res, err := cluster.Run(cluster.Config{NP: n, PPN: ppn, Mode: mode,
				HeapSize: paperHeap},
				func(c *shmem.Ctx) {
					if !graph500.Run(c, mpi.New(c.Conduit()), p).ValidationOK {
						panic("graph500: BFS validation failed")
					}
				})
			if err != nil {
				return 0, err
			}
			return vclock.Seconds(res.JobVT), nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, G500Point{N: n, Static: s, OnDemand: o, DiffPct: pctDiff(s, o)})
	}
	return out, nil
}

// Graph500Table renders Figure 8(b).
func Graph500Table(pts []G500Point) *Table {
	t := &Table{
		Title:   "Figure 8(b): hybrid MPI+OpenSHMEM Graph500 execution time (2^10 vertices, 2^14 edges)",
		Headers: []string{"nprocs", "static(s)", "on-demand(s)", "diff %"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", p.N), f2(p.Static), f2(p.OnDemand), f2(p.DiffPct)})
	}
	t.Notes = append(t.Notes, "paper reports <2% difference between the two schemes")
	return t
}

// tinyApps returns cheap variants of the Table I / Figure 9 applications so
// resource-usage sweeps to 1024+ PEs stay tractable; the communication
// topology (which determines peers and endpoints) is identical to the full
// kernels'.
func tinyApps() (order []string, apps map[string]appRunner) {
	order = []string{"2DHeat", "BT", "EP", "MG", "SP"}
	apps = map[string]appRunner{
		"2DHeat": func(c *shmem.Ctx) {
			heat2d.Run(c, heat2d.Params{NX: 8, NY: 4 * c.NPEs(), MaxIters: 4, CheckEvery: 2, Tol: 0, NoChecksum: true})
		},
		"BT": func(c *shmem.Ctx) {
			nas.BT(c, nas.ClassS)
		},
		"EP": func(c *shmem.Ctx) {
			nas.EP(c, nas.EPParams{LogPairs: 10, ComputeScale: 1})
		},
		"MG": func(c *shmem.Ctx) {
			nas.MG(c, nas.MGParams{LocalN: 4, Levels: 2, Cycles: 1, ComputeScale: 1})
		},
		"SP": func(c *shmem.Ctx) {
			nas.SP(c, nas.ClassS)
		},
	}
	return order, apps
}

// PeerPoint is one Table I / Figure 9 cell.
type PeerPoint struct {
	App       string
	N         int
	AvgPeers  float64
	Endpoints float64 // RC endpoints created per PE (on-demand)
	StaticEP  float64 // endpoints per PE under the static design (= N)
}

// PeersTable reproduces Table I: average communicating peers per process for
// each application at the given size.
func PeersAt(np, ppn int) ([]PeerPoint, error) {
	order, apps := tinyApps()
	var out []PeerPoint
	for _, name := range order {
		if (name == "BT" || name == "SP") && !isSquare(np) {
			continue
		}
		res, err := cluster.Run(cluster.Config{NP: np, PPN: ppn, Mode: gasnet.OnDemand,
			HeapSize: 8 << 20}, apps[name])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, PeerPoint{App: name, N: np, AvgPeers: res.AvgPeers(),
			Endpoints: res.AvgEndpoints(), StaticEP: float64(np)})
	}
	return out, nil
}

// PeersTableRender renders Table I.
func PeersTableRender(np int, pts []PeerPoint) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Table I: average communicating peers per process (%d PEs)", np),
		Headers: []string{"application", "avg peers"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{p.App, f1(p.AvgPeers)})
	}
	t.Notes = append(t.Notes,
		"paper (256 procs): BT 11.9, EP 4.5, MG 9.5, SP 11.8, 2D-Heat 3.0")
	return t
}

// ResourceUsage reproduces Figure 9: average RC endpoints created per
// process for each application across job sizes, plus a linear-regression
// projection to projN (the paper projects 4,096 from 64/256/1,024).
func ResourceUsage(sizes []int, ppn, projN int) (map[string][]PeerPoint, map[string]float64, error) {
	series := map[string][]PeerPoint{}
	for _, np := range sizes {
		pts, err := PeersAt(np, ppn)
		if err != nil {
			return nil, nil, fmt.Errorf("at %d PEs: %w", np, err)
		}
		for _, p := range pts {
			series[p.App] = append(series[p.App], p)
		}
	}
	proj := map[string]float64{}
	for name, pts := range series {
		proj[name] = linearProject(pts, projN)
	}
	return series, proj, nil
}

// linearProject fits endpoints = a + b*n by least squares and evaluates at n.
func linearProject(pts []PeerPoint, n int) float64 {
	if len(pts) == 0 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x, y := float64(p.N), p.Endpoints
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	k := float64(len(pts))
	den := k*sxx - sx*sx
	if den == 0 {
		return pts[len(pts)-1].Endpoints
	}
	b := (k*sxy - sx*sy) / den
	a := (sy - b*sx) / k
	return a + b*float64(n)
}

// ResourceTable renders Figure 9.
func ResourceTable(series map[string][]PeerPoint, proj map[string]float64, sizes []int, projN int) *Table {
	order := []string{"2DHeat", "BT", "EP", "MG", "SP"}
	headers := []string{"application"}
	for _, n := range sizes {
		headers = append(headers, fmt.Sprintf("EP/proc @%d", n))
	}
	headers = append(headers, fmt.Sprintf("projected @%d", projN), "reduction vs static")
	t := &Table{Title: "Figure 9: average endpoints created per process (on-demand)", Headers: headers}
	for _, name := range order {
		pts := series[name]
		if len(pts) == 0 {
			continue
		}
		row := []string{name}
		for _, n := range sizes {
			val := "-"
			for _, p := range pts {
				if p.N == n {
					val = f1(p.Endpoints)
				}
			}
			row = append(row, val)
		}
		row = append(row, f1(proj[name]))
		last := pts[len(pts)-1]
		row = append(row, f1((1-last.Endpoints/last.StaticEP)*100)+"%")
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"static design creates N endpoints per process; reduction column compares at the largest measured size",
		"paper reports >90% reduction at 1,024 processes")
	return t
}

func isSquare(n int) bool {
	for i := 1; i*i <= n; i++ {
		if i*i == n {
			return true
		}
	}
	return false
}

// SummaryTable derives Figure 2's qualitative radar (closer to 1.0 = better,
// normalized to the worse design per axis) from measured results.
func SummaryTable(startup []StartupPoint, nasPts []NASPoint, res map[string][]PeerPoint) *Table {
	t := &Table{
		Title:   "Figure 2: qualitative summary (proposed design relative to current; lower = better share of current design's cost)",
		Headers: []string{"aspect", "current", "proposed (fraction of current)"},
	}
	// Startup: last size with both measurements.
	for i := len(startup) - 1; i >= 0; i-- {
		if startup[i].InitStatic > 0 {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("startup time @%d", startup[i].N), "1.00",
				f2(startup[i].InitOnDemand / startup[i].InitStatic)})
			break
		}
	}
	if len(nasPts) > 0 {
		avg := 0.0
		for _, p := range nasPts {
			avg += p.OnDemand / p.Static
		}
		avg /= float64(len(nasPts))
		t.Rows = append(t.Rows, []string{"execution time (NAS avg)", "1.00", f2(avg)})
	}
	// Resource usage at the largest measured size.
	var frac float64
	var cnt int
	for _, pts := range res {
		if len(pts) > 0 {
			p := pts[len(pts)-1]
			frac += p.Endpoints / p.StaticEP
			cnt++
		}
	}
	if cnt > 0 {
		t.Rows = append(t.Rows, []string{"resource usage (endpoints)", "1.00", f2(frac / float64(cnt))})
	}
	return t
}
