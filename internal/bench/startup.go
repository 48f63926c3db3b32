package bench

import (
	"fmt"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
	"goshmem/internal/vclock"
)

// DeclaredHeap is the symmetric-heap size modeled for registration cost in
// the startup experiments (a realistic 1 GiB per PE), while only ActualHeap
// bytes are really allocated so 8K-PE sweeps fit in memory.
const (
	DeclaredHeap = 1 << 30
	ActualHeap   = 64 << 10
)

// startupJob runs the empty application the startup experiments time: only
// launch, start_pes and finalize happen.
func startupJob(mode gasnet.Mode, np, ppn int, oc obs.Config) (*cluster.Result, error) {
	return cluster.Run(cluster.Config{
		NP: np, PPN: ppn, Mode: mode,
		HeapSize: ActualHeap, DeclaredHeapSize: DeclaredHeap, Obs: oc,
	}, func(c *shmem.Ctx) {})
}

// BreakdownPoint is one bar of Figure 1 / Figure 5(b) (seconds).
type BreakdownPoint struct {
	N               int
	ConnectionSetup float64
	PMIExchange     float64
	MemoryReg       float64
	SharedMemSetup  float64
	Other           float64
	Total           float64
}

// InitBreakdown reproduces Figure 1 (mode == Static) and Figure 5(b)
// (mode == OnDemand): the per-phase breakdown of start_pes averaged over
// PEs, versus job size, at the paper's 16 processes per node.
func InitBreakdown(mode gasnet.Mode, sizes []int, ppn int) ([]BreakdownPoint, error) {
	var out []BreakdownPoint
	for _, n := range sizes {
		res, err := startupJob(mode, n, ppn, obs.Config{})
		if err != nil {
			return nil, err
		}
		var b shmem.InitBreakdown
		for _, p := range res.PEs {
			b.ConnectionSetup += p.Breakdown.ConnectionSetup
			b.PMIExchange += p.Breakdown.PMIExchange
			b.MemoryReg += p.Breakdown.MemoryReg
			b.SharedMemSetup += p.Breakdown.SharedMemSetup
			b.Other += p.Breakdown.Other
			b.Total += p.Breakdown.Total
		}
		d := float64(n) * 1e9
		out = append(out, BreakdownPoint{
			N:               n,
			ConnectionSetup: float64(b.ConnectionSetup) / d,
			PMIExchange:     float64(b.PMIExchange) / d,
			MemoryReg:       float64(b.MemoryReg) / d,
			SharedMemSetup:  float64(b.SharedMemSetup) / d,
			Other:           float64(b.Other) / d,
			Total:           float64(b.Total) / d,
		})
	}
	return out, nil
}

// BreakdownTable renders breakdown points.
func BreakdownTable(title string, pts []BreakdownPoint) *Table {
	t := &Table{
		Title:   title,
		Headers: []string{"nprocs", "conn-setup(s)", "pmi(s)", "memreg(s)", "shmem(s)", "other(s)", "total(s)"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.N), f3(p.ConnectionSetup), f3(p.PMIExchange),
			f3(p.MemoryReg), f3(p.SharedMemSetup), f3(p.Other), f3(p.Total),
		})
	}
	return t
}

// StartupPoint is one x of Figure 5(a) (seconds; zero when not measured).
type StartupPoint struct {
	N             int
	InitStatic    float64 // start_pes, current design
	InitOnDemand  float64 // start_pes, proposed design
	HelloStatic   float64 // job wall time of Hello World, current design
	HelloOnDemand float64
}

// Startup reproduces Figure 5(a): average start_pes time and Hello World
// job time for both designs across job sizes. Static points above
// maxStatic are skipped (the fully connected model at 8K PEs needs ~67M
// queue pairs — the memory pressure the paper criticizes; the shape is
// established by the smaller points).
func Startup(sizes []int, ppn, maxStatic int) ([]StartupPoint, error) {
	var out []StartupPoint
	for _, n := range sizes {
		st, od, err := both(func(mode gasnet.Mode) (*cluster.Result, error) {
			if mode == gasnet.Static && maxStatic > 0 && n > maxStatic {
				return nil, nil
			}
			return startupJob(mode, n, ppn, obs.Config{})
		})
		if err != nil {
			return nil, err
		}
		p := StartupPoint{N: n, InitOnDemand: vclock.Seconds(od.InitAvg), HelloOnDemand: vclock.Seconds(od.JobVT)}
		if st != nil {
			p.InitStatic, p.HelloStatic = vclock.Seconds(st.InitAvg), vclock.Seconds(st.JobVT)
		}
		out = append(out, p)
	}
	return out, nil
}

// StartupTable renders Figure 5(a).
func StartupTable(pts []StartupPoint) *Table {
	t := &Table{
		Title: "Figure 5(a): start_pes and Hello World, current (static) vs proposed (on-demand)",
		Headers: []string{"nprocs", "start_pes static(s)", "start_pes on-demand(s)",
			"hello static(s)", "hello on-demand(s)", "init speedup", "hello speedup"},
	}
	for _, p := range pts {
		is, hs := "-", "-"
		spI, spH := "-", "-"
		if p.InitStatic > 0 {
			is, hs = f3(p.InitStatic), f3(p.HelloStatic)
			spI = f1(p.InitStatic / p.InitOnDemand)
			spH = f1(p.HelloStatic / p.HelloOnDemand)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.N), is, f3(p.InitOnDemand), hs, f3(p.HelloOnDemand), spI, spH,
		})
	}
	return t
}
