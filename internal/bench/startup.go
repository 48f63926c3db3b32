package bench

import (
	"fmt"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
	"goshmem/internal/vclock"
)

// paperHeap is the symmetric heap the experiments register per PE: a
// realistic 1 GiB, whose registration start_pes pays for in full. Only the
// blocks a program allocates are backed, so 8K-PE sweeps fit in memory.
const paperHeap = 1 << 30

// startupJob runs the empty application the startup experiments time: only
// launch, start_pes and finalize happen.
func startupJob(mode gasnet.Mode, np, ppn int, oc obs.Config) (*cluster.Result, error) {
	return cluster.Run(cluster.Config{
		NP: np, PPN: ppn, Mode: mode,
		HeapSize: paperHeap, Obs: oc,
	}, func(c *shmem.Ctx) {})
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
// maxStatic are skipped and their rows keep only the on-demand columns (the
// fully connected model at 8K PEs needs ~67M queue pairs — the memory
// pressure the paper criticizes; the shape is established by the smaller
// points).
func Startup(sizes []int, ppn, maxStatic int) ([]StartupPoint, error) {
	var out []StartupPoint
	for _, n := range sizes {
		st, od, err := both(func(mode gasnet.Mode) (*cluster.Result, error) {
			if mode == gasnet.Static && n > maxStatic {
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
