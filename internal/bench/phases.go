package bench

import (
	"fmt"

	"goshmem/internal/gasnet"
	"goshmem/internal/obs"
)

// PhasePoint is one job size of the observability-plane startup breakdown:
// per-phase average and per-phase worst-PE virtual seconds, in the order the
// runtime emits the phases.
type PhasePoint struct {
	N      int
	Names  []string
	AvgSec map[string]float64
	MaxSec map[string]float64
}

// PhaseBreakdown runs empty jobs with the observability plane enabled and
// returns the startup-phase breakdown recorded by obs.InitPhase. Unlike
// InitBreakdown (which reads the legacy InitBreakdown struct), this view is
// produced by the unified plane and has the finer-grained phase set
// (conn-setup and rkey-exchange are separate, qp-setup is split from other).
func PhaseBreakdown(mode gasnet.Mode, sizes []int, ppn int) ([]PhasePoint, error) {
	var out []PhasePoint
	for _, n := range sizes {
		res, err := startupJob(mode, n, ppn, obs.Config{Metrics: true})
		if err != nil {
			return nil, err
		}
		names, sums, maxes := obs.PhaseTotals(res.Obs.StartupPhases())
		p := PhasePoint{
			N:      n,
			Names:  names,
			AvgSec: make(map[string]float64, len(names)),
			MaxSec: make(map[string]float64, len(names)),
		}
		for _, name := range names {
			p.AvgSec[name] = float64(sums[name]) / float64(n) / 1e9
			p.MaxSec[name] = float64(maxes[name]) / 1e9
		}
		out = append(out, p)
	}
	return out, nil
}

// PhaseTable renders the plane-derived startup breakdown, one row per job
// size and one column per phase (average across PEs; the worst single PE is
// shown for the total).
func PhaseTable(title string, pts []PhasePoint) *Table {
	if len(pts) == 0 {
		return &Table{Title: title}
	}
	names := pts[0].Names
	t := &Table{Title: title, Headers: []string{"nprocs"}}
	for _, n := range names {
		t.Headers = append(t.Headers, n+"(s)")
	}
	t.Headers = append(t.Headers, "total(s)", "worst-pe(s)")
	for _, p := range pts {
		row := []string{fmt.Sprintf("%d", p.N)}
		var total, worst float64
		for _, n := range names {
			row = append(row, f3(p.AvgSec[n]))
			total += p.AvgSec[n]
			worst += p.MaxSec[n]
		}
		row = append(row, f3(total), f3(worst))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"phases recorded by the obs plane; they tile start_pes exactly, so total == average init time")
	return t
}
