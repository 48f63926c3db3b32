package bench

import (
	"fmt"
	"slices"

	"goshmem/internal/gasnet"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
)

// PhasePoint is one job size of the start_pes breakdown: per-phase average
// and per-phase worst-PE virtual seconds, in the order Attach runs the phases.
type PhasePoint struct {
	N      int
	Names  []string
	AvgSec map[string]float64
	MaxSec map[string]float64

	sum shmem.Phases // per-phase ns summed over PEs, for BreakdownTable; not in the JSON
}

// StartupPhases runs empty jobs and returns the start_pes breakdown averaged
// over PEs, versus job size. BreakdownTable folds it into Figure 1 (mode ==
// Static) and Figure 5(b) (mode == OnDemand); PhaseTable shows every phase.
func StartupPhases(mode gasnet.Mode, sizes []int, ppn int) ([]PhasePoint, error) {
	var out []PhasePoint
	for _, n := range sizes {
		res, err := startupJob(mode, n, ppn, obs.Config{})
		if err != nil {
			return nil, err
		}
		sum, worst := res.PhaseTotals()
		p := PhasePoint{N: n, Names: slices.Clone(shmem.PhaseNames[:]),
			AvgSec: map[string]float64{}, MaxSec: map[string]float64{}, sum: sum}
		for i, name := range shmem.PhaseNames {
			p.AvgSec[name] = avgSec(sum[i], n)
			p.MaxSec[name] = float64(worst[i]) / 1e9
		}
		out = append(out, p)
	}
	return out, nil
}

// avgSec is a per-PE average in virtual seconds of ns summed over n PEs.
func avgSec(ns int64, n int) float64 { return float64(ns) / float64(n) / 1e9 }

// BreakdownTable renders Figure 1 / Figure 5(b): the phases folded into the
// paper's buckets, averaged over PEs.
func BreakdownTable(title string, pts []PhasePoint) *Table {
	t := &Table{
		Title:   title,
		Headers: []string{"nprocs", "conn-setup(s)", "pmi(s)", "memreg(s)", "shmem(s)", "other(s)", "total(s)"},
	}
	for _, p := range pts {
		row := []string{fmt.Sprintf("%d", p.N)}
		b := p.sum.Fig1()
		for _, ns := range append(b[:], p.sum.Total()) {
			row = append(row, f3(avgSec(ns, p.N)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// PhaseTable renders the startup breakdown, one row per job size and one
// column per phase (average across PEs; the worst single PE is shown for the
// total).
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
