package cluster

import (
	"fmt"
	"io"
	"strings"

	"goshmem/internal/obs"
)

// ReconcileRow compares one fault source's injected count against the
// incidents the ledger recorded for it. A row reconciles when every injected
// fault opened exactly one incident AND every one of those incidents was
// resolved — closed by a proven repair or deliberately aborted with the job.
type ReconcileRow struct {
	Class    string `json:"class"`
	Kind     string `json:"kind"`
	Injected int    `json:"injected"`
	Recorded int    `json:"recorded"`
	Resolved int    `json:"resolved"` // closed + aborted
	OK       bool   `json:"ok"`
}

// IncidentReport is the causal-incident section of a run's report: the
// per-(class, kind) detection-latency and MTTR summary plus the
// reconciliation of ledger contents against the fault injectors' own
// counters. `oshrun -incidents` renders it; `-json` embeds it.
type IncidentReport struct {
	Kinds      []obs.IncidentKindSummary `json:"kinds"`
	Reconcile  []ReconcileRow            `json:"reconciliation"`
	Reconciled bool                      `json:"reconciled"`
}

// BuildIncidentReport assembles the incident section from a finished run, or
// returns nil when the incident ledger was not enabled. Call only after the
// run completed (Run sweeps the ledger before returning).
func BuildIncidentReport(res *Result) *IncidentReport {
	led := res.Obs.Ledger()
	if led == nil {
		return nil
	}
	kinds := obs.SummarizeIncidents(led.Snapshot())
	byKey := make(map[[2]string]obs.IncidentKindSummary, len(kinds))
	for _, k := range kinds {
		byKey[[2]string{k.Class, k.Kind}] = k
	}
	consumed := make(map[[2]string]bool, len(kinds))

	// take sums the ledger rows for a set of (class, kind) lanes that share
	// one injector counter (e.g. the fabric's single slowdown counter feeds
	// both ud/slow and rc/slow).
	take := func(keys ...[2]string) (recorded, resolved int) {
		for _, k := range keys {
			consumed[k] = true
			row := byKey[k]
			recorded += row.Total
			resolved += row.Closed + row.Aborted
		}
		return
	}

	type spec struct {
		class, kind string
		injected    int
		lanes       [][2]string
	}
	// The fabric injector's rows are its own declaration (ib.Injected: one
	// tagged field per kind, count and lanes together). A kind that feeds
	// several lanes (one slowdown tally for ud/slow and rc/slow) is one row
	// named after all of them: "ud+rc" "slow", "alloc" "qp+mr".
	var specs []spec
	obs.EachCounter(res.Cfg.Faults.Injected(), func(def obs.CounterDef, v int64) {
		if def.Lanes == "" {
			return
		}
		sp := spec{injected: int(v)}
		for _, lane := range strings.Split(def.Lanes, ",") {
			class, kind, _ := strings.Cut(lane, "/")
			sp.lanes = append(sp.lanes, [2]string{class, kind})
			sp.class, sp.kind = joinNew(sp.class, class), joinNew(sp.kind, kind)
		}
		specs = append(specs, sp)
	})
	pf := res.Cfg.PMIFaults
	crash := 0
	if pf.CrashTripped() {
		crash = 1
	}
	specs = append(specs,
		spec{"pe", "kill", len(res.Cfg.KillPEs), [][2]string{{"pe", "kill"}}},
		spec{"pe", "wedge", len(res.Cfg.WedgePEs), [][2]string{{"pe", "wedge"}}},
		spec{"pmi", "drop", pf.Drops(), [][2]string{{"pmi", "drop"}}},
		spec{"pmi", "dup", pf.Dups(), [][2]string{{"pmi", "dup"}}},
		spec{"pmi", "slow", pf.Slowdowns(), [][2]string{{"pmi", "slow"}}},
		spec{"pmi", "unavail", pf.UnavailHits(), [][2]string{{"pmi", "unavail"}}},
		spec{"pmi", "crash", crash, [][2]string{{"pmi", "crash"}}},
	)

	rep := &IncidentReport{Kinds: kinds, Reconciled: true}
	for _, sp := range specs {
		recorded, resolved := take(sp.lanes...)
		if sp.injected == 0 && recorded == 0 {
			continue // nothing injected, nothing recorded: omit the noise
		}
		ok := sp.injected == recorded && resolved == recorded
		rep.Reconcile = append(rep.Reconcile, ReconcileRow{
			Class: sp.class, Kind: sp.kind,
			Injected: sp.injected, Recorded: recorded, Resolved: resolved, OK: ok,
		})
		if !ok {
			rep.Reconciled = false
		}
	}
	// Any ledger lane no spec consumed is accounting drift: an instrumented
	// site invented a (class, kind) the reconciliation does not know about.
	for _, k := range kinds {
		key := [2]string{k.Class, k.Kind}
		if consumed[key] {
			continue
		}
		rep.Reconcile = append(rep.Reconcile, ReconcileRow{
			Class: k.Class, Kind: k.Kind,
			Injected: 0, Recorded: k.Total, Resolved: k.Closed + k.Aborted, OK: false,
		})
		rep.Reconciled = false
	}
	return rep
}

// joinNew appends part to a "+"-joined list unless it is the list's last part.
func joinNew(list, part string) string {
	switch {
	case list == "":
		return part
	case list == part || strings.HasSuffix(list, "+"+part):
		return list
	}
	return list + "+" + part
}

// WriteText renders the incident report as the two aligned tables
// `oshrun -incidents` prints: the per-kind MTTR summary, then the
// injector-vs-ledger reconciliation with its verdict line.
func (ir *IncidentReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "incidents:\n")
	if len(ir.Kinds) == 0 {
		fmt.Fprintf(w, "  (none)\n")
	} else {
		fmt.Fprintf(w, "  %-8s %-12s %6s %6s %7s %4s %6s  %12s %12s %12s %12s\n",
			"class", "kind", "total", "closed", "aborted", "open", "unresv",
			"detect-p50", "detect-max", "mttr-p50", "mttr-max")
		for _, k := range ir.Kinds {
			fmt.Fprintf(w, "  %-8s %-12s %6d %6d %7d %4d %6d  %10dns %10dns %10dns %10dns\n",
				k.Class, k.Kind, k.Total, k.Closed, k.Aborted, k.Open, k.Unresolved,
				k.DetectP50NS, k.DetectMaxNS, k.MTTRP50NS, k.MTTRMaxNS)
		}
	}
	fmt.Fprintf(w, "reconciliation:\n")
	if len(ir.Reconcile) == 0 {
		fmt.Fprintf(w, "  (no faults injected)\n")
	} else {
		fmt.Fprintf(w, "  %-8s %-12s %8s %8s %8s  %s\n",
			"class", "kind", "injected", "recorded", "resolved", "ok")
		for _, r := range ir.Reconcile {
			verdict := "ok"
			if !r.OK {
				verdict = "MISMATCH"
			}
			fmt.Fprintf(w, "  %-8s %-12s %8d %8d %8d  %s\n",
				r.Class, r.Kind, r.Injected, r.Recorded, r.Resolved, verdict)
		}
	}
	if ir.Reconciled {
		fmt.Fprintf(w, "reconciled: every injected fault maps to one resolved incident\n")
	} else {
		fmt.Fprintf(w, "RECONCILIATION FAILED: injected faults and ledger incidents disagree\n")
	}
}
