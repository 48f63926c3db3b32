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
// counters. Run builds it at job end whenever the ledger is on
// (Result.Incidents); `oshrun -incidents` renders it, `-json` embeds it.
type IncidentReport struct {
	Kinds      []obs.IncidentKindSummary `json:"kinds"`
	Reconcile  []ReconcileRow            `json:"reconciliation"`
	Reconciled bool                      `json:"reconciled"`
}

// lane is one (class, kind) row of the ledger.
type lane [2]string

// injection is one fault source's own count of what it injected and the
// ledger lanes those injections must appear on.
type injection struct {
	class, kind string
	injected    int
	lanes       []lane
}

// injections lists every fault source of a finished run. The fabric injector's
// rows are its own declaration (ib.Injected: one tagged field per kind, count
// and lanes together). A kind that feeds several lanes (one slowdown tally for
// ud/slow and rc/slow) is one row named after all of them: "ud+rc" "slow",
// "alloc" "qp+mr".
func injections(res *Result) []injection {
	var out []injection
	obs.EachCounter(res.Cfg.Faults.Injected(), func(def obs.CounterDef, v int64) {
		if def.Lanes == "" {
			return
		}
		in := injection{injected: int(v)}
		for _, l := range strings.Split(def.Lanes, ",") {
			class, kind, _ := strings.Cut(l, "/")
			in.lanes = append(in.lanes, lane{class, kind})
			in.class, in.kind = joinNew(in.class, class), joinNew(in.kind, kind)
		}
		out = append(out, in)
	})
	pf := res.Cfg.PMIFaults
	crash := 0
	if pf.CrashTripped() {
		crash = 1
	}
	for _, in := range []injection{
		{class: "pe", kind: "kill", injected: len(res.Cfg.KillPEs)},
		{class: "pe", kind: "wedge", injected: len(res.Cfg.WedgePEs)},
		{class: "pmi", kind: "drop", injected: pf.Drops()},
		{class: "pmi", kind: "dup", injected: pf.Dups()},
		{class: "pmi", kind: "slow", injected: pf.Slowdowns()},
		{class: "pmi", kind: "unavail", injected: pf.UnavailHits()},
		{class: "pmi", kind: "crash", injected: crash},
	} {
		in.lanes = []lane{{in.class, in.kind}}
		out = append(out, in)
	}
	return out
}

// buildIncidentReport assembles the incident section of a finished run from
// its swept ledger, or returns nil when the ledger was not enabled.
func buildIncidentReport(res *Result) *IncidentReport {
	led := res.Obs.Ledger()
	if led == nil {
		return nil
	}
	rep := &IncidentReport{Kinds: obs.SummarizeIncidents(led.Snapshot()), Reconciled: true}
	byLane := make(map[lane]obs.IncidentKindSummary, len(rep.Kinds))
	for _, k := range rep.Kinds {
		byLane[lane{k.Class, k.Kind}] = k
	}
	row := func(r ReconcileRow) {
		r.OK = r.Injected == r.Recorded && r.Resolved == r.Recorded
		rep.Reconcile = append(rep.Reconcile, r)
		rep.Reconciled = rep.Reconciled && r.OK
	}
	for _, in := range injections(res) {
		r := ReconcileRow{Class: in.class, Kind: in.kind, Injected: in.injected}
		for _, l := range in.lanes {
			k := byLane[l]
			delete(byLane, l)
			r.Recorded += k.Total
			r.Resolved += k.Closed + k.Aborted
		}
		if r.Injected != 0 || r.Recorded != 0 { // nothing injected, nothing recorded: omit the noise
			row(r)
		}
	}
	// Any ledger lane no injection consumed is accounting drift: an
	// instrumented site invented a (class, kind) the reconciliation does not
	// know about.
	for _, k := range rep.Kinds {
		if _, left := byLane[lane{k.Class, k.Kind}]; left {
			row(ReconcileRow{Class: k.Class, Kind: k.Kind, Recorded: k.Total, Resolved: k.Closed + k.Aborted})
		}
	}
	return rep
}

// audit is the ledger's verdict on a finished job: a completed job whose
// ledger is on reconciles, kind by kind. An aborted job may not — the abort
// tore recovery down mid-flight.
func (r *Result) audit() error {
	if r.Aborted || r.Incidents == nil {
		return nil
	}
	for _, row := range r.Incidents.Reconcile {
		if !row.OK {
			return fmt.Errorf("cluster: incident ledger does not reconcile: %s/%s injected %d, recorded %d, resolved %d",
				row.Class, row.Kind, row.Injected, row.Recorded, row.Resolved)
		}
	}
	return nil
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
