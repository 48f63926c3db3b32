package cluster

import (
	"encoding/json"
	"fmt"
	"io"

	"goshmem/internal/gasnet"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
)

// ExchangePath attributes the endpoint-exchange path startup actually took.
// Static mode and -blocking-pmi use Put-Fence-Get by design; an on-demand run
// normally completes on the non-blocking IAllgather, unless the control plane
// lost the exchange and PEs degraded to the blocking fallback ladder.
func (r *Result) ExchangePath() string {
	if r.Cfg.Mode == gasnet.Static || r.Cfg.BlockingPMI {
		return "put-fence-get (blocking)"
	}
	if fb := r.Counters().FallbackExchanges; fb > 0 {
		return fmt.Sprintf("iallgather lost; put-fence-get fallback on %d/%d PEs", fb, r.Cfg.NP)
	}
	return "iallgather (non-blocking)"
}

// ReportSchemaVersion identifies the JSON report's schema so downstream
// tooling (perf-trajectory diffing, CI artifact parsers) can evolve with
// it. Bump on any breaking change to Report's shape.
const ReportSchemaVersion = 1

// Report is the machine-readable summary of a run: job-level timings, per-PE
// outcomes, the startup-phase breakdown, and — when metrics were enabled —
// the full counter and histogram registry. `oshrun -json` serializes it.
type Report struct {
	SchemaVersion int `json:"schema_version"`

	NP      int    `json:"np"`
	PPN     int    `json:"ppn"`
	Mode    string `json:"mode"`
	JobVT   int64  `json:"job_vt_ns"`
	InitAvg int64  `json:"init_avg_ns"`
	InitMax int64  `json:"init_max_ns"`
	WallNS  int64  `json:"wall_ns"`

	Aborted     bool   `json:"aborted,omitempty"`
	AbortReason string `json:"abort_reason,omitempty"`

	// ExchangePath attributes which endpoint-exchange path startup took:
	// the non-blocking IAllgather, the blocking Put-Fence-Get, or the
	// degraded fallback after a lost exchange.
	ExchangePath string `json:"exchange_path"`

	PEs []PEReport `json:"pes"`

	StartupPhases []PEStartup           `json:"startup_phases,omitempty"`
	Counters      []obs.CounterSnapshot `json:"counters,omitempty"`
	Histograms    []obs.HistSnapshot    `json:"histograms,omitempty"`
	DroppedEvents int64                 `json:"dropped_events,omitempty"`

	// Topology is the flow-telemetry section (communication matrix, degree
	// distribution, QP waste attribution); present when flows were recorded.
	Topology *TopologyReport `json:"topology,omitempty"`

	// Gauges summarizes every virtual-time gauge (min/max/final) when the
	// gauge plane was enabled; the full series goes to -timeseries-out.
	Gauges []obs.GaugeStat `json:"gauges,omitempty"`

	// Incidents is the causal-incident section (per-kind MTTR summary and
	// injector-vs-ledger reconciliation) when the ledger was enabled.
	Incidents *IncidentReport `json:"incidents,omitempty"`

	// Footprint is the engine self-observability section (census snapshots,
	// per-subsystem attribution, modeled-vs-measured heap reconciliation)
	// when the footprint plane was enabled. It carries its own
	// obs.FootprintSchemaVersion so the section can evolve independently.
	Footprint *obs.FootprintReport `json:"footprint,omitempty"`
}

// PEReport is one PE's slice of the report.
type PEReport struct {
	Rank         int   `json:"rank"`
	InitVT       int64 `json:"init_vt_ns"`
	FinalVT      int64 `json:"final_vt_ns"`
	Peers        int   `json:"peers"`
	RCQPsCreated int   `json:"rc_qps_created"`
	ExitCode     int   `json:"exit_code"`
}

// PEStartup is one rank's start_pes breakdown on the job's virtual timeline.
type PEStartup struct {
	Rank   int            `json:"rank"`
	Phases []StartupPhase `json:"phases"`
}

// StartupPhase is one named slice of a start_pes.
type StartupPhase struct {
	Name  string `json:"name"`
	Start int64  `json:"start_vt"`
	End   int64  `json:"end_vt"`
}

// startupPhases lays each PE's phases end to end from LaunchVT: every clock
// starts there and Attach is the first thing a PE runs, so the phases tile
// its start_pes by construction.
func startupPhases(res *Result) []PEStartup {
	out := make([]PEStartup, len(res.PEs))
	for r, p := range res.PEs {
		out[r] = PEStartup{Rank: r, Phases: make([]StartupPhase, len(p.Phases))}
		vt := res.LaunchVT
		for i, d := range p.Phases {
			out[r].Phases[i] = StartupPhase{Name: shmem.PhaseNames[i], Start: vt, End: vt + d}
			vt += d
		}
	}
	return out
}

// BuildReport assembles the report from a finished run. Observability
// sections are present only when the corresponding plane was enabled.
func BuildReport(res *Result) *Report {
	rep := &Report{
		SchemaVersion: ReportSchemaVersion,

		NP:      res.Cfg.NP,
		PPN:     res.Cfg.PPN,
		Mode:    fmt.Sprint(res.Cfg.Mode),
		JobVT:   res.JobVT,
		InitAvg: res.InitAvg,
		InitMax: res.InitMax,
		WallNS:  res.Wall.Nanoseconds(),

		Aborted:     res.Aborted,
		AbortReason: res.AbortReason,

		ExchangePath: res.ExchangePath(),
	}
	for _, p := range res.PEs {
		rep.PEs = append(rep.PEs, PEReport{
			Rank:         p.Rank,
			InitVT:       p.Phases.Total(),
			FinalVT:      p.FinalVT,
			Peers:        p.Stats.PeersContacted,
			RCQPsCreated: p.Stats.RCQPsCreated,
			ExitCode:     p.ExitCode,
		})
	}
	if res.Obs != nil {
		rep.StartupPhases = startupPhases(res)
		rep.DroppedEvents = res.Obs.Dropped()
		if reg := res.Obs.Registry(); reg != nil {
			rep.Counters = reg.Counters()
			rep.Histograms = reg.Hists()
		}
		rep.Gauges = res.Obs.Gauges().Stats()
		rep.Incidents = res.Incidents
		rep.Footprint = res.Footprint
	}
	rep.Topology = BuildTopology(res)
	return rep
}

// WriteJSON serializes the report with stable key order and indentation.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
