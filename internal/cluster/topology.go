package cluster

import (
	"fmt"
	"io"

	"goshmem/internal/obs"
)

// Topology reduction: turns the per-PE flow matrices recorded by the
// conduits (obs.Config.Flows) into the job-level communication-pattern
// view the paper argues from — who talks to whom, how much, by what kind
// of operation, and how many of the QPs that were paid for actually
// carried application traffic.

// PETopology is one PE's row of the topology report.
type PETopology struct {
	Rank int `json:"rank"`
	// Peers is the data-plane degree: distinct peers (excluding self) this
	// PE sent data-plane operations to — the conduit's Table I peer count.
	Peers int `json:"peers"`
	// QPsEstablished counts handshakes this PE completed, re-establishments
	// after eviction or faults included.
	QPsEstablished int `json:"qps_established"`
	// QPsUsed counts distinct destinations (self included) with data-plane
	// traffic — connections that carried at least one application payload.
	QPsUsed int            `json:"qps_used"`
	Edges   []obs.FlowEdge `json:"edges,omitempty"`
}

// TopologyReport is the `topology` section of the job report.
type TopologyReport struct {
	// Kinds names the per-edge cell columns, in obs.FlowKind order.
	Kinds []string `json:"kinds"`
	// Degree is the distribution of data-plane peer degrees across PEs.
	Degree obs.DegreeDist `json:"degree"`
	// QPsEstablished / QPsUsed / QPsWasted attribute connection waste
	// job-wide: established counts completed handshakes (reconnects
	// included), used counts pair-slots that carried application traffic.
	QPsEstablished int `json:"qps_established"`
	QPsUsed        int `json:"qps_used"`
	QPsWasted      int `json:"qps_wasted"`

	PEs []PETopology `json:"pes"`
}

// BuildTopology reduces a finished run's flow matrices. Returns nil when no
// PE recorded flows (obs.Config.Flows disabled).
func BuildTopology(res *Result) *TopologyReport {
	any := false
	for _, p := range res.PEs {
		if len(p.Stats.Flows) > 0 {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	top := &TopologyReport{Kinds: obs.FlowKindNames()}
	degrees := make([]int, 0, len(res.PEs))
	for _, p := range res.PEs {
		edges := p.Stats.Flows
		used := 0
		for i := range edges {
			if edges[i].DataOps() > 0 {
				used++
			}
		}
		pt := PETopology{
			Rank:           p.Rank,
			Peers:          p.Stats.PeersContacted,
			QPsEstablished: p.Stats.ConnsEstablished,
			QPsUsed:        used,
			Edges:          edges,
		}
		degrees = append(degrees, pt.Peers)
		top.QPsEstablished += pt.QPsEstablished
		top.QPsUsed += pt.QPsUsed
		top.PEs = append(top.PEs, pt)
	}
	top.Degree = obs.DegreeDistribution(degrees)
	if top.QPsEstablished > top.QPsUsed {
		top.QPsWasted = top.QPsEstablished - top.QPsUsed
	}
	return top
}

// FlowMatrix returns the per-rank edge lists (indexed by rank) for the
// heatmap and the reducers in internal/obs.
func (res *Result) FlowMatrix() [][]obs.FlowEdge {
	out := make([][]obs.FlowEdge, res.Cfg.NP)
	for _, p := range res.PEs {
		if p.Rank >= 0 && p.Rank < len(out) {
			out[p.Rank] = p.Stats.Flows
		}
	}
	return out
}

// WriteTopologyText renders the topology report as the `oshrun -topology`
// text view: the bytes-weighted heatmap, the degree table, per-kind totals
// and the waste attribution. Deterministic for a deterministic matrix.
func WriteTopologyText(w io.Writer, res *Result) {
	top := BuildTopology(res)
	if top == nil {
		fmt.Fprintln(w, "topology: no flow matrix recorded (run with -topology or obs flows enabled)")
		return
	}
	obs.WriteHeatmap(w, res.Cfg.NP, res.FlowMatrix())
	fmt.Fprintf(w, "\npeer degree (data-plane, excl. self): min %d  p50 %d  p95 %d  max %d  avg %.2f\n",
		top.Degree.Min, top.Degree.P50, top.Degree.P95, top.Degree.Max, top.Degree.Avg)

	// Per-kind job totals, in kind order.
	var ops, bytes [obs.NumFlowKinds]int64
	for _, pt := range top.PEs {
		for i := range pt.Edges {
			for k := 0; k < int(obs.NumFlowKinds); k++ {
				ops[k] += pt.Edges[i].Cells[k].Ops
				bytes[k] += pt.Edges[i].Cells[k].Bytes
			}
		}
	}
	fmt.Fprintf(w, "\n%-10s %12s %14s\n", "kind", "ops", "bytes")
	for k := 0; k < int(obs.NumFlowKinds); k++ {
		if ops[k] == 0 && bytes[k] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-10s %12d %14d\n", obs.FlowKind(k).String(), ops[k], bytes[k])
	}

	pct := 0.0
	if top.QPsEstablished > 0 {
		pct = 100 * float64(top.QPsWasted) / float64(top.QPsEstablished)
	}
	fmt.Fprintf(w, "\nQPs established %d, carried data %d, never used %d (%.1f%% waste)\n",
		top.QPsEstablished, top.QPsUsed, top.QPsWasted, pct)
}
