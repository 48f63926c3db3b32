package obs

import (
	"fmt"
	"io"
	"sort"
)

// Flow telemetry: the per-PE, per-peer communication matrix.
//
// Every conduit send path records one (peer, kind, bytes) sample; the
// per-PE recorder accumulates them into a small map of per-peer cells.
// Job-level reducers (degree distribution, bytes-weighted heatmap, waste
// attribution) run over the merged snapshots after the run. Like the rest
// of the plane, recording is nil-receiver safe and gated on Config.Flows,
// and everything derived from the matrix is deterministic: snapshots are
// sorted by peer, and the counts themselves are a function of the virtual
// schedule only (the data plane delivers exactly once).

// FlowKind classifies one directed traffic edge by operation class.
type FlowKind uint8

const (
	FlowPut FlowKind = iota
	FlowGet
	FlowAtomic
	FlowAM      // application-level active messages (point-to-point)
	FlowColl    // collective traffic (broadcast/reduce/collect rounds)
	FlowBarrier // barrier rounds
	FlowCtrl    // UD control datagrams (handshake, heartbeat, abort)

	// NumFlowKinds sizes per-edge cell arrays; keep it last.
	NumFlowKinds
)

var flowKindNames = [NumFlowKinds]string{
	"put", "get", "atomic", "am", "coll", "barrier", "ctrl",
}

func (k FlowKind) String() string {
	if int(k) < len(flowKindNames) {
		return flowKindNames[k]
	}
	return fmt.Sprintf("kind-%d", int(k))
}

// FlowKindNames returns the kind names in enum order (for report headers).
func FlowKindNames() []string {
	out := make([]string, NumFlowKinds)
	copy(out, flowKindNames[:])
	return out
}

// FlowCell is one (kind) bucket of a directed edge.
type FlowCell struct {
	Ops   int64 `json:"ops"`
	Bytes int64 `json:"bytes"`
}

// FlowEdge is the directed traffic from the recording PE to Peer, split by
// kind. Cells is indexed by FlowKind.
type FlowEdge struct {
	Peer  int                    `json:"peer"`
	Cells [NumFlowKinds]FlowCell `json:"cells"`
}

// TotalOps sums ops across all kinds, control included.
func (e *FlowEdge) TotalOps() int64 {
	var n int64
	for i := range e.Cells {
		n += e.Cells[i].Ops
	}
	return n
}

// TotalBytes sums bytes across all kinds, control included.
func (e *FlowEdge) TotalBytes() int64 {
	var n int64
	for i := range e.Cells {
		n += e.Cells[i].Bytes
	}
	return n
}

// DataOps sums ops across the data-plane kinds (everything but ctrl).
func (e *FlowEdge) DataOps() int64 { return e.TotalOps() - e.Cells[FlowCtrl].Ops }

// DataBytes sums bytes across the data-plane kinds (everything but ctrl).
func (e *FlowEdge) DataBytes() int64 { return e.TotalBytes() - e.Cells[FlowCtrl].Bytes }

// Flow records one send of the given kind to peer. Nil-safe; a plane
// without Config.Flows set records nothing.
func (p *PE) Flow(peer int, kind FlowKind, bytes int64) {
	if p == nil || !p.plane.cfg.Flows || peer < 0 || kind >= NumFlowKinds {
		return
	}
	p.mu.Lock()
	if p.flows == nil {
		p.flows = make(map[int]*[NumFlowKinds]FlowCell)
	}
	cells := p.flows[peer]
	if cells == nil {
		cells = new([NumFlowKinds]FlowCell)
		p.flows[peer] = cells
	}
	cells[kind].Ops++
	cells[kind].Bytes += bytes
	p.mu.Unlock()
}

// FlowSnapshot returns this PE's flow matrix row as edges sorted by peer.
// Nil (not empty) when flows are disabled or nothing was recorded.
func (p *PE) FlowSnapshot() []FlowEdge {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]FlowEdge, 0, len(p.flows))
	for peer, cells := range p.flows {
		out = append(out, FlowEdge{Peer: peer, Cells: *cells})
	}
	p.mu.Unlock()
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// DegreeDist is the distribution of per-PE peer degrees.
type DegreeDist struct {
	Min int     `json:"min"`
	P50 int     `json:"p50"`
	P95 int     `json:"p95"`
	Max int     `json:"max"`
	Avg float64 `json:"avg"`
}

// DegreeDistribution reduces per-PE degrees (communicating peers per PE)
// into min/p50/p95/max/avg. Percentiles use the nearest-rank rule on the
// sorted degrees.
func DegreeDistribution(degrees []int) DegreeDist {
	if len(degrees) == 0 {
		return DegreeDist{}
	}
	s := append([]int(nil), degrees...)
	sort.Ints(s)
	var sum int64
	for _, d := range s {
		sum += int64(d)
	}
	rank := func(p float64) int {
		i := int(p*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return DegreeDist{
		Min: s[0],
		P50: rank(0.50),
		P95: rank(0.95),
		Max: s[len(s)-1],
		Avg: float64(sum) / float64(len(s)),
	}
}

// heatRamp maps increasing traffic intensity to denser glyphs; index 0 is
// "no traffic at all".
var heatRamp = []byte(" .:-=+*#@")

// WriteHeatmap renders the job's flow matrix as a bytes-weighted text
// heatmap: one row per source PE, one column per destination, glyph density
// proportional to log(bytes) relative to the densest cell. Jobs larger than
// maxSide PEs are bucketed into a maxSide x maxSide grid (cells aggregate).
// perPE[r] is rank r's edge list; ctrl traffic is included in the weights
// (it is traffic the fabric carried).
func WriteHeatmap(w io.Writer, np int, perPE [][]FlowEdge) {
	const maxSide = 32
	side := np
	bucket := 1
	if side > maxSide {
		bucket = (np + maxSide - 1) / maxSide
		side = (np + bucket - 1) / bucket
	}
	grid := make([]int64, side*side)
	var max int64
	for r := 0; r < np && r < len(perPE); r++ {
		for i := range perPE[r] {
			e := &perPE[r][i]
			if e.Peer < 0 || e.Peer >= np {
				continue
			}
			cell := &grid[(r/bucket)*side+e.Peer/bucket]
			*cell += e.TotalBytes()
			if *cell > max {
				max = *cell
			}
		}
	}
	if bucket > 1 {
		fmt.Fprintf(w, "flow heatmap (%d PEs, %d-PE buckets, rows=src, cols=dst, bytes-weighted):\n", np, bucket)
	} else {
		fmt.Fprintf(w, "flow heatmap (%d PEs, rows=src, cols=dst, bytes-weighted):\n", np)
	}
	for row := 0; row < side; row++ {
		line := make([]byte, side)
		for col := 0; col < side; col++ {
			line[col] = heatGlyph(grid[row*side+col], max)
		}
		fmt.Fprintf(w, "  %4d |%s|\n", row*bucket, line)
	}
	fmt.Fprintf(w, "  scale: '%s' = none .. '%c' = %d bytes\n", " ", heatRamp[len(heatRamp)-1], max)
}

// heatGlyph picks the ramp glyph for v on a log scale relative to max.
func heatGlyph(v, max int64) byte {
	if v <= 0 || max <= 0 {
		return heatRamp[0]
	}
	// log2-ish bucketing: glyph index grows with bit length relative to max.
	mb, vb := bitLen(max), bitLen(v)
	steps := len(heatRamp) - 2 // indices 1..len-1 carry traffic
	idx := 1 + steps*vb/mb
	if idx >= len(heatRamp) {
		idx = len(heatRamp) - 1
	}
	return heatRamp[idx]
}

func bitLen(v int64) int {
	n := 0
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}
