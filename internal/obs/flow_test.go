package obs

import (
	"strings"
	"testing"
)

func TestFlowNopAndGating(t *testing.T) {
	// Nil receiver and out-of-range inputs must be no-ops.
	var nop *PE
	nop.Flow(1, FlowPut, 64)
	if nop.FlowSnapshot() != nil {
		t.Fatal("nil PE returned a flow snapshot")
	}

	// A plane without Flows records nothing, even with other planes on.
	pl := NewPlane(1, Config{Events: true, Metrics: true})
	pe := pl.PE(0)
	if pe.FlowsEnabled() {
		t.Fatal("Flows reported enabled without Config.Flows")
	}
	pe.Flow(1, FlowPut, 64)
	if pe.FlowSnapshot() != nil {
		t.Fatal("flow recorded with Config.Flows disabled")
	}

	// With Flows on, bad inputs are still dropped.
	pl = NewPlane(1, Config{Flows: true})
	pe = pl.PE(0)
	if !pe.Active() || !pe.FlowsEnabled() {
		t.Fatal("flows-only plane reports inactive")
	}
	pe.Flow(-1, FlowPut, 64)
	pe.Flow(1, NumFlowKinds, 64)
	if pe.FlowSnapshot() != nil {
		t.Fatal("bad peer/kind recorded a flow")
	}
}

func TestFlowSnapshotSortedAndAccumulated(t *testing.T) {
	pl := NewPlane(1, Config{Flows: true})
	pe := pl.PE(0)
	pe.Flow(3, FlowPut, 100)
	pe.Flow(1, FlowGet, 10)
	pe.Flow(3, FlowPut, 28)
	pe.Flow(3, FlowCtrl, 5)
	pe.Flow(1, FlowGet, 6)

	edges := pe.FlowSnapshot()
	if len(edges) != 2 || edges[0].Peer != 1 || edges[1].Peer != 3 {
		t.Fatalf("snapshot not sorted by peer: %+v", edges)
	}
	if c := edges[0].Cells[FlowGet]; c.Ops != 2 || c.Bytes != 16 {
		t.Fatalf("peer 1 get cell = %+v, want {2 16}", c)
	}
	if c := edges[1].Cells[FlowPut]; c.Ops != 2 || c.Bytes != 128 {
		t.Fatalf("peer 3 put cell = %+v, want {2 128}", c)
	}
	if edges[1].TotalOps() != 3 || edges[1].TotalBytes() != 133 {
		t.Fatalf("peer 3 totals = %d/%d, want 3/133", edges[1].TotalOps(), edges[1].TotalBytes())
	}
	if edges[1].DataOps() != 2 || edges[1].DataBytes() != 128 {
		t.Fatalf("peer 3 data totals = %d/%d, want 2/128 (ctrl excluded)", edges[1].DataOps(), edges[1].DataBytes())
	}
}

func TestDegreeDistribution(t *testing.T) {
	if d := DegreeDistribution(nil); d != (DegreeDist{}) {
		t.Fatalf("empty input: %+v", d)
	}
	d := DegreeDistribution([]int{4, 1, 3, 2, 100})
	if d.Min != 1 || d.Max != 100 {
		t.Fatalf("min/max = %d/%d", d.Min, d.Max)
	}
	if d.P50 != 3 {
		t.Fatalf("p50 = %d, want 3 (nearest rank)", d.P50)
	}
	if d.P95 != 100 {
		t.Fatalf("p95 = %d, want 100", d.P95)
	}
	if d.Avg != 22 {
		t.Fatalf("avg = %v, want 22", d.Avg)
	}
}

func TestFlowKindNames(t *testing.T) {
	names := FlowKindNames()
	if len(names) != int(NumFlowKinds) {
		t.Fatalf("got %d names for %d kinds", len(names), NumFlowKinds)
	}
	if FlowPut.String() != "put" || FlowCtrl.String() != "ctrl" {
		t.Fatalf("kind names wrong: %q %q", FlowPut, FlowCtrl)
	}
	if got := FlowKind(200).String(); got != "kind-200" {
		t.Fatalf("out-of-range kind = %q", got)
	}
}

// heatEdges builds a minimal per-PE edge list with the given byte weights:
// weights[r][p] bytes from rank r to peer p.
func heatEdges(weights [][]int64) [][]FlowEdge {
	out := make([][]FlowEdge, len(weights))
	for r, row := range weights {
		for p, b := range row {
			if b == 0 {
				continue
			}
			var e FlowEdge
			e.Peer = p
			e.Cells[FlowPut] = FlowCell{Ops: 1, Bytes: b}
			out[r] = append(out[r], e)
		}
	}
	return out
}

func TestWriteHeatmapSmall(t *testing.T) {
	var sb strings.Builder
	WriteHeatmap(&sb, 2, heatEdges([][]int64{{0, 1024}, {1, 0}}))
	got := sb.String()
	want := "flow heatmap (2 PEs, rows=src, cols=dst, bytes-weighted):\n" +
		"     0 | @|\n" +
		"     1 |. |\n" +
		"  scale: ' ' = none .. '@' = 1024 bytes\n"
	if got != want {
		t.Fatalf("heatmap output:\n%s\nwant:\n%s", got, want)
	}
	// Determinism: a second render is byte-identical.
	var sb2 strings.Builder
	WriteHeatmap(&sb2, 2, heatEdges([][]int64{{0, 1024}, {1, 0}}))
	if sb2.String() != got {
		t.Fatal("heatmap render not deterministic")
	}
}

func TestWriteHeatmapBuckets(t *testing.T) {
	// 100 PEs bucket into ceil(100/32)=4-PE buckets -> 25x25 grid.
	np := 100
	weights := make([][]int64, np)
	for r := range weights {
		weights[r] = make([]int64, np)
		weights[r][(r+1)%np] = 512
	}
	var sb strings.Builder
	WriteHeatmap(&sb, np, heatEdges(weights))
	out := sb.String()
	if !strings.Contains(out, "4-PE buckets") {
		t.Fatalf("bucketed header missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// header + 25 rows + scale line
	if len(lines) != 27 {
		t.Fatalf("got %d lines, want 27", len(lines))
	}
	// Each grid row renders side glyphs between the pipes.
	row := lines[1]
	open := strings.IndexByte(row, '|')
	if open < 0 || len(row)-open-2 != 25 {
		t.Fatalf("row width wrong: %q", row)
	}
}
