package bench

import (
	"bytes"
	"strings"
	"testing"

	"goshmem/internal/gasnet"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "Demo",
		Headers: []string{"a", "bbbb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"## Demo", "a    bbbb", "333  4", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestStartupPhasesTiny(t *testing.T) {
	pts, err := StartupPhases(gasnet.OnDemand, []int{8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	b, total := p.sum.Fig1(), p.sum.Total()
	if total <= 0 {
		t.Fatal("zero total")
	}
	if sum := b[0] + b[1] + b[2] + b[3] + b[4]; sum != total {
		t.Fatalf("buckets %d != total %d", sum, total)
	}
	if b[0] > total/10 {
		t.Fatal("on-demand connection setup should be negligible")
	}
	var avg float64
	for _, name := range p.Names {
		avg += p.AvgSec[name]
	}
	if diff := avg - avgSec(total, p.N); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("phase averages %.9f != average total %.9f", avg, avgSec(total, p.N))
	}
}

func TestStartupTiny(t *testing.T) {
	pts, err := Startup([]int{16}, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.InitStatic <= p.InitOnDemand {
		t.Fatalf("static init %.3f should exceed on-demand %.3f", p.InitStatic, p.InitOnDemand)
	}
	if p.HelloStatic <= p.HelloOnDemand {
		t.Fatalf("static hello %.3f should exceed on-demand %.3f", p.HelloStatic, p.HelloOnDemand)
	}
}

func TestPutGetLatencyTiny(t *testing.T) {
	pts, err := PutGetLatency([]int{8, 4096}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.PutStatic <= 0 || p.PutOD <= 0 || p.GetStatic <= 0 || p.GetOD <= 0 {
			t.Fatalf("non-positive latency: %+v", p)
		}
		// Get (round trip) must cost more than put (one way + ack wait is
		// hidden until quiet; measured put includes quiet so compare loosely).
		if p.GetOD < p.PutOD/4 {
			t.Fatalf("get suspiciously cheap: %+v", p)
		}
	}
	if pts[1].PutOD <= pts[0].PutOD {
		t.Fatal("4KB put should cost more than 8B put")
	}
	// The paper's claim: both designs within a few percent once amortized.
	if d := pctDiff(pts[0].PutStatic, pts[0].PutOD); d > 10 {
		t.Fatalf("put designs differ by %.1f%%", d)
	}
}

func TestLinearProject(t *testing.T) {
	pts := []PeerPoint{{N: 1, Endpoints: 3}, {N: 2, Endpoints: 5}, {N: 3, Endpoints: 7}}
	if got := linearProject(pts, 10); got < 20.9 || got > 21.1 {
		t.Fatalf("projection = %v, want 21", got)
	}
	if got := linearProject(nil, 10); got != 0 {
		t.Fatalf("empty projection = %v", got)
	}
}

func TestIsSquare(t *testing.T) {
	for n, want := range map[int]bool{1: true, 4: true, 16: true, 64: true, 2: false, 15: false} {
		if isSquare(n) != want {
			t.Fatalf("isSquare(%d) != %v", n, want)
		}
	}
}
