package bench

import (
	"testing"

	"goshmem/internal/gasnet"
)

// The paper's headline shapes, asserted at small scale so regressions in
// the runtime or cost model are caught by `go test` long before anyone
// re-runs the full sweeps.

// fig1 folds a startup-phase point into Figure 1's buckets and total,
// averaged over PEs in seconds.
func fig1(p PhasePoint) (conn, pmi, memreg, total float64) {
	b := p.sum.Fig1()
	return avgSec(b[0], p.N), avgSec(b[1], p.N), avgSec(b[2], p.N), avgSec(p.sum.Total(), p.N)
}

func TestShapeOnDemandInitConstant(t *testing.T) {
	pts, err := StartupPhases(gasnet.OnDemand, []int{8, 32, 64}, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, base := fig1(pts[0])
	for _, p := range pts {
		conn, pmi, _, total := fig1(p)
		if diff := (total - base) / base; diff > 0.02 || diff < -0.02 {
			t.Fatalf("on-demand init not constant: %.4f at N=%d vs %.4f at N=%d",
				total, p.N, base, pts[0].N)
		}
		if conn > 0.001 || pmi > 0.001 {
			t.Fatalf("on-demand init spends time in conn/PMI at N=%d: %+v", p.N, p.AvgSec)
		}
	}
}

func TestShapeStaticInitGrows(t *testing.T) {
	pts, err := StartupPhases(gasnet.Static, []int{8, 32, 64}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		conn, _, _, total := fig1(pts[i])
		prevConn, _, _, prevTotal := fig1(pts[i-1])
		if total <= prevTotal {
			t.Fatalf("static init not growing: %.4f at N=%d vs %.4f at N=%d",
				total, pts[i].N, prevTotal, pts[i-1].N)
		}
		if conn <= prevConn {
			t.Fatalf("static conn setup not growing with N")
		}
	}
	// Registration is independent of job size.
	_, _, first, _ := fig1(pts[0])
	_, _, last, _ := fig1(pts[len(pts)-1])
	if d := pctDiff(first, last); d > 1 {
		t.Fatalf("memory registration should be constant: %.1f%% drift", d)
	}
}

func TestShapePutLatencyModeParity(t *testing.T) {
	pts, err := PutGetLatency([]int{8, 65536}, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if d := pctDiff(p.PutStatic, p.PutOD); d > 3 {
			t.Fatalf("put designs differ by %.1f%% at %dB (paper bound: 3%%)", d, p.Size)
		}
		if d := pctDiff(p.GetStatic, p.GetOD); d > 3 {
			t.Fatalf("get designs differ by %.1f%% at %dB", d, p.Size)
		}
	}
}

func TestShapeAtomicsModeParity(t *testing.T) {
	pts, err := AtomicLatency(100)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if d := pctDiff(p.Static, p.OnDemand); d > 3 {
			t.Fatalf("%s differs by %.1f%%", p.Op, d)
		}
	}
}

func TestShapeEndpointSavingsAtSmallScale(t *testing.T) {
	series, proj, err := ResourceUsage([]int{16, 64}, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	for name, pts := range series {
		last := pts[len(pts)-1]
		reduction := 1 - last.Endpoints/last.StaticEP
		if reduction < 0.5 {
			t.Errorf("%s: only %.0f%% endpoint reduction at N=64", name, reduction*100)
		}
		if proj[name] <= 0 {
			t.Errorf("%s: non-positive projection", name)
		}
	}
}

func TestShapeBandwidthSaturates(t *testing.T) {
	pts, err := PutBandwidth([]int{512, 65536}, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].OnDemandMBps <= pts[0].OnDemandMBps {
		t.Fatalf("large-message bandwidth (%.0f) should exceed small (%.0f)",
			pts[1].OnDemandMBps, pts[0].OnDemandMBps)
	}
	// 64 KiB puts should approach the modeled 3.5 GB/s wire.
	if pts[1].OnDemandMBps < 1500 {
		t.Fatalf("64KiB bandwidth %.0f MiB/s suspiciously low", pts[1].OnDemandMBps)
	}
	if d := pctDiff(pts[1].StaticMBps, pts[1].OnDemandMBps); d > 3 {
		t.Fatalf("bandwidth differs %.1f%% between designs", d)
	}
}

func TestShapeGraph500Parity(t *testing.T) {
	pts, err := Graph500Execution([]int{16}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].DiffPct > 3 {
		t.Fatalf("hybrid graph500 differs %.1f%% at 16 PEs", pts[0].DiffPct)
	}
}

func TestShapeCreditStallTaxGrows(t *testing.T) {
	pts, err := CreditStallLatency([]int{0, 4, 1}, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	free, tight, tighter := pts[0], pts[1], pts[2]
	if free.CreditStalls != 0 || free.RNRNaks != 0 {
		t.Fatalf("unbounded RQ reported backpressure: %+v", free)
	}
	if tight.CreditStalls == 0 && tight.RNRNaks == 0 {
		t.Fatalf("depth-4 RQ reported no backpressure: %+v", tight)
	}
	if tight.BurstPutNS <= free.BurstPutNS {
		t.Fatalf("depth-4 burst latency %.1f not above unbounded %.1f",
			tight.BurstPutNS, free.BurstPutNS)
	}
	if tighter.BurstPutNS <= tight.BurstPutNS {
		t.Fatalf("depth-1 burst latency %.1f not above depth-4 %.1f",
			tighter.BurstPutNS, tight.BurstPutNS)
	}
}
