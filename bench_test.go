// Benchmarks regenerating each of the paper's tables and figures at
// CI-friendly scales (cmd/reproduce runs the full sweeps). Each benchmark
// reports the figure's headline quantity as custom metrics in virtual time,
// alongside the usual real-time cost of simulating it.
package main

import (
	"testing"

	"goshmem/internal/apps/nas"
	"goshmem/internal/bench"
	"goshmem/internal/gasnet"
)

// BenchmarkFig1InitBreakdownStatic regenerates Figure 1: the static design's
// start_pes breakdown; reported metrics are the dominant buckets at N=128.
func BenchmarkFig1InitBreakdownStatic(b *testing.B) {
	var pts []bench.BreakdownPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.InitBreakdown(gasnet.Static, []int{128}, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].ConnectionSetup, "conn-setup-s")
	b.ReportMetric(pts[0].PMIExchange, "pmi-s")
	b.ReportMetric(pts[0].Total, "total-s")
}

// BenchmarkFig5bInitBreakdownOnDemand regenerates Figure 5(b).
func BenchmarkFig5bInitBreakdownOnDemand(b *testing.B) {
	var pts []bench.BreakdownPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.InitBreakdown(gasnet.OnDemand, []int{128}, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].ConnectionSetup, "conn-setup-s")
	b.ReportMetric(pts[0].PMIExchange, "pmi-s")
	b.ReportMetric(pts[0].Total, "total-s")
}

// BenchmarkFig5aStartup regenerates Figure 5(a) at N=256: start_pes and
// Hello World times for both designs, plus the speedups.
func BenchmarkFig5aStartup(b *testing.B) {
	var pts []bench.StartupPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.Startup([]int{256}, 16, 256)
		if err != nil {
			b.Fatal(err)
		}
	}
	p := pts[0]
	b.ReportMetric(p.InitStatic, "init-static-s")
	b.ReportMetric(p.InitOnDemand, "init-ondemand-s")
	b.ReportMetric(p.InitStatic/p.InitOnDemand, "init-speedup")
	b.ReportMetric(p.HelloStatic/p.HelloOnDemand, "hello-speedup")
}

// BenchmarkFig6PutGetLatency regenerates Figure 6(a)/(b) at 8 B and 64 KiB.
func BenchmarkFig6PutGetLatency(b *testing.B) {
	var pts []bench.LatencyPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.PutGetLatency([]int{8, 65536}, 100)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].PutStatic, "put8-static-us")
	b.ReportMetric(pts[0].PutOD, "put8-ondemand-us")
	b.ReportMetric(pts[0].GetStatic, "get8-static-us")
	b.ReportMetric(pts[0].GetOD, "get8-ondemand-us")
}

// BenchmarkFig6Atomics regenerates Figure 6(c).
func BenchmarkFig6Atomics(b *testing.B) {
	var pts []bench.AtomicPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.AtomicLatency(200)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.OnDemand, p.Op+"-us")
	}
}

// BenchmarkFig7Collectives regenerates Figure 7(a)/(b) at 64 PEs, 256 B.
func BenchmarkFig7Collectives(b *testing.B) {
	var pts []bench.CollPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.CollectiveLatency(64, []int{256}, 5, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].CollectOD, "collect-us")
	b.ReportMetric(pts[0].ReduceOD, "reduce-us")
	b.ReportMetric(pts[0].CollectOD/pts[0].ReduceOD, "dense-sparse-ratio")
}

// BenchmarkFig7Barrier regenerates Figure 7(c) at 64 PEs.
func BenchmarkFig7Barrier(b *testing.B) {
	var pts []bench.BarrierPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.BarrierLatency([]int{64}, 10, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Static, "barrier-static-us")
	b.ReportMetric(pts[0].OnDemand, "barrier-ondemand-us")
}

// BenchmarkFig8aNAS regenerates Figure 8(a) at 16 PEs, class S.
func BenchmarkFig8aNAS(b *testing.B) {
	var pts []bench.NASPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.NASExecution(16, 8, nas.ClassA)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.ImprovementPct, p.App+"-improv-pct")
	}
}

// BenchmarkFig8bGraph500 regenerates Figure 8(b) at 16 PEs.
func BenchmarkFig8bGraph500(b *testing.B) {
	var pts []bench.G500Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.Graph500Execution([]int{16}, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Static, "static-s")
	b.ReportMetric(pts[0].OnDemand, "ondemand-s")
	b.ReportMetric(pts[0].DiffPct, "diff-pct")
}

// BenchmarkTable1Peers regenerates Table I at 64 PEs.
func BenchmarkTable1Peers(b *testing.B) {
	var pts []bench.PeerPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.PeersAt(64, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.AvgPeers, p.App+"-peers")
	}
}

// BenchmarkFig9Endpoints regenerates Figure 9 (sizes 16/64/256, projection
// to 1024) and reports the endpoint reduction for 2D-Heat.
func BenchmarkFig9Endpoints(b *testing.B) {
	var series map[string][]bench.PeerPoint
	var proj map[string]float64
	for i := 0; i < b.N; i++ {
		var err error
		series, proj, err = bench.ResourceUsage([]int{16, 64, 256}, 8, 1024)
		if err != nil {
			b.Fatal(err)
		}
	}
	for name, pts := range series {
		last := pts[len(pts)-1]
		b.ReportMetric(last.Endpoints, name+"-ep256")
		b.ReportMetric((1-last.Endpoints/last.StaticEP)*100, name+"-reduction-pct")
	}
	_ = proj
}

// BenchmarkAblationPiggyback compares first-communication latency with and
// without the piggybacked segment exchange (section IV-C ablation).
func BenchmarkAblationPiggyback(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Ablations(16, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Unit == "us" {
			b.ReportMetric(r.Value, metricName(r.Name)+"-us")
		}
	}
}

// metricName compresses a human-readable ablation row name into a metric
// unit token (no whitespace allowed by testing.B).
func metricName(s string) string {
	out := make([]rune, 0, 44)
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ' || r == ',' || r == '-':
			if len(out) > 0 && out[len(out)-1] != '-' {
				out = append(out, '-')
			}
		}
		if len(out) >= 44 {
			break
		}
	}
	return string(out)
}
