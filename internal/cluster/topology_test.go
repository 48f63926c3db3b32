package cluster

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
)

// TestReportCarriesSchemaAndTopology pins the JSON report's shape with Flows
// on: one topology row per PE, a non-empty waste attribution, and the schema
// version and topology section in the written JSON.
func TestReportCarriesSchemaAndTopology(t *testing.T) {
	res, err := Run(Config{
		NP: 16, PPN: 8, Mode: gasnet.OnDemand, HeapSize: 1 << 16,
		Obs: obs.Config{Flows: true},
	}, ringApp(3, 512))
	if err != nil {
		t.Fatal(err)
	}
	top := BuildTopology(res)
	if top == nil {
		t.Fatal("no topology despite Flows enabled")
	}
	if len(top.PEs) != 16 {
		t.Fatalf("topology has %d PEs, want 16", len(top.PEs))
	}
	if top.QPsEstablished == 0 || top.QPsUsed == 0 {
		t.Errorf("waste attribution empty: est=%d used=%d", top.QPsEstablished, top.QPsUsed)
	}

	// The JSON report carries the schema version and the topology section.
	rep := BuildReport(res)
	if rep.SchemaVersion != ReportSchemaVersion || rep.Topology == nil {
		t.Fatalf("report: schema_version=%d topology=%v", rep.SchemaVersion, rep.Topology)
	}
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(sb.String()), &raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["schema_version"]) != "1" {
		t.Errorf("schema_version in JSON = %s", raw["schema_version"])
	}
	if _, ok := raw["topology"]; !ok {
		t.Error("topology section missing from JSON report")
	}
}

// TestTopologyNilWithoutFlows pins the gating: no Flows, no topology
// section, and the text view degrades gracefully.
func TestTopologyNilWithoutFlows(t *testing.T) {
	res, err := Run(Config{NP: 4, PPN: 2, Mode: gasnet.OnDemand, HeapSize: 1 << 16},
		ringApp(1, 64))
	if err != nil {
		t.Fatal(err)
	}
	if top := BuildTopology(res); top != nil {
		t.Fatalf("topology built without flows: %+v", top)
	}
	if rep := BuildReport(res); rep.Topology != nil {
		t.Fatal("report has topology section without flows")
	}
	var sb strings.Builder
	WriteTopologyText(&sb, res)
	if !strings.Contains(sb.String(), "no flow matrix recorded") {
		t.Fatalf("text view: %q", sb.String())
	}
}

// fanApp drives connection churn from a single client: rank 0 puts to every
// server in turn for several rounds, so a small live-QP cap forces serial
// LRU evictions and reconnects with fully deterministic recency order.
func fanApp(rounds, blockSize int) func(c *shmem.Ctx) {
	return func(c *shmem.Ctx) {
		buf := c.Malloc(blockSize)
		src := make([]byte, blockSize)
		if c.Me() == 0 {
			for r := 0; r < rounds; r++ {
				src[0] = byte(r)
				for p := 1; p < c.NPEs(); p++ {
					c.PutMem(buf, src, p)
					c.Quiet()
				}
			}
		}
		c.BarrierAll()
	}
}

// TestFlowTelemetryByteIdentical is the tentpole determinism invariant: a
// 33-PE fan run must produce byte-identical flow matrices (control column
// included), topology reductions, rendered heatmaps and lifecycle timelines
// across two identical runs — goroutine scheduling must not leak
// into any of them. No QP cap here: without one, every conn event is
// demand-driven at virtual times that are a pure function of the schedule
// (the cap's eviction decisions, by contrast, sample the adapter's live-QP
// count in real time; see TestFlowChurnDataPlaneStable). The PE count is
// odd on purpose: at even np the dissemination barrier's distance-np/2
// round makes both sides of a pair demand the connection simultaneously,
// and which side wins that real-time collision (client vs server role, and
// with it the ctrl column and the timeline) is schedule-dependent. At odd
// np no barrier distance is self-inverse, so every pair's second demand is
// causally ordered behind the first establishment.
func TestFlowTelemetryByteIdentical(t *testing.T) {
	render := func(res *Result) ([][]obs.FlowEdge, *TopologyReport, string, []obs.ConnTimeline) {
		var heat strings.Builder
		obs.WriteHeatmap(&heat, res.Cfg.NP, res.FlowMatrix())
		return res.FlowMatrix(), BuildTopology(res), heat.String(), obs.BuildConnTimelines(res.Obs.Events())
	}
	resA, resB := runTwice(t, Config{
		NP: 33, PPN: 1, Mode: gasnet.OnDemand, HeapSize: 1 << 16,
		Obs: obs.Config{Events: true, Flows: true},
	}, fanApp(2, 256))
	matA, topA, heatA, tlA := render(resA)
	matB, topB, heatB, tlB := render(resB)
	defer func() {
		if t.Failed() {
			t.Log(firstDivergence(resA, resB))
		}
	}()

	if !reflect.DeepEqual(matA, matB) {
		t.Error("flow matrices differ across identical runs")
	}
	if !reflect.DeepEqual(topA, topB) {
		t.Error("topology reductions differ across identical runs")
	}
	if heatA != heatB {
		t.Error("heatmap renders differ across identical runs")
	}
	if len(tlA) == 0 {
		t.Fatal("empty lifecycle timeline")
	}
	if !reflect.DeepEqual(tlA, tlB) {
		t.Error("lifecycle timelines differ across identical runs")
	}
	// Rank 0 reaches its farthest server, and some pair completes a client
	// handshake.
	farthest, clientReady := false, false
	for _, tl := range tlA {
		farthest = farthest || tl.Rank == 0 && tl.Peer == 32
		clientReady = clientReady || slices.ContainsFunc(tl.States,
			func(s obs.TimelinePoint) bool { return s.State == "ready-client" })
	}
	if !farthest || !clientReady {
		t.Errorf("timeline missing expected pairs: 0->32 %v, ready-client %v", farthest, clientReady)
	}
}

// TestFlowChurnDataPlaneStable pins eviction transparency in the matrix: a
// QP cap small enough to force eviction/reconnect churn must not change the
// data-plane flow matrix or the degree distribution — churn adds control
// traffic and lifecycle events, never application traffic. The eviction
// *timing* is legitimately schedule-dependent (the cap samples the
// adapter's live-QP count in real time), so the control column and the
// timelines are checked for shape, not byte-compared.
func TestFlowChurnDataPlaneStable(t *testing.T) {
	run := func(cap int) *Result {
		res, err := Run(Config{
			NP: 32, PPN: 1, Mode: gasnet.OnDemand, HeapSize: 1 << 16,
			MaxLiveRC: cap,
			Obs:       obs.Config{Events: true, Flows: true},
		}, fanApp(3, 256))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	uncapped := run(0)
	capped := run(8)

	if capped.Counters().Evictions == 0 {
		t.Fatal("no evictions under the QP cap; the churn leg tested nothing")
	}
	want := dataOnly(uncapped.FlowMatrix())
	if got := dataOnly(capped.FlowMatrix()); !reflect.DeepEqual(got, want) {
		t.Error("data-plane matrix changed under QP-cap churn")
	}
	ut, ct := BuildTopology(uncapped), BuildTopology(capped)
	if ut.Degree != ct.Degree {
		t.Errorf("degree distribution changed under churn: %+v vs %+v", ut.Degree, ct.Degree)
	}
	// Churn must be visible in the lifecycle view: evictions and at least
	// one pair established more than once.
	evicts, recon := 0, 0
	for _, tl := range obs.BuildConnTimelines(capped.Obs.Events()) {
		ready := 0
		for _, s := range tl.States {
			switch s.State {
			case "evict":
				evicts++
			case "ready-client", "ready-server":
				ready++
			}
		}
		if ready > 1 {
			recon++
		}
	}
	if evicts == 0 {
		t.Error("timeline shows no evictions")
	}
	if recon == 0 {
		t.Error("no pair re-established after eviction")
	}
	// The capped run established more connections than pair-slots that
	// carried data — the waste/churn attribution the report surfaces.
	if ct.QPsEstablished <= ut.QPsEstablished {
		t.Errorf("churn not visible in QPsEstablished: capped %d <= uncapped %d",
			ct.QPsEstablished, ut.QPsEstablished)
	}
}

// dataOnly copies a flow matrix with the control column zeroed: under
// probabilistic fabric faults the control-datagram counts legitimately vary
// (retransmissions are timer-driven), while the data-plane counts are a pure
// function of the application schedule.
func dataOnly(mat [][]obs.FlowEdge) [][]obs.FlowEdge {
	out := make([][]obs.FlowEdge, len(mat))
	for r, edges := range mat {
		for _, e := range edges {
			e.Cells[obs.FlowCtrl] = obs.FlowCell{}
			if e.TotalOps() == 0 {
				continue // edge carried only control traffic
			}
			out[r] = append(out[r], e)
		}
	}
	return out
}

// TestFlowMatrixDataPlaneStableUnderChaos extends the fault-transparency
// invariant (DESIGN.md section 6) to the flow matrix: the data-plane matrix
// and the degree distribution of a run under drops, duplication, flaps and a
// QP cap must be byte-identical to the fault-free run's — resilience may add
// control traffic and virtual time, never application traffic.
func TestFlowMatrixDataPlaneStableUnderChaos(t *testing.T) {
	run := func(faults *ib.FaultInjector) *Result {
		cfg := Config{
			NP: 16, PPN: 8, Mode: gasnet.OnDemand, HeapSize: 1 << 16,
			Faults: faults,
			Obs:    obs.Config{Flows: true},
		}
		if faults != nil {
			cfg.MaxLiveRC = 20
		}
		res, err := Run(cfg, ringApp(5, 1024))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inject := func() *ib.FaultInjector {
		fi := ib.NewFaultInjector(42)
		fi.DropProb = 0.2
		fi.MaxDrops = 100
		fi.DupProb = 0.1
		fi.FlapProb = 0.05
		fi.MaxFlaps = 8
		return fi
	}

	clean := run(nil)
	faulty1 := run(inject())
	faulty2 := run(inject())

	want := dataOnly(clean.FlowMatrix())
	if got := dataOnly(faulty1.FlowMatrix()); !reflect.DeepEqual(got, want) {
		t.Error("data-plane matrix diverged from the fault-free run under chaos")
	}
	if a, b := dataOnly(faulty1.FlowMatrix()), dataOnly(faulty2.FlowMatrix()); !reflect.DeepEqual(a, b) {
		t.Error("data-plane matrix differs across identical seeded chaos runs")
	}

	ct, f1, f2 := BuildTopology(clean), BuildTopology(faulty1), BuildTopology(faulty2)
	if ct.Degree != f1.Degree || f1.Degree != f2.Degree {
		t.Errorf("degree distributions diverged: clean %+v faulty %+v %+v",
			ct.Degree, f1.Degree, f2.Degree)
	}
	if faulty1.Counters().LinkFaults == 0 && faulty1.Counters().Retransmits == 0 {
		t.Error("chaos leg injected nothing; the comparison tested nothing")
	}
}
