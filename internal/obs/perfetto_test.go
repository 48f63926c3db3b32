package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"testing"
)

// buildTestPlane assembles a tiny fixed scenario: 2 PEs, a couple of
// spans, instants, attrs, and a startup phase.
func buildTestPlane() *Plane {
	pl := NewPlane(2, Config{Events: true})
	p0, p1 := pl.PE(0), pl.PE(1)
	p0.Span(0, 1500, LayerShmem, "init:pmi-exchange", -1, 0)
	p0.Emit(2000, LayerGasnet, "conn-initiate", 1, 0)
	p0.Span(2000, 5250, LayerGasnet, "connect", 1, 0)
	p0.Span(6000, 6800, LayerShmem, "put", 1, 4096, Attr{Key: "class", Val: "one-sided"})
	p1.Emit(2400, LayerGasnet, "conn-req-served", 0, 0)
	p1.Emit(3000, LayerIB, "fault-drop", 0, 40, Attr{Key: "msg", Val: "conn-req"})
	return pl
}

// perfettoGolden pins the exporter's byte-exact output: stable field
// ordering, metadata records first, events in Events order, VT-derived
// microsecond timestamps. If you change the exporter intentionally, update
// this string and re-check the file loads in ui.perfetto.dev.
const perfettoGolden = `{"traceEvents":[{"ph":"M","pid":0,"name":"process_name","args":{"name":"PE 0"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"cluster"}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"shmem"}},
{"ph":"M","pid":0,"tid":2,"name":"thread_name","args":{"name":"mpi"}},
{"ph":"M","pid":0,"tid":3,"name":"thread_name","args":{"name":"gasnet"}},
{"ph":"M","pid":0,"tid":4,"name":"thread_name","args":{"name":"pmi"}},
{"ph":"M","pid":0,"tid":5,"name":"thread_name","args":{"name":"ib"}},
{"ph":"M","pid":1,"name":"process_name","args":{"name":"PE 1"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"cluster"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"shmem"}},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"mpi"}},
{"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"gasnet"}},
{"ph":"M","pid":1,"tid":4,"name":"thread_name","args":{"name":"pmi"}},
{"ph":"M","pid":1,"tid":5,"name":"thread_name","args":{"name":"ib"}},
{"ph":"X","pid":0,"tid":1,"ts":0,"dur":1.500,"name":"init:pmi-exchange","args":{}},
{"ph":"i","s":"t","pid":0,"tid":3,"ts":2,"name":"conn-initiate","args":{"peer":1}},
{"ph":"X","pid":0,"tid":3,"ts":2,"dur":3.250,"name":"connect","args":{"peer":1}},
{"ph":"i","s":"t","pid":1,"tid":3,"ts":2.400,"name":"conn-req-served","args":{"peer":0}},
{"ph":"i","s":"t","pid":1,"tid":5,"ts":3,"name":"fault-drop","args":{"peer":0,"bytes":40,"msg":"conn-req"}},
{"ph":"X","pid":0,"tid":1,"ts":6,"dur":0.800,"name":"put","args":{"peer":1,"bytes":4096,"class":"one-sided"}}]}
`

func TestPerfettoGolden(t *testing.T) {
	var sb strings.Builder
	if err := buildTestPlane().WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if got != perfettoGolden {
		t.Fatalf("perfetto output diverged from golden:\n got: %s\nwant: %s", got, perfettoGolden)
	}
}

// buildWidePlane covers what buildTestPlane does not: gauge tracks of every
// placement, incidents inside a PE and in the job process, an unknown layer,
// conn sub-tracks (one of whose synthesized slices a recorded event ties on
// all seven sort keys), an attribute that needs escaping, an overflowed ring
// and two events equal on all seven sort keys.
func buildWidePlane() *Plane {
	pl := NewPlane(3, Config{Events: true, Gauges: true, Incidents: true, RingCap: 8})
	p0, p1, p2 := pl.PE(0), pl.PE(1), pl.PE(2)
	// Rank 0 -> 2: handshake, eviction, then a reconnect still live at the end.
	p0.Emit(1000, LayerGasnet, "conn-initiate", 2, 0)
	p0.Emit(3000, LayerGasnet, "conn-ready-client", 2, 0)
	p0.Span(1000, 3000, layerConn, "conn-handshake", 2, 0, Attr{Key: "recorded", Val: "yes"})
	p0.Emit(9000, LayerGasnet, "conn-evict", 2, 0)
	p0.Emit(10000, LayerGasnet, "conn-reconnect-req", 2, 0)
	p0.Emit(11000, LayerGasnet, "conn-ready-client", 2, 0)
	p0.Emit(4500, "app", "phase", -1, 0, Attr{Key: "note \"k\"", Val: "quote \" slash \\ nl \n tab \t é"})
	// Rank 1: two events equal on every sort key, told apart by attrs only.
	p1.Emit(2000, LayerGasnet, "conn-req-served", 0, 0)
	p1.Emit(5000, LayerShmem, "put", 2, 8, Attr{Key: "seq", Val: "b"})
	p1.Emit(5000, LayerShmem, "put", 2, 8, Attr{Key: "seq", Val: "a"})
	p1.Span(5000, 5001, LayerIB, "rdma", 2, 8)
	// Rank 2 overflows its ring: twelve events with tied keys, newest eight kept.
	for i := 0; i < 12; i++ {
		p2.Emit(int64(7000-100*(i%3)), LayerIB, "poll", -1, 0, Attr{Key: "i", Val: strconv.Itoa(i)})
	}
	p0.Gauge("qp.live").Add(1000, 1)
	p0.Gauge("qp.live").Add(3000, 1)
	p0.Gauge("qp.live").Add(25000, -1)
	p1.Gauge("qp.live").Add(2000, 1)
	gs := pl.Gauges()
	gs.Gauge("job.suspects", InstJob).Add(12000, 2)
	gs.Gauge("job.suspects", InstJob).Add(15000, -2)
	gs.Gauge("hca.pinned", InstHCA(4)).Add(500, 4096)
	gs.Gauge("hca.lid", 5).Add(700, 3) // an instance at/above np
	l := pl.Ledger()
	l.Open("rc", "corrupt", 1, 7, 4000)
	l.CloseAll("rc", nil, 1, 7, 6500, "replayed")
	l.OpenAbsorbed("ud", "dup", 2, 3, 4200, "dedup")
	l.Open("net", "partition", -1, InstJob, 8000)
	l.CloseAll("net", nil, -1, InstJob, 14000, "healed")
	l.OpenAbsorbed("pmi", "slow", -1, InstJob, 9000, "absorbed")
	return pl
}

// perfettoWideGolden is buildWidePlane's export, recorded before the
// exporter was rewritten to sort once and encode with appends.
const perfettoWideGolden = `{"traceEvents":[{"ph":"M","pid":0,"name":"process_name","args":{"name":"PE 0"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"cluster"}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"shmem"}},
{"ph":"M","pid":0,"tid":2,"name":"thread_name","args":{"name":"mpi"}},
{"ph":"M","pid":0,"tid":3,"name":"thread_name","args":{"name":"gasnet"}},
{"ph":"M","pid":0,"tid":4,"name":"thread_name","args":{"name":"pmi"}},
{"ph":"M","pid":0,"tid":5,"name":"thread_name","args":{"name":"ib"}},
{"ph":"M","pid":0,"tid":18,"name":"thread_name","args":{"name":"conn peer 2"}},
{"ph":"M","pid":1,"name":"process_name","args":{"name":"PE 1"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"cluster"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"shmem"}},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"mpi"}},
{"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"gasnet"}},
{"ph":"M","pid":1,"tid":4,"name":"thread_name","args":{"name":"pmi"}},
{"ph":"M","pid":1,"tid":5,"name":"thread_name","args":{"name":"ib"}},
{"ph":"M","pid":1,"tid":15,"name":"thread_name","args":{"name":"incidents"}},
{"ph":"M","pid":2,"name":"process_name","args":{"name":"PE 2"}},
{"ph":"M","pid":2,"tid":0,"name":"thread_name","args":{"name":"cluster"}},
{"ph":"M","pid":2,"tid":1,"name":"thread_name","args":{"name":"shmem"}},
{"ph":"M","pid":2,"tid":2,"name":"thread_name","args":{"name":"mpi"}},
{"ph":"M","pid":2,"tid":3,"name":"thread_name","args":{"name":"gasnet"}},
{"ph":"M","pid":2,"tid":4,"name":"thread_name","args":{"name":"pmi"}},
{"ph":"M","pid":2,"tid":5,"name":"thread_name","args":{"name":"ib"}},
{"ph":"M","pid":2,"tid":15,"name":"thread_name","args":{"name":"incidents"}},
{"ph":"M","pid":3,"name":"process_name","args":{"name":"job"}},
{"ph":"M","pid":3,"tid":15,"name":"thread_name","args":{"name":"incidents"}},
{"ph":"X","pid":0,"tid":18,"ts":1,"dur":8,"name":"conn-episode","args":{"peer":2}},
{"ph":"X","pid":0,"tid":18,"ts":1,"dur":2,"name":"conn-handshake","args":{"peer":2,"recorded":"yes"}},
{"ph":"X","pid":0,"tid":18,"ts":1,"dur":2,"name":"conn-handshake","args":{"peer":2}},
{"ph":"i","s":"t","pid":0,"tid":3,"ts":1,"name":"conn-initiate","args":{"peer":2}},
{"ph":"i","s":"t","pid":1,"tid":3,"ts":2,"name":"conn-req-served","args":{"peer":0}},
{"ph":"X","pid":0,"tid":18,"ts":3,"dur":6,"name":"conn-live","args":{"peer":2}},
{"ph":"i","s":"t","pid":0,"tid":3,"ts":3,"name":"conn-ready-client","args":{"peer":2}},
{"ph":"i","s":"t","pid":0,"tid":9,"ts":4.500,"name":"phase","args":{"note \"k\"":"quote \" slash \\ nl \n tab \t é"}},
{"ph":"X","pid":1,"tid":5,"ts":5,"dur":0.001,"name":"rdma","args":{"peer":2,"bytes":8}},
{"ph":"i","s":"t","pid":1,"tid":1,"ts":5,"name":"put","args":{"peer":2,"bytes":8,"seq":"b"}},
{"ph":"i","s":"t","pid":1,"tid":1,"ts":5,"name":"put","args":{"peer":2,"bytes":8,"seq":"a"}},
{"ph":"i","s":"t","pid":2,"tid":5,"ts":6.800,"name":"poll","args":{"i":"5"}},
{"ph":"i","s":"t","pid":2,"tid":5,"ts":6.800,"name":"poll","args":{"i":"8"}},
{"ph":"i","s":"t","pid":2,"tid":5,"ts":6.800,"name":"poll","args":{"i":"11"}},
{"ph":"i","s":"t","pid":2,"tid":5,"ts":6.900,"name":"poll","args":{"i":"4"}},
{"ph":"i","s":"t","pid":2,"tid":5,"ts":6.900,"name":"poll","args":{"i":"7"}},
{"ph":"i","s":"t","pid":2,"tid":5,"ts":6.900,"name":"poll","args":{"i":"10"}},
{"ph":"i","s":"t","pid":2,"tid":5,"ts":7,"name":"poll","args":{"i":"6"}},
{"ph":"i","s":"t","pid":2,"tid":5,"ts":7,"name":"poll","args":{"i":"9"}},
{"ph":"i","s":"t","pid":0,"tid":3,"ts":9,"name":"conn-evict","args":{"peer":2}},
{"ph":"X","pid":0,"tid":18,"ts":10,"dur":1,"name":"conn-handshake","args":{"peer":2}},
{"ph":"i","s":"t","pid":0,"tid":3,"ts":10,"name":"conn-reconnect-req","args":{"peer":2}},
{"ph":"i","s":"t","pid":0,"tid":3,"ts":11,"name":"conn-ready-client","args":{"peer":2}},
{"ph":"C","pid":5,"ts":9.999,"name":"hca.lid","args":{"value":3}},
{"ph":"C","pid":3,"ts":9.999,"name":"hca.pinned/hca4","args":{"value":4096}},
{"ph":"C","pid":3,"ts":19.999,"name":"job.suspects","args":{"value":0}},
{"ph":"C","pid":0,"ts":9.999,"name":"qp.live","args":{"value":2}},
{"ph":"C","pid":0,"ts":29.999,"name":"qp.live","args":{"value":1}},
{"ph":"C","pid":1,"ts":9.999,"name":"qp.live","args":{"value":1}},
{"ph":"X","pid":1,"tid":15,"ts":4,"dur":2.500,"name":"rc/corrupt","args":{"state":"closed","inst":7}},
{"ph":"i","s":"t","pid":2,"tid":15,"ts":4.200,"name":"ud/dup","args":{"state":"closed","inst":3}},
{"ph":"X","pid":3,"tid":15,"ts":8,"dur":6,"name":"net/partition","args":{"state":"closed","inst":-1}},
{"ph":"i","s":"t","pid":3,"tid":15,"ts":9,"name":"pmi/slow","args":{"state":"closed","inst":-1}}]}
`

func TestPerfettoWideGolden(t *testing.T) {
	var sb strings.Builder
	if err := buildWidePlane().WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != perfettoWideGolden {
		t.Fatalf("perfetto output diverged from golden:\n got: %s\nwant: %s", got, perfettoWideGolden)
	}
}

func TestPerfettoIsValidJSON(t *testing.T) {
	var sb strings.Builder
	if err := buildTestPlane().WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v", err)
	}
	// 14 metadata records (2 PEs × 7) + 6 events.
	if len(doc.TraceEvents) != 20 {
		t.Fatalf("traceEvents len = %d, want 20", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		if ph == "" {
			t.Fatalf("event missing ph: %v", e)
		}
	}
}

func TestPerfettoDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := buildTestPlane().WritePerfetto(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildTestPlane().WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two identical planes exported different bytes")
	}
}

func TestPerfettoEmptyPlane(t *testing.T) {
	var sb strings.Builder
	var pl *Plane
	if err := pl.WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(sb.String())) {
		t.Fatalf("empty export invalid JSON: %q", sb.String())
	}
}

// TestWritePerfettoAllocsFlat: the export allocates per plane, not per
// record, so four times the events cost no more allocations. (The slack is
// the timeline maps': how often a map grows varies with its hash seed.)
func TestWritePerfettoAllocsFlat(t *testing.T) {
	allocs := func(perPE int) float64 {
		pl := tracePlane(8, perPE)
		return testing.AllocsPerRun(3, func() {
			if err := pl.WritePerfetto(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := allocs(1250), allocs(5000); big > small+small/100 {
		t.Fatalf("WritePerfetto allocates %.0f times for 10k events but %.0f for 40k", small, big)
	}
}
