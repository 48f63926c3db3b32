package obs

import (
	"reflect"
	"strings"
	"testing"
)

// connEvent builds one gasnet-layer conn-* instant.
func connEvent(vt int64, rank int, kind string, peer int) Event {
	return Event{VT: vt, Rank: rank, Layer: LayerGasnet, Kind: kind, Peer: peer}
}

func TestBuildConnTimelines(t *testing.T) {
	evs := []Event{
		// Pair 0->1: initiate, ready, evict, reconnect, ready again.
		connEvent(100, 0, "conn-initiate", 1),
		connEvent(400, 0, "conn-ready-client", 1),
		connEvent(900, 0, "conn-evict", 1),
		connEvent(1200, 0, "conn-initiate", 1),
		connEvent(1300, 0, "conn-retransmit", 1),
		connEvent(1600, 0, "conn-ready-client", 1),
		// Pair 1->0: server side.
		connEvent(250, 1, "conn-req-served", 0),
		connEvent(400, 1, "conn-ready-server", 0),
		// Noise the reducer must ignore: spans, other layers, peerless events.
		{VT: 100, Rank: 0, Layer: LayerGasnet, Kind: "connect", Peer: 1, Dur: 300},
		{VT: 500, Rank: 0, Layer: LayerIB, Kind: "conn-initiate", Peer: 1},
		{VT: 600, Rank: 0, Layer: LayerGasnet, Kind: "conn-initiate", Peer: -1},
	}
	tls := BuildConnTimelines(evs)
	if len(tls) != 2 {
		t.Fatalf("got %d timelines, want 2: %+v", len(tls), tls)
	}
	c := tls[0] // (0,1) sorts first
	if c.Rank != 0 || c.Peer != 1 {
		t.Fatalf("first timeline pair = %d->%d", c.Rank, c.Peer)
	}
	wantStates := []TimelinePoint{
		{100, "initiate"}, {400, "ready-client"}, {900, "evict"},
		{1200, "initiate"}, {1300, "retransmit"}, {1600, "ready-client"},
	}
	if !reflect.DeepEqual(c.States, wantStates) {
		t.Fatalf("0->1 states: %+v", c.States)
	}
	s := tls[1]
	if s.Rank != 1 || s.Peer != 0 ||
		!reflect.DeepEqual(s.States, []TimelinePoint{{250, "req-served"}, {400, "ready-server"}}) {
		t.Fatalf("1->0 timeline: %+v", s)
	}
}

func TestSynthConnSpans(t *testing.T) {
	tls := BuildConnTimelines([]Event{
		connEvent(100, 0, "conn-initiate", 1),
		connEvent(400, 0, "conn-ready-client", 1),
		connEvent(900, 0, "conn-evict", 1),
		connEvent(1200, 0, "conn-initiate", 1),
		connEvent(1600, 0, "conn-ready-client", 1),
		// no eviction after the second establish: live at job end
	})
	if len(tls) != 1 {
		t.Fatalf("timelines: %+v", tls)
	}
	spans := synthConnSpans(&tls[0])
	want := []connSpan{
		{"conn-handshake", 100, 400},
		{"conn-live", 400, 900},
		{"conn-episode", 100, 900},
		{"conn-handshake", 1200, 1600}, // open episode: handshake only
	}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("spans: %+v\nwant: %+v", spans, want)
	}

	// A handshake that never completed synthesizes nothing.
	tls = BuildConnTimelines([]Event{connEvent(100, 0, "conn-initiate", 1)})
	if spans := synthConnSpans(&tls[0]); len(spans) != 0 {
		t.Fatalf("incomplete handshake synthesized spans: %+v", spans)
	}
}

// TestBuildConnTimelinesEvictionRacesHandshake covers the eviction-vs-
// reconnect race: the LRU evicts a pair at the same virtual time its owner's
// next handshake event lands. The reducer must not lose either event, must
// and must order same-VT states deterministically (by state name).
func TestBuildConnTimelinesEvictionRacesHandshake(t *testing.T) {
	evs := []Event{
		connEvent(100, 0, "conn-initiate", 1),
		connEvent(400, 0, "conn-ready-client", 1),
		// Eviction and the reconnect's initiate land on the same VT tick.
		connEvent(900, 0, "conn-evict", 1),
		connEvent(900, 0, "conn-initiate", 1),
		connEvent(1300, 0, "conn-ready-client", 1),
	}
	// The reducer accepts any input order; feed it the racy order reversed.
	rev := make([]Event, len(evs))
	for i := range evs {
		rev[len(evs)-1-i] = evs[i]
	}
	a, b := BuildConnTimelines(evs), BuildConnTimelines(rev)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("timelines depend on input order:\n%+v\nvs\n%+v", a, b)
	}
	tl := a[0]
	// Same-VT transitions sort by state name: evict before initiate.
	want := []TimelinePoint{
		{100, "initiate"}, {400, "ready-client"},
		{900, "evict"}, {900, "initiate"}, {1300, "ready-client"},
	}
	if !reflect.DeepEqual(tl.States, want) {
		t.Fatalf("racy eviction states: %+v", tl.States)
	}
}

// TestBuildConnTimelinesReconnectWithoutEstablish covers streams whose
// beginning is missing (ring truncation, or a server that only ever saw the
// reconnect): a ready with no prior initiate, or an evict with no prior
// ready. The timeline holds exactly the observed states, nothing inferred.
func TestBuildConnTimelinesReconnectWithoutEstablish(t *testing.T) {
	// Evict-first: the establishment predates the captured window.
	tls := BuildConnTimelines([]Event{
		connEvent(900, 0, "conn-evict", 1),
		connEvent(1200, 0, "conn-initiate", 1),
		connEvent(1600, 0, "conn-ready-client", 1),
	})
	if len(tls) != 1 {
		t.Fatalf("timelines: %+v", tls)
	}
	want := []TimelinePoint{{900, "evict"}, {1200, "initiate"}, {1600, "ready-client"}}
	if !reflect.DeepEqual(tls[0].States, want) {
		t.Fatalf("evict-first window states: %+v", tls[0].States)
	}

	// Ready-only: not even the reconnect's initiate survived truncation.
	tls = BuildConnTimelines([]Event{connEvent(1600, 3, "conn-ready-server", 7)})
	want = []TimelinePoint{{1600, "ready-server"}}
	if len(tls) != 1 || tls[0].Rank != 3 || tls[0].Peer != 7 || !reflect.DeepEqual(tls[0].States, want) {
		t.Fatalf("ready-only window: %+v", tls)
	}
}

// TestBuildConnTimelinesTruncatedRing drives a real plane with a ring small
// enough to overflow: the reducer must work from the surviving suffix of the
// stream, and the plane's dropped-event counter must make the truncation
// visible so a consumer never mistakes a partial timeline for a complete one.
func TestBuildConnTimelinesTruncatedRing(t *testing.T) {
	pl := NewPlane(1, Config{Events: true, RingCap: 4})
	pe := pl.PE(0)
	// Ten full lifecycles; only the last 4 events fit the ring.
	for i := 0; i < 10; i++ {
		base := int64(1000 * (i + 1))
		pe.Emit(base, LayerGasnet, "conn-initiate", 1, 0)
		pe.Emit(base+100, LayerGasnet, "conn-ready-client", 1, 0)
		pe.Emit(base+500, LayerGasnet, "conn-evict", 1, 0)
	}
	if pl.Dropped() != 30-4 {
		t.Fatalf("dropped = %d, want %d", pl.Dropped(), 30-4)
	}
	tls := BuildConnTimelines(pl.Events())
	if len(tls) != 1 {
		t.Fatalf("timelines: %+v", tls)
	}
	tl := tls[0]
	// Surviving window: evict@9500, initiate@10000, ready@10100, evict@10500.
	want := []TimelinePoint{
		{9500, "evict"}, {10000, "initiate"}, {10100, "ready-client"}, {10500, "evict"},
	}
	if !reflect.DeepEqual(tl.States, want) {
		t.Fatalf("truncated states: %+v", tl.States)
	}
}

// TestPerfettoConnTracks checks the exporter materializes per-peer conn
// tracks: a thread-name metadata row at tid base+peer and the synthesized
// handshake/live/episode slices, only for pairs that completed a handshake.
func TestPerfettoConnTracks(t *testing.T) {
	pl := NewPlane(2, Config{Events: true})
	p0 := pl.PE(0)
	p0.Emit(1000, LayerGasnet, "conn-initiate", 1, 0)
	p0.Emit(2000, LayerGasnet, "conn-ready-client", 1, 0)
	p0.Emit(5000, LayerGasnet, "conn-evict", 1, 0)
	// PE 1 only initiated; no completed handshake, so no conn track.
	pl.PE(1).Emit(1000, LayerGasnet, "conn-initiate", 0, 0)

	var sb strings.Builder
	if err := pl.WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"tid":17,"name":"thread_name","args":{"name":"conn peer 1"}`) {
		t.Fatalf("missing conn-track metadata for PE 0 peer 1:\n%s", out)
	}
	for _, name := range []string{"conn-handshake", "conn-live", "conn-episode"} {
		if !strings.Contains(out, `"name":"`+name+`"`) {
			t.Fatalf("missing synthesized %s slice:\n%s", name, out)
		}
	}
	if strings.Contains(out, `"name":"conn peer 0"`) {
		t.Fatalf("PE 1 got a conn track without a completed handshake:\n%s", out)
	}
}
