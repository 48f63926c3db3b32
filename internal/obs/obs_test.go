package obs

import (
	"reflect"
	"testing"
)

func TestNopIsSafe(t *testing.T) {
	var p *PE // == Nop
	p.Emit(1, LayerGasnet, "x", 2, 3)
	p.Span(1, 2, LayerShmem, "y", -1, 0)
	p.InitPhase("pmi", 0, 10)
	p.Count("c", 1)
	p.Observe("h", 5)
	if p.Active() || p.EventsEnabled() {
		t.Fatal("nil PE reports active")
	}
	if p.Counter("c") != nil || p.Hist("h") != nil {
		t.Fatal("nil PE returned live metrics")
	}
	if p.Rank() != -1 || len(p.Phases()) != 0 {
		t.Fatal("nil PE leaked state")
	}
	var c *Counter
	c.Add(1)
	c.Inc()
	if c.Value() != 0 || c.Name() != "" {
		t.Fatal("nil counter leaked state")
	}
	var h *Hist
	h.Record(10)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil hist leaked state")
	}
	var pl *Plane
	if pl.PE(0) != Nop || pl.Events() != nil || pl.Registry() != nil || pl.Dropped() != 0 {
		t.Fatal("nil plane leaked state")
	}
}

func TestMetricsOnlyPlaneRecordsNoEvents(t *testing.T) {
	pl := NewPlane(2, Config{Metrics: true})
	pe := pl.PE(0)
	if pe.EventsEnabled() {
		t.Fatal("metrics-only plane claims events enabled")
	}
	if !pe.Active() {
		t.Fatal("metrics-only plane claims inactive")
	}
	pe.Emit(1, LayerGasnet, "x", -1, 0)
	if len(pl.Events()) != 0 {
		t.Fatal("metrics-only plane recorded an event")
	}
	pe.Count("a.b", 3)
	pe.Count("a.b", 4)
	cs := pl.Registry().Counters()
	if len(cs) != 1 || cs[0].Name != "a.b" || cs[0].Value != 7 {
		t.Fatalf("counter snapshot wrong: %+v", cs)
	}
}

func TestRingOverflowKeepsNewest(t *testing.T) {
	pl := NewPlane(1, Config{Events: true, RingCap: 4})
	pe := pl.PE(0)
	for i := 0; i < 10; i++ {
		pe.Emit(int64(i), LayerIB, "e", -1, 0)
	}
	evs := pl.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.VT != int64(6+i) {
			t.Fatalf("event %d VT=%d, want %d (oldest dropped first)", i, e.VT, 6+i)
		}
	}
	if pl.Dropped() != 6 {
		t.Fatalf("Dropped()=%d, want 6", pl.Dropped())
	}
}

func TestUnboundedRing(t *testing.T) {
	pl := NewPlane(1, Config{Events: true, RingCap: -1})
	pe := pl.PE(0)
	n := DefaultRingCap + 100
	for i := 0; i < n; i++ {
		pe.Emit(int64(i), LayerIB, "e", -1, 0)
	}
	if got := len(pl.Events()); got != n {
		t.Fatalf("unbounded ring kept %d events, want %d", got, n)
	}
	if pl.Dropped() != 0 {
		t.Fatalf("unbounded ring dropped %d events", pl.Dropped())
	}
}

func TestSortEventsDeterministicOrder(t *testing.T) {
	evs := []Event{
		{VT: 5, Rank: 1, Layer: LayerShmem, Kind: "b"},
		{VT: 5, Rank: 0, Layer: LayerShmem, Kind: "b"},
		{VT: 5, Rank: 0, Layer: LayerGasnet, Kind: "a", Peer: 2},
		{VT: 5, Rank: 0, Layer: LayerGasnet, Kind: "a", Peer: 1},
		{VT: 3, Rank: 7, Layer: LayerIB, Kind: "z"},
	}
	SortEvents(evs)
	want := []Event{
		{VT: 3, Rank: 7, Layer: LayerIB, Kind: "z"},
		{VT: 5, Rank: 0, Layer: LayerGasnet, Kind: "a", Peer: 1},
		{VT: 5, Rank: 0, Layer: LayerGasnet, Kind: "a", Peer: 2},
		{VT: 5, Rank: 0, Layer: LayerShmem, Kind: "b"},
		{VT: 5, Rank: 1, Layer: LayerShmem, Kind: "b"},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("sort order wrong:\n got %+v\nwant %+v", evs, want)
	}
}

func TestPhasesSeparateFromRing(t *testing.T) {
	pl := NewPlane(1, Config{Events: true, RingCap: 2})
	pe := pl.PE(0)
	pe.InitPhase("qp-setup", 0, 10)
	pe.InitPhase("pmi-exchange", 10, 30)
	for i := 0; i < 100; i++ { // overflow the ring
		pe.Emit(int64(100+i), LayerGasnet, "noise", -1, 0)
	}
	ph := pe.Phases()
	if len(ph) != 2 || ph[0].Name != "qp-setup" || ph[1].Dur() != 20 {
		t.Fatalf("phases lost to ring overflow: %+v", ph)
	}
}

func TestSpanClampsNegativeDur(t *testing.T) {
	pl := NewPlane(1, Config{Events: true})
	pe := pl.PE(0)
	pe.Span(10, 5, LayerMPI, "weird", -1, 0)
	evs := pl.Events()
	if len(evs) != 1 || evs[0].Dur != 0 {
		t.Fatalf("negative-duration span not clamped: %+v", evs)
	}
}
