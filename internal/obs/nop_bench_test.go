package obs

import (
	"io"
	"testing"
)

func BenchmarkNopEmit(b *testing.B) {
	var p *PE
	for i := 0; i < b.N; i++ {
		p.Emit(int64(i), LayerGasnet, "conn-initiate", 1, 0)
	}
}

func BenchmarkNopSpan(b *testing.B) {
	var p *PE
	for i := 0; i < b.N; i++ {
		p.Span(int64(i), int64(i)+10, LayerShmem, "put", 1, 8)
	}
}

func BenchmarkNopFlow(b *testing.B) {
	var p *PE
	for i := 0; i < b.N; i++ {
		p.Flow(1, FlowPut, int64(i))
	}
}

func BenchmarkNopHistRecord(b *testing.B) {
	var h *Hist
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}

func BenchmarkEnabledEmit(b *testing.B) {
	pl := NewPlane(1, Config{Events: true, RingCap: 1 << 12})
	p := pl.PE(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Emit(int64(i), LayerGasnet, "conn-initiate", 1, 0)
	}
}

func BenchmarkEnabledHistRecord(b *testing.B) {
	pl := NewPlane(1, Config{Metrics: true})
	h := pl.PE(0).Hist("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i % 100000))
	}
}

// tracePlane fills np PEs with perPE events each, in the mix a traced
// traffic job records: puts and gets to many peers at shared virtual times,
// an attribute now and then, and per pair a conn lifecycle (initiate, ready,
// evict) recorded once, so the export synthesizes conn slices too and the
// number of pairs does not grow with perPE.
func tracePlane(np, perPE int) *Plane {
	pl := NewPlane(np, Config{Events: true, Gauges: true, RingCap: -1})
	for r := 0; r < np; r++ {
		p := pl.PE(r)
		for k := 1; k <= 8 && k < np; k++ {
			peer, vt := (r+k)%np, int64(k)*1000
			p.Emit(vt, LayerGasnet, "conn-initiate", peer, 0)
			p.Emit(vt+3000, LayerGasnet, "conn-ready-client", peer, 0)
			p.Emit(vt+90000, LayerGasnet, "conn-evict", peer, 0)
		}
		p.Gauge("qp.live").Add(1000, 1)
		for i := 0; i < perPE; i++ {
			peer, vt := (r+1+i%31)%np, int64(10000+i/4*250)
			switch i % 4 {
			case 0:
				p.Span(vt, vt+1250, LayerShmem, "put", peer, 8)
			case 1:
				p.Span(vt, vt+2500, LayerShmem, "get", peer, 4096)
			case 2:
				p.Emit(vt, LayerIB, "rdma-write", peer, 8, Attr{Key: "rail", Val: "0"})
			default:
				p.Emit(vt, LayerGasnet, "am", peer, 0)
			}
		}
	}
	return pl
}

// BenchmarkWritePerfetto exports a plane the size of a traced app_traffic
// job: 64 PEs of ~3.7k events each.
func BenchmarkWritePerfetto(b *testing.B) {
	pl := tracePlane(64, 3700)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pl.WritePerfetto(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
