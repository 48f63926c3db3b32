package gasnet

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"goshmem/internal/ib"
	"goshmem/internal/pmi"
	"goshmem/internal/vclock"
)

func TestGetNBICompletesAtQuiet(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand})
	heap := make([]byte, 1024)
	for i := range heap {
		heap[i] = byte(i)
	}
	mr := pes[1].HCA.RegisterMR(heap, pes[1].Clk)
	if err := pes[0].C.EnsureConnected(1); err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, 4)
	for i := range bufs {
		bufs[i] = make([]byte, 64)
		if err := pes[0].C.GetNBI(1, mr.Base()+uint64(64*i), mr.RKey(), bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	pes[0].C.Quiet()
	for i, b := range bufs {
		if !bytes.Equal(b, heap[64*i:64*i+64]) {
			t.Fatalf("nbi get %d mismatch", i)
		}
	}
}

func TestDeferredAMReplay(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand})
	// Send before the receiver registers the handler.
	if err := pes[0].C.AMRequest(1, 99, [4]uint64{7}, []byte("early")); err != nil {
		t.Fatal(err)
	}
	if err := pes[0].C.AMRequest(1, 99, [4]uint64{8}, []byte("early2")); err != nil {
		t.Fatal(err)
	}
	// Wait until both messages have been delivered and parked in the
	// deferred queue, so registration exercises the replay path.
	waitUntil(t, func() bool {
		pes[1].C.connMu.Lock()
		defer pes[1].C.connMu.Unlock()
		return len(pes[1].C.deferredAM[99]) == 2
	})
	got := make(chan uint64, 2)
	pes[1].C.RegisterHandler(99, func(src int, args [4]uint64, payload []byte, at int64) {
		got <- args[0]
	})
	a, b := <-got, <-got
	if a != 7 || b != 8 {
		t.Fatalf("deferred replay out of order: %d, %d", a, b)
	}
}

func TestEnsureConnectedAdvancesClock(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, ppn: 1, mode: OnDemand})
	before := pes[0].Clk.Now()
	if err := pes[0].C.EnsureConnected(1); err != nil {
		t.Fatal(err)
	}
	after := pes[0].Clk.Now()
	if after <= before {
		t.Fatalf("EnsureConnected did not advance the clock: %d -> %d", before, after)
	}
	// The handshake costs at least a UD round trip plus QP work.
	if after-before < 10_000 {
		t.Fatalf("handshake suspiciously cheap: %d ns", after-before)
	}
}

func TestCloseDrainsPendingSends(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand})
	var mu sync.Mutex
	var got []uint64
	done := make(chan struct{})
	pes[1].C.RegisterHandler(5, func(src int, args [4]uint64, payload []byte, at int64) {
		mu.Lock()
		got = append(got, args[0])
		if len(got) == 10 {
			close(done)
		}
		mu.Unlock()
	})
	// Queue sends behind a fresh handshake, then immediately Close: the
	// drain must deliver all of them.
	for i := 0; i < 10; i++ {
		if err := pes[0].C.AMRequest(1, 5, [4]uint64{uint64(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	pes[0].C.Close()
	<-done
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("drained sends out of order: %v", got)
		}
	}
}

// TestHeldRequestsServedAtSetReady verifies the paper's section IV-E
// behaviour: a connect request arriving before the server has registered
// its segments is held, not answered, and served the moment SetReady runs.
func TestHeldRequestsServedAtSetReady(t *testing.T) {
	fab := ib.NewFabric(nil, nil)
	srv := pmi.NewServer(2, nil)
	mk := func(rank int, h *ib.HCA) *pe {
		p := &pe{Clk: vclock.NewClock(0), HCA: h}
		p.C = New(Config{Rank: rank, NProcs: 2, Node: rank, PPN: 1,
			HCA: h, PMI: srv.Client(rank, p.Clk), Clock: p.Clk,
			Mode: OnDemand, NodeBarrier: vclock.NewVBarrier(1)})
		return p
	}
	p0 := mk(0, fab.AddHCA())
	p1 := mk(1, fab.AddHCA())
	t.Cleanup(func() { p0.C.Close(); p1.C.Close() })

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p0.C.ExchangeEndpoints() }()
	go func() { defer wg.Done(); p1.C.ExchangeEndpoints() }()
	wg.Wait()
	p0.C.SetReady()

	// PE0 initiates; PE1 has not called SetReady, so the REQ is held.
	connected := make(chan error, 1)
	go func() { connected <- p0.C.EnsureConnected(1) }()
	waitUntil(t, func() bool { return heldCount(p1.C) == 1 })
	if p0.C.Connected(1) {
		t.Fatal("connection established before server was ready")
	}
	p1.C.SetReady()
	if err := <-connected; err != nil {
		t.Fatal(err)
	}
	if !p0.C.Connected(1) {
		t.Fatal("connection missing after server became ready")
	}
}

func heldCount(c *Conduit) int {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return len(c.heldReqs)
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 4000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached")
}

// TestPostNeverDepartsBeforeConnectionReady: the server side of a handshake
// never blocks on it, so its application clock can be far behind the time its
// connection became ready. A send posted then must still depart from the
// connection's ready time — as it would have had it been queued behind the
// handshake a moment earlier — and leave the application clock alone.
func TestPostNeverDepartsBeforeConnectionReady(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, ppn: 1, mode: OnDemand})
	dispatched := make(chan int64, 1)
	pes[1].C.RegisterHandler(5, func(src int, a [4]uint64, p []byte, at int64) { dispatched <- at })
	if err := pes[1].C.EnsureConnected(0); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return pes[0].C.Connected(1) }) // the RTU may still be in flight
	pes[0].C.connMu.Lock()
	ready := pes[0].C.conns.get(1).readyVT
	pes[0].C.connMu.Unlock()
	before := pes[0].Clk.Now()
	if before >= ready {
		t.Fatalf("premise: server app clock %d is not behind its connection's ready time %d", before, ready)
	}
	if err := pes[0].C.AMRequest(1, 5, [4]uint64{}, nil); err != nil {
		t.Fatal(err)
	}
	if at := <-dispatched; at < ready {
		t.Fatalf("message dispatched at VT %d over a connection that became ready at VT %d", at, ready)
	}
	if now := pes[0].Clk.Now(); now != before {
		t.Fatalf("posting on a side clock moved the application clock: %d -> %d", before, now)
	}
}
