package gasnet

import (
	"bytes"
	"sync"
	"sync/atomic"
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

// TestDeferredAMReplay uses 13, the highest id a client may register.
func TestDeferredAMReplay(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand})
	// Send before the receiver registers the handler.
	if err := pes[0].C.AMRequest(1, 13, [4]uint64{7}, []byte("early")); err != nil {
		t.Fatal(err)
	}
	if err := pes[0].C.AMRequest(1, 13, [4]uint64{8}, []byte("early2")); err != nil {
		t.Fatal(err)
	}
	// Wait until both messages have been delivered and parked in the
	// deferred queue, so registration exercises the replay path.
	waitUntil(t, func() bool {
		pes[1].C.connMu.Lock()
		defer pes[1].C.connMu.Unlock()
		return len(pes[1].C.deferredAM[13]) == 2
	})
	got := make(chan uint64, 2)
	pes[1].C.RegisterHandler(13, func(src int, args [4]uint64, payload []byte, at int64) {
		got <- args[0]
	})
	a, b := <-got, <-got
	if a != 7 || b != 8 {
		t.Fatalf("deferred replay out of order: %d, %d", a, b)
	}
}

// TestOutOfTableAMDropped: a handler byte past the 16-slot table is input
// from the wire the conduit cannot dispatch, so the target drops the frame —
// no panic, nothing parked for a registration that can never come. The API
// refuses such ids (and the reserved 14..15) at the sender, so the frames
// here are encoded by hand. An AM on a registered id sent after them on the
// same connection proves they arrived.
func TestOutOfTableAMDropped(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand})
	got := make(chan uint64, 1)
	pes[1].C.RegisterHandler(5, func(_ int, args [4]uint64, _ []byte, _ int64) { got <- args[0] })
	for _, id := range []uint8{amAtomicReq, amAtomicRep, 16, 99, 255} {
		if err := pes[0].C.AMRequest(1, id, [4]uint64{}, nil); err == nil {
			t.Errorf("AMRequest on id %d: nil error, want a refusal", id)
		}
		if err := pes[0].C.AMRequestFenced(1, id, [4]uint64{}, nil); err == nil {
			t.Errorf("AMRequestFenced on id %d: nil error, want a refusal", id)
		}
	}
	for _, id := range []uint8{16, 99, 255} {
		wr := ib.SendWR{Op: ib.OpSend, Data: encodeAM(id, 0, [4]uint64{}, []byte("stray")), NoSendCompletion: true}
		if err := pes[0].C.post(1, wr, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := pes[0].C.AMRequest(1, 5, [4]uint64{42}, nil); err != nil {
		t.Fatal(err)
	}
	if v := <-got; v != 42 {
		t.Fatalf("handler 5 got %d, want 42", v)
	}
	pes[1].C.connMu.Lock()
	defer pes[1].C.connMu.Unlock()
	if len(pes[1].C.deferredAM) != 0 {
		t.Fatalf("out-of-table AMs parked: %v", pes[1].C.deferredAM)
	}
}

// TestReservedHandlerIDs: 14 and 15 carry the conduit's framed atomics and
// no client may take them.
func TestReservedHandlerIDs(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 1, mode: OnDemand})
	for _, id := range []uint8{amAtomicReq, amAtomicRep, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterHandler(%d) did not panic", id)
				}
			}()
			pes[0].C.RegisterHandler(id, func(int, [4]uint64, []byte, int64) {})
		}()
	}
}

// TestFramedAtomicsOnReservedIDs: on a lossy fabric a fetching atomic is an
// AM round trip on ids 14 (request, at the target) and 15 (reply, at the
// issuer), and returns the old value the fabric-level atomic would have.
func TestFramedAtomicsOnReservedIDs(t *testing.T) {
	fi := ib.NewFaultInjector(7)
	fi.DropProb, fi.MaxDrops = 0.2, 8
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand, faults: fi})
	mr := pes[1].HCA.RegisterMR(make([]byte, 64), pes[1].Clk)
	var reqs, reps atomic.Int32
	count := func(c *Conduit, id uint8, n *atomic.Int32) {
		inner := *c.handlers[id].Load()
		h := Handler(func(src int, args [4]uint64, payload []byte, at int64) {
			n.Add(1)
			inner(src, args, payload, at)
		})
		c.handlers[id].Store(&h)
	}
	count(pes[1].C, amAtomicReq, &reqs)
	count(pes[0].C, amAtomicRep, &reps)
	if old, err := pes[0].C.FetchAdd(1, mr.Base()+8, mr.RKey(), 5); err != nil || old != 0 {
		t.Fatalf("fetchadd: old %d, %v; want 0", old, err)
	}
	if old, err := pes[0].C.CompareSwap(1, mr.Base()+8, mr.RKey(), 5, 11); err != nil || old != 5 {
		t.Fatalf("cswap: old %d, %v; want 5", old, err)
	}
	if got := mr.LoadUint64(8); got != 11 {
		t.Fatalf("target word %d, want 11", got)
	}
	if reqs.Load() != 2 || reps.Load() != 2 {
		t.Fatalf("framed atomics: %d requests on id %d, %d replies on id %d; want 2 and 2",
			reqs.Load(), amAtomicReq, reps.Load(), amAtomicRep)
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
