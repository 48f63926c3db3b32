package gasnet

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"goshmem/internal/ib"
)

// TestCreditBackpressureDeliversAll floods a finite receive queue: with a
// per-QP depth of 2, a burst of back-to-back sends must stall in the
// sender-side credit window (virtual time) instead of failing, and every
// message must still arrive exactly once, in order.
func TestCreditBackpressureDeliversAll(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, ppn: 1, mode: OnDemand,
		limits: ib.Limits{RQDepth: 2}})
	const k = 40
	got := make(chan uint64, k)
	pes[1].C.RegisterHandler(2, func(src int, a [4]uint64, p []byte, at int64) {
		got <- a[0]
	})
	if err := pes[0].C.EnsureConnected(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := pes[0].C.AMRequest(1, 2, [4]uint64{uint64(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		if v := <-got; v != uint64(i) {
			t.Fatalf("AM %d arrived out of order (got %d)", i, v)
		}
	}
	st := pes[0].C.Stats()
	if st.CreditStalls == 0 {
		t.Fatalf("burst of %d sends through a depth-2 receive queue never stalled: %+v", k, st)
	}
	if err := pes[0].C.Err(); err != nil {
		t.Fatalf("abort on a backpressure-only run: %v", err)
	}
}

// TestPendingFlushAbsorbsRNRNaks queues a burst behind the handshake: the
// post-handshake flush bypasses the credit gate, so the receiver's finite
// queue answers with RNR NAKs, which the sender must absorb with backoff and
// retry — delivering everything in order, exactly once.
func TestPendingFlushAbsorbsRNRNaks(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, ppn: 1, mode: OnDemand,
		limits: ib.Limits{RQDepth: 2}})
	const k = 50
	got := make(chan uint64, k)
	pes[1].C.RegisterHandler(2, func(src int, a [4]uint64, p []byte, at int64) {
		got <- a[0]
	})
	// No EnsureConnected: every AM queues behind the in-flight handshake and
	// goes through flushLocked.
	for i := 0; i < k; i++ {
		if err := pes[0].C.AMRequest(1, 2, [4]uint64{uint64(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		if v := <-got; v != uint64(i) {
			t.Fatalf("AM %d arrived out of order (got %d)", i, v)
		}
	}
	st := pes[0].C.Stats()
	if st.RNRNaks == 0 && st.CreditStalls == 0 {
		t.Fatalf("flushing %d queued sends through a depth-2 receive queue hit no backpressure: %+v", k, st)
	}
	if err := pes[0].C.Err(); err != nil {
		t.Fatalf("abort on a backpressure-only run: %v", err)
	}
}

// TestAdmissionRejectThenRetryAdmits injects one queue-pair allocation
// failure per adapter: the server's first admission attempt fails, it answers
// the REQ with a non-fatal REJ, and the client's retransmission timer
// re-sends the REQ later (retry-after). The second attempt must be admitted
// and the handshake complete normally — exactly-once payload, no abort.
func TestAdmissionRejectThenRetryAdmits(t *testing.T) {
	fi := ib.NewFaultInjector(1)
	fi.FailQPAllocOn(2) // each adapter: alloc #1 is the UD endpoint, #2 the first RC attempt
	pes, _ := startJob(t, jobOpts{n: 2, ppn: 1, mode: OnDemand, faults: fi,
		payloads: true,
		limits:   ib.Limits{MaxQPs: 64}, trace: true})
	got := make(chan struct{}, 1)
	pes[1].C.RegisterHandler(3, func(src int, a [4]uint64, p []byte, at int64) {
		got <- struct{}{}
	})
	if err := pes[0].C.AMRequest(1, 3, [4]uint64{}, nil); err != nil {
		t.Fatal(err)
	}
	drainAll(pes)
	<-got
	if !pes[0].C.Connected(1) || !pes[1].C.Connected(0) {
		t.Fatal("handshake did not complete after the rejection")
	}
	if st := pes[1].C.Stats(); st.AdmissionRejects < 1 {
		t.Fatalf("server admitted without rejecting first: %+v", st)
	}
	for _, p := range pes {
		if err := p.C.Err(); err != nil {
			t.Fatalf("rank %d aborted on a recoverable admission failure: %v", p.C.Rank(), err)
		}
		peer := 1 - p.C.Rank()
		p.mu.Lock()
		if p.payCount[peer] != 1 {
			t.Fatalf("rank %d consumed payload %d times across the rejection", p.C.Rank(), p.payCount[peer])
		}
		p.mu.Unlock()
	}
	events := make(map[string]int) // "<rank>/<kind>" -> count
	for _, e := range pes[0].plane.Events() {
		events[string(rune('0'+e.Rank))+"/"+e.Kind]++
	}
	if events["1/conn-admission-rej"] == 0 {
		t.Fatalf("server trace lacks conn-admission-rej: %v", events)
	}
	if events["0/conn-rejected"] == 0 {
		t.Fatalf("client trace lacks conn-rejected: %v", events)
	}
	// IB CM REJ semantics: the rejected client must have released its queue
	// pair during backoff (so the budget it pins can breathe) and re-armed a
	// fresh one from the retransmission timer before re-sending the REQ.
	if events["0/conn-rearm"] == 0 {
		t.Fatalf("client trace lacks conn-rearm (rejected QP was held through backoff): %v", events)
	}
	if st := pes[0].HCA.Stats(); st.QPsDestroyed == 0 {
		t.Fatalf("client adapter destroyed no QP across the rejection: %+v", st)
	}
}

// TestQPBudgetExhaustionAborts proves the fatal path terminates instead of
// hanging: with the queue-pair budget fully consumed by the UD endpoint and
// no RC connection to ever evict, a connection attempt must abort the job
// with ExitResourceExhausted.
func TestQPBudgetExhaustionAborts(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, ppn: 1, mode: OnDemand,
		limits: ib.Limits{MaxQPs: 1}})
	err := pes[0].C.AMRequest(1, 1, [4]uint64{}, nil)
	if err == nil {
		t.Fatal("AMRequest succeeded with an unobtainable RC endpoint")
	}
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Code != ExitResourceExhausted {
		t.Fatalf("error = %v, want AbortError with code %d", err, ExitResourceExhausted)
	}
	waitUntil(t, func() bool { return pes[0].C.Err() != nil })
	var got *AbortError
	if !errors.As(pes[0].C.Err(), &got) || got.Code != ExitResourceExhausted {
		t.Fatalf("abort state = %v, want code %d", pes[0].C.Err(), ExitResourceExhausted)
	}
	if st := pes[0].C.Stats(); st.AllocFailures == 0 {
		t.Fatalf("no allocation failures recorded: %+v", st)
	}
}

// TestRegisterHeapBounceFallback exhausts the pinned-memory budget: the
// second heap registration must degrade to a bounced (unpinned, staged)
// region rather than fail, and one-sided traffic through the bounced region
// must still be byte-correct.
func TestRegisterHeapBounceFallback(t *testing.T) {
	// Budget 96 KiB: the 48 KiB bounce slab is pre-pinned at setup, the first
	// 32 KiB heap fits (80 KiB), the second (112 KiB) does not.
	pes, _ := startJob(t, jobOpts{n: 2, ppn: 2, mode: OnDemand,
		limits: ib.Limits{MaxMRBytes: 96 << 10}})
	heap0 := make([]byte, 32<<10)
	heap1 := make([]byte, 32<<10)
	pes[0].C.RegisterHeap(heap0)
	if hs := pes[0].HCA.Stats(); hs.BouncedMRs != 0 {
		t.Fatal("first registration bounced while the budget still had room")
	}
	mr1 := pes[1].C.RegisterHeap(heap1)
	if hs := pes[1].HCA.Stats(); hs.BouncedMRs != 1 {
		t.Fatalf("adapter bounced-MR count = %d, want 1: the second registration must bounce", hs.BouncedMRs)
	}
	if st := pes[1].C.Stats(); st.BounceFallbacks != 1 || st.AllocFailures != 1 {
		t.Fatalf("fallback accounting: %+v", st)
	}
	// Data plane through the degraded region: put then get back.
	if err := pes[0].C.EnsureConnected(1); err != nil {
		t.Fatal(err)
	}
	data := []byte("staged through the bounce slab")
	if err := pes[0].C.Put(1, mr1.Base()+128, mr1.RKey(), data); err != nil {
		t.Fatal(err)
	}
	pes[0].C.Quiet()
	if !bytes.Equal(heap1[128:128+len(data)], data) {
		t.Fatal("put through bounced region did not land")
	}
	buf := make([]byte, len(data))
	if err := pes[0].C.Get(1, mr1.Base()+128, mr1.RKey(), buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("get through bounced region = %q", buf)
	}
}

// TestRegisterHeapNoSlabAborts removes the degradation path: a pinned-memory
// budget too small to spare a bounce slab leaves an oversized registration
// nowhere to go, so RegisterHeapSize must abort the job with
// ExitResourceExhausted (and panic out of the failed PE).
func TestRegisterHeapNoSlabAborts(t *testing.T) {
	// 6 KiB budget: half of it is below the one-page minimum slab, so no
	// bounce path exists; an 8 KiB heap can then neither pin nor bounce.
	pes, _ := startJob(t, jobOpts{n: 1, ppn: 1, mode: OnDemand,
		limits: ib.Limits{MaxMRBytes: 6 << 10}})
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterHeapSize returned instead of panicking with no degradation path")
		}
		var ae *AbortError
		if err := pes[0].C.Err(); !errors.As(err, &ae) || ae.Code != ExitResourceExhausted {
			t.Fatalf("abort state = %v, want code %d", err, ExitResourceExhausted)
		}
	}()
	pes[0].C.RegisterHeapSize(8 << 10)
}

// TestEvictionSparesAcceptedConn is the regression guard for the idle-LRU
// victim policy racing an in-flight handshake: a server-side connection in
// connAccepted — its piggybacked payload delivered but the client's RTU still
// unacked — must never be evicted, however old it is, because tearing it down
// would re-run the payload exchange and break exactly-once consumption. The
// test parks one connection in connAccepted by dropping RTUs, forces
// eviction pressure past the live-QP cap, then releases the RTUs and checks
// the parked handshake completes with its payload consumed exactly once.
func TestEvictionSparesAcceptedConn(t *testing.T) {
	var holdRTU atomic.Bool
	holdRTU.Store(true)
	fi := ib.NewFaultInjector(1)
	fi.UDFilter = func(payload []byte) ib.UDVerdict {
		m, err := decodeConnMsg(payload)
		if err != nil || m.Kind != msgConnRTU || m.SrcRank != 0 {
			return ib.VerdictDeliver
		}
		if holdRTU.Load() {
			return ib.VerdictDrop
		}
		return ib.VerdictDeliver
	}
	pes, _ := startJob(t, jobOpts{n: 3, ppn: 3, mode: OnDemand, faults: fi,
		payloads: true, maxLiveRC: 4, trace: true})
	var mu sync.Mutex
	got := make(map[[2]int]int)
	for _, p := range pes {
		dst := p.C.Rank()
		p.C.RegisterHandler(6, func(src int, a [4]uint64, pay []byte, at int64) {
			mu.Lock()
			got[[2]int{dst, src}]++
			mu.Unlock()
		})
	}
	recvd := func(dst, src int) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			return got[[2]int{dst, src}] >= 1
		}
	}
	// Park 0->2 in connAccepted on the server: the client side is ready (its
	// RC pair is up, traffic flows) but the dropped RTU pins rank 2's slot.
	if err := pes[0].C.AMRequest(2, 6, [4]uint64{}, nil); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, recvd(2, 0))
	// Pressure: 1<->0 fills the adapter to the cap, then 1->2 forces
	// evictions on both conduits. Rank 2's only candidate is the parked
	// accepted connection, which the victim policy must skip.
	if err := pes[1].C.AMRequest(0, 6, [4]uint64{}, nil); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, recvd(0, 1))
	if err := pes[1].C.AMRequest(2, 6, [4]uint64{}, nil); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, recvd(2, 1))
	// Release the held RTUs: the server's REP retransmission elicits a fresh
	// RTU and the parked handshake completes.
	holdRTU.Store(false)
	pes[2].C.drain()
	if !pes[2].C.Connected(0) {
		t.Fatal("parked handshake did not complete once the RTU got through")
	}
	for _, e := range pes[0].plane.Events() {
		if e.Rank == 2 && e.Peer == 0 && e.Kind == "conn-evict" {
			t.Fatalf("accepted connection evicted under cap pressure (vt %d)", e.VT)
		}
	}
	for _, pair := range [][2]int{{0, 2}, {2, 0}} {
		p := pes[pair[0]]
		p.mu.Lock()
		if n := p.payCount[pair[1]]; n != 1 {
			t.Fatalf("rank %d consumed payload of %d %d times", pair[0], pair[1], n)
		}
		p.mu.Unlock()
	}
	mu.Lock()
	defer mu.Unlock()
	for k, c := range got {
		if c != 1 {
			t.Fatalf("message %v delivered %d times, want 1", k, c)
		}
	}
}

// TestUnbudgetedRunsPayNoResourceCost is the resource plane's happy-path
// guard: with no budgets armed, none of its machinery may trigger — no
// stalls, no NAKs, no allocation failures, no bounced regions, no
// rejections — on either the conduit or the adapter.
func TestUnbudgetedRunsPayNoResourceCost(t *testing.T) {
	const n = 4
	pes, run := startJob(t, jobOpts{n: n, ppn: 2, mode: OnDemand, payloads: true})
	var mu sync.Mutex
	recv := 0
	for _, p := range pes {
		p.C.RegisterHandler(6, func(src int, a [4]uint64, pay []byte, at int64) {
			mu.Lock()
			recv++
			mu.Unlock()
		})
	}
	run(func(p *pe) {
		for peer := 0; peer < n; peer++ {
			if err := p.C.AMRequest(peer, 6, [4]uint64{}, nil); err != nil {
				t.Errorf("AM: %v", err)
			}
		}
	})
	waitUntil(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return recv == n*n
	})
	for _, p := range pes {
		st := p.C.Stats()
		if st.CreditStalls != 0 || st.RNRNaks != 0 || st.AllocFailures != 0 ||
			st.BounceFallbacks != 0 || st.AdmissionRejects != 0 {
			t.Fatalf("rank %d: resource-pressure activity on an unbudgeted run: %+v", p.C.Rank(), st)
		}
		hs := p.HCA.Stats()
		if hs.AllocFailures != 0 || hs.RNRNaks != 0 || hs.BouncedMRs != 0 {
			t.Fatalf("rank %d: adapter resource activity on an unbudgeted run: %+v", p.C.Rank(), hs)
		}
		if p.HCA.Limits() != (ib.Limits{}) {
			t.Fatalf("rank %d: adapter reports budgets armed", p.C.Rank())
		}
	}
}
