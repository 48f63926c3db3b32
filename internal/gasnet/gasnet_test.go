package gasnet

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/pmi"
	"goshmem/internal/vclock"
)

// pe bundles one simulated process for conduit tests.
type pe struct {
	C   *Conduit
	Clk *vclock.Clock
	HCA *ib.HCA

	// plane is the job's observability plane (shared by every pe) when
	// jobOpts.trace is set, else nil.
	plane *obs.Plane

	mu       sync.Mutex
	payloads map[int][]byte // peer -> payload received
	payCount map[int]int
}

// jobOpts configures a test job.
type jobOpts struct {
	n, ppn      int
	mode        Mode
	blockingPMI bool
	faults      *ib.FaultInjector
	payloads    bool
	model       *vclock.CostModel
	maxLiveRC   int             // per-HCA live RC cap (0 = unbounded)
	limits      ib.Limits       // per-HCA resource budgets (zero = unbudgeted)
	heartbeat   HeartbeatConfig // failure-detector override

	// trace records every PE's events in an unbounded obs ring; fault-plane
	// tests read the connection-lifecycle trace back with pe.plane.Events()
	// (merged across PEs, virtual-time order) to assert on recovery schedules.
	trace bool
}

// vsleep parks the caller for d of virtual time on the job's timer queue: the
// idle phase of a test, during which the queue fires whatever else is due.
func (p *pe) vsleep(d int64) {
	s := p.C.sched
	woken := make(chan struct{})
	s.After(p.Clk.Now()+d, p.C.Rank(), func(int64) {
		s.Unpark(1)
		close(woken)
	})
	s.Park()
	<-woken
}

// drainAll blocks until every PE's sends have been delivered and acknowledged
// and every handshake has completed on both sides. It is how a test waits for
// recovery: the job's timers fire only while somebody is blocked.
func drainAll(pes []*pe) {
	for _, p := range pes {
		p.C.drain()
	}
}

// startJob builds a fabric, a PMI server and n conduits, exchanges endpoints
// and marks every PE ready. It returns the PEs and a runner that executes a
// body on every PE concurrently.
func startJob(t *testing.T, o jobOpts) ([]*pe, func(body func(p *pe))) {
	t.Helper()
	if o.ppn == 0 {
		o.ppn = 2
	}
	if o.model == nil {
		o.model = vclock.Default()
	}
	fab := ib.NewFabric(o.model, o.faults)
	srv := pmi.NewServer(o.n, o.model)
	nodes := (o.n + o.ppn - 1) / o.ppn
	hcas := make([]*ib.HCA, nodes)
	bars := make([]*vclock.VBarrier, nodes)
	for i := range hcas {
		hcas[i] = fab.AddHCA()
		if o.limits != (ib.Limits{}) {
			hcas[i].SetLimits(o.limits, vclock.NewClock(0))
		}
		ppnHere := o.ppn
		if i == nodes-1 {
			ppnHere = o.n - i*o.ppn
		}
		bars[i] = vclock.NewVBarrier(ppnHere)
	}
	// On an armed fabric the test is wired like a cluster job: PMI and the
	// node barriers are visible to the timer queue, and the test goroutine
	// itself (here) and every body goroutine (run, spawn) are registered
	// actors — so a timer fires only when the test and every PE are parked in
	// a blocking call, never while the test is still setting something up.
	sched := fab.Sched()
	srv.SetSched(sched)
	for _, b := range bars {
		b.SetSched(sched)
	}
	sched.Enter()
	t.Cleanup(sched.Exit)
	var plane *obs.Plane
	if o.trace {
		plane = obs.NewPlane(o.n, obs.Config{Events: true, RingCap: -1})
	}
	pes := make([]*pe, o.n)
	for r := 0; r < o.n; r++ {
		p := &pe{Clk: vclock.NewClock(0), plane: plane, payloads: make(map[int][]byte), payCount: make(map[int]int)}
		p.HCA = hcas[r/o.ppn]
		cfg := Config{
			Rank: r, NProcs: o.n, Node: r / o.ppn, PPN: o.ppn,
			HCA: p.HCA, PMI: srv.Client(r, p.Clk), Clock: p.Clk,
			Mode: o.mode, BlockingPMI: o.blockingPMI,
			NodeBarrier: bars[r/o.ppn],
			MaxLiveRC:   o.maxLiveRC,
			Heartbeat:   o.heartbeat,
			Obs:         plane.PE(r),
		}
		if o.payloads {
			rank := r
			cfg.ConnectPayload = func() []byte { return []byte(fmt.Sprintf("seg-of-%d", rank)) }
			cfg.OnConnectPayload = func(peer int, b []byte, at int64) {
				p.mu.Lock()
				p.payloads[peer] = append([]byte(nil), b...)
				p.payCount[peer]++
				p.mu.Unlock()
			}
		}
		pes[r] = p
		pes[r].C = New(cfg)
	}
	run := func(body func(p *pe)) {
		done := make(chan struct{})
		left := int32(len(pes))
		for _, p := range pes {
			p := p
			sched.Go(func() {
				defer func() {
					if atomic.AddInt32(&left, -1) == 0 {
						sched.Unpark(1) // the test goroutine, parked below
						close(done)
					}
				}()
				body(p)
			})
		}
		sched.Park()
		<-done
	}
	// Bootstrap: exchange endpoints and mark ready, concurrently (the fence
	// in blocking mode synchronizes all PEs).
	run(func(p *pe) {
		p.C.ExchangeEndpoints()
		p.C.SetReady()
	})
	t.Cleanup(func() {
		for _, p := range pes {
			p.C.Close()
		}
	})
	return pes, run
}

func TestOnDemandAMDelivery(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand})
	got := make(chan string, 1)
	pes[1].C.RegisterHandler(7, func(src int, args [4]uint64, payload []byte, at int64) {
		got <- fmt.Sprintf("src=%d a0=%d pay=%s at>0=%v", src, args[0], payload, at > 0)
	})
	if err := pes[0].C.AMRequest(1, 7, [4]uint64{42}, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if s := <-got; s != "src=0 a0=42 pay=hello at>0=true" {
		t.Fatalf("AM mismatch: %s", s)
	}
	// The connection was established on demand, exactly one per side.
	if !pes[0].C.Connected(1) {
		t.Fatal("rank 0 should be connected to 1")
	}
}

func TestPayloadPiggybackExactlyOnceBothSides(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand, payloads: true})
	done := make(chan struct{})
	pes[1].C.RegisterHandler(1, func(src int, args [4]uint64, payload []byte, at int64) { close(done) })
	if err := pes[0].C.AMRequest(1, 1, [4]uint64{}, nil); err != nil {
		t.Fatal(err)
	}
	<-done
	// Client got server's payload before the AM could even be flushed.
	pes[0].mu.Lock()
	p01 := string(pes[0].payloads[1])
	n01 := pes[0].payCount[1]
	pes[0].mu.Unlock()
	if p01 != "seg-of-1" || n01 != 1 {
		t.Fatalf("client payload = %q (count %d)", p01, n01)
	}
	pes[1].mu.Lock()
	p10 := string(pes[1].payloads[0])
	n10 := pes[1].payCount[0]
	pes[1].mu.Unlock()
	if p10 != "seg-of-0" || n10 != 1 {
		t.Fatalf("server payload = %q (count %d)", p10, n10)
	}
}

func TestEnsureConnectedDeliversPayload(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 4, ppn: 2, mode: OnDemand, payloads: true})
	if err := pes[2].C.EnsureConnected(3); err != nil {
		t.Fatal(err)
	}
	pes[2].mu.Lock()
	defer pes[2].mu.Unlock()
	if string(pes[2].payloads[3]) != "seg-of-3" {
		t.Fatalf("payload after EnsureConnected = %q", pes[2].payloads[3])
	}
}

func TestRMAThroughConduit(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand})
	heap := make([]byte, 1024)
	mr := pes[1].HCA.RegisterMR(heap, pes[1].Clk)

	if err := pes[0].C.EnsureConnected(1); err != nil {
		t.Fatal(err)
	}
	data := []byte("one-sided payload")
	if err := pes[0].C.Put(1, mr.Base()+64, mr.RKey(), data); err != nil {
		t.Fatal(err)
	}
	pes[0].C.Quiet()
	if !bytes.Equal(heap[64:64+len(data)], data) {
		t.Fatal("put did not land")
	}
	buf := make([]byte, len(data))
	if err := pes[0].C.Get(1, mr.Base()+64, mr.RKey(), buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("get = %q", buf)
	}
	if old, err := pes[0].C.FetchAdd(1, mr.Base()+512, mr.RKey(), 9); err != nil || old != 0 {
		t.Fatalf("fetchadd: %d %v", old, err)
	}
	if old, err := pes[0].C.Swap(1, mr.Base()+512, mr.RKey(), 100); err != nil || old != 9 {
		t.Fatalf("swap: %d %v", old, err)
	}
	if old, err := pes[0].C.CompareSwap(1, mr.Base()+512, mr.RKey(), 100, 7); err != nil || old != 100 {
		t.Fatalf("cswap: %d %v", old, err)
	}
	if got := mr.LoadUint64(512); got != 7 {
		t.Fatalf("final atomic value = %d", got)
	}
	// Clock advanced past the round trips.
	if pes[0].Clk.Now() == 0 {
		t.Fatal("client clock did not advance")
	}
}

// Queued traffic behind the handshake must flush in order.
func TestPendingFlushOrder(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand})
	const k = 50
	got := make(chan uint64, k)
	pes[1].C.RegisterHandler(2, func(src int, args [4]uint64, payload []byte, at int64) {
		got <- args[0]
	})
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
}

func TestSelfCommunication(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 1, ppn: 1, mode: OnDemand, payloads: true})
	done := make(chan int, 1)
	pes[0].C.RegisterHandler(3, func(src int, args [4]uint64, payload []byte, at int64) {
		done <- src
	})
	if err := pes[0].C.AMRequest(0, 3, [4]uint64{}, nil); err != nil {
		t.Fatal(err)
	}
	if src := <-done; src != 0 {
		t.Fatalf("self AM src = %d", src)
	}
	pes[0].mu.Lock()
	defer pes[0].mu.Unlock()
	if string(pes[0].payloads[0]) != "seg-of-0" {
		t.Fatal("self payload missing")
	}
}

// TestStaticConnectAll: the eager all-pairs connect leaves every PE ready to
// every peer, and — the static half of the opaque-payload contract — each PE
// holds every peer's payload, delivered exactly once.
func TestStaticConnectAll(t *testing.T) {
	const n = 8
	pes, run := startJob(t, jobOpts{n: n, ppn: 4, mode: Static, payloads: true})
	run(func(p *pe) {
		if err := p.C.ConnectAll(); err != nil {
			t.Errorf("rank %d: %v", p.C.Rank(), err)
		}
	})
	for _, p := range pes {
		if got := p.C.NumConnected(); got != n {
			t.Fatalf("rank %d: %d ready conns, want %d", p.C.Rank(), got, n)
		}
		st := p.C.Stats()
		// Each PE creates ~N RC endpoints: one per pair it participates in,
		// two for the self loopback, plus its UD endpoint.
		if st.RCQPsCreated < n || st.RCQPsCreated > n+2 {
			t.Fatalf("rank %d: RC QPs created = %d, want ~%d", p.C.Rank(), st.RCQPsCreated, n)
		}
		p.mu.Lock()
		for k := 0; k < n; k++ {
			if got, want := string(p.payloads[k]), fmt.Sprintf("seg-of-%d", k); got != want || p.payCount[k] != 1 {
				t.Errorf("rank %d: payload of %d = %q (count %d), want %q once", p.C.Rank(), k, got, p.payCount[k], want)
			}
		}
		p.mu.Unlock()
	}
	// Everyone can message everyone.
	var mu sync.Mutex
	recv := make(map[int]int)
	for _, p := range pes {
		rank := p.C.Rank()
		p.C.RegisterHandler(9, func(src int, args [4]uint64, payload []byte, at int64) {
			mu.Lock()
			recv[rank]++
			mu.Unlock()
		})
	}
	run(func(p *pe) {
		for peer := 0; peer < n; peer++ {
			if err := p.C.AMRequest(peer, 9, [4]uint64{}, nil); err != nil {
				t.Errorf("AM: %v", err)
			}
		}
	})
	// Drain: each PE should receive n messages.
	for cnt := 0; cnt != n*n; {
		mu.Lock()
		cnt = 0
		for _, v := range recv {
			cnt += v
		}
		mu.Unlock()
	}
}

func TestCollisionSimultaneousConnect(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		pes, run := startJob(t, jobOpts{n: 2, mode: OnDemand, payloads: true})
		gotA := make(chan struct{}, 1)
		gotB := make(chan struct{}, 1)
		pes[0].C.RegisterHandler(4, func(src int, a [4]uint64, p []byte, at int64) { gotA <- struct{}{} })
		pes[1].C.RegisterHandler(4, func(src int, a [4]uint64, p []byte, at int64) { gotB <- struct{}{} })
		// Both sides initiate at once.
		run(func(p *pe) {
			peer := 1 - p.C.Rank()
			if err := p.C.AMRequest(peer, 4, [4]uint64{}, nil); err != nil {
				t.Errorf("AM: %v", err)
			}
		})
		<-gotA
		<-gotB
		for _, p := range pes {
			peer := 1 - p.C.Rank()
			if !p.C.Connected(peer) {
				t.Fatalf("trial %d: rank %d not connected", trial, p.C.Rank())
			}
			if p.C.NumConnected() != 1 {
				t.Fatalf("trial %d: rank %d has %d conns, want 1", trial, p.C.Rank(), p.C.NumConnected())
			}
			p.mu.Lock()
			if p.payCount[peer] != 1 {
				t.Fatalf("trial %d: rank %d consumed payload %d times", trial, p.C.Rank(), p.payCount[peer])
			}
			p.mu.Unlock()
		}
		for _, p := range pes {
			p.C.Close()
		}
	}
}

func TestHandshakeSurvivesUDDrops(t *testing.T) {
	fi := ib.NewFaultInjector(3)
	fi.DropFirstN = 3 // kill the first REQ attempts, force retransmission
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand, faults: fi, payloads: true})
	done := make(chan struct{})
	pes[1].C.RegisterHandler(5, func(src int, a [4]uint64, p []byte, at int64) { close(done) })
	if err := pes[0].C.AMRequest(1, 5, [4]uint64{}, nil); err != nil {
		t.Fatal(err)
	}
	drainAll(pes)
	<-done
	if pes[0].C.Stats().Retransmits == 0 {
		t.Fatal("expected retransmissions after forced drops")
	}
	pes[0].mu.Lock()
	defer pes[0].mu.Unlock()
	if pes[0].payCount[1] != 1 {
		t.Fatalf("payload consumed %d times under drops", pes[0].payCount[1])
	}
}

func TestHandshakeSurvivesRandomDropsAndDups(t *testing.T) {
	fi := ib.NewFaultInjector(11)
	fi.DropProb = 0.4
	fi.DupProb = 0.3
	fi.MaxDrops = 40
	const n = 6
	pes, run := startJob(t, jobOpts{n: n, ppn: 3, mode: OnDemand, faults: fi, payloads: true})
	var mu sync.Mutex
	recv := 0
	cond := sync.NewCond(&mu)
	for _, p := range pes {
		p.C.RegisterHandler(6, func(src int, a [4]uint64, pay []byte, at int64) {
			mu.Lock()
			recv++
			mu.Unlock()
			cond.Broadcast()
		})
	}
	run(func(p *pe) {
		for peer := 0; peer < n; peer++ {
			if err := p.C.AMRequest(peer, 6, [4]uint64{}, nil); err != nil {
				t.Errorf("AM: %v", err)
			}
		}
		p.C.drain()
	})
	mu.Lock()
	for recv < n*n {
		cond.Wait()
	}
	mu.Unlock()
	// Exactly-once payload consumption per pair despite drops/dups.
	for _, p := range pes {
		p.mu.Lock()
		for peer, cnt := range p.payCount {
			if cnt != 1 {
				t.Fatalf("rank %d consumed payload of %d %d times", p.C.Rank(), peer, cnt)
			}
		}
		p.mu.Unlock()
	}
}

func TestQuietWaitsForAllPuts(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand})
	heap := make([]byte, 1<<16)
	mr := pes[1].HCA.RegisterMR(heap, pes[1].Clk)
	if err := pes[0].C.EnsureConnected(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		buf := bytes.Repeat([]byte{byte(i)}, 64)
		if err := pes[0].C.Put(1, mr.Base()+uint64(i*64), mr.RKey(), buf); err != nil {
			t.Fatal(err)
		}
	}
	pes[0].C.Quiet()
	for i := 0; i < 100; i++ {
		if heap[i*64] != byte(i) {
			t.Fatalf("slot %d not written", i)
		}
	}
}

func TestOnDemandCreatesFewerEndpointsThanStatic(t *testing.T) {
	const n = 8
	countQPs := func(mode Mode) int {
		pes, run := startJob(t, jobOpts{n: n, ppn: 4, mode: mode})
		var mu sync.Mutex
		got := 0
		cond := sync.NewCond(&mu)
		for _, p := range pes {
			p.C.RegisterHandler(8, func(src int, a [4]uint64, pay []byte, at int64) {
				mu.Lock()
				got++
				mu.Unlock()
				cond.Broadcast()
			})
		}
		run(func(p *pe) {
			if mode == Static {
				if err := p.C.ConnectAll(); err != nil {
					t.Error(err)
				}
			}
			// Ring pattern: each PE talks to one neighbour only.
			if err := p.C.AMRequest((p.C.Rank()+1)%n, 8, [4]uint64{}, nil); err != nil {
				t.Error(err)
			}
		})
		mu.Lock()
		for got < n {
			cond.Wait()
		}
		mu.Unlock()
		total := 0
		for _, p := range pes {
			total += p.C.Stats().RCQPsCreated
		}
		for _, p := range pes {
			p.C.Close()
		}
		return total
	}
	static := countQPs(Static)
	onDemand := countQPs(OnDemand)
	if onDemand*2 >= static {
		t.Fatalf("on-demand should use far fewer endpoints: static=%d ondemand=%d", static, onDemand)
	}
}

func TestIntraNodeBarrier(t *testing.T) {
	pes, run := startJob(t, jobOpts{n: 4, ppn: 4, mode: OnDemand})
	run(func(p *pe) {
		p.Clk.Advance(int64(p.C.Rank()) * 1000)
		p.C.IntraNodeBarrier()
	})
	want := pes[0].Clk.Now()
	for i, p := range pes {
		if p.Clk.Now() != want {
			t.Fatalf("clock %d = %d, want %d", i, p.Clk.Now(), want)
		}
	}
	if want < 3000 {
		t.Fatalf("barrier release %d below max arrival", want)
	}
}

func TestBlockingVsNonBlockingExchangeCost(t *testing.T) {
	cost := func(blocking bool) int64 {
		pes, _ := startJob(t, jobOpts{n: 32, ppn: 8, mode: OnDemand, blockingPMI: blocking})
		max := int64(0)
		for _, p := range pes {
			if p.Clk.Now() > max {
				max = p.Clk.Now()
			}
		}
		for _, p := range pes {
			p.C.Close()
		}
		return max
	}
	blocking := cost(true)
	nonBlocking := cost(false)
	if nonBlocking >= blocking {
		t.Fatalf("non-blocking exchange should be cheaper at init: nb=%d b=%d", nonBlocking, blocking)
	}
}

func TestPostToBadPeer(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand})
	if err := pes[0].C.AMRequest(99, 1, [4]uint64{}, nil); err == nil {
		t.Fatal("AM to out-of-range peer should fail")
	}
	if err := pes[0].C.EnsureConnected(-1); err == nil {
		t.Fatal("EnsureConnected(-1) should fail")
	}
}

func TestStatsPeerTracking(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 4, ppn: 4, mode: OnDemand})
	done := make(chan struct{}, 4)
	for _, p := range pes {
		p.C.RegisterHandler(1, func(src int, a [4]uint64, pay []byte, at int64) { done <- struct{}{} })
	}
	pes[0].C.AMRequest(1, 1, [4]uint64{}, nil)
	pes[0].C.AMRequest(1, 1, [4]uint64{}, nil)
	pes[0].C.AMRequest(2, 1, [4]uint64{}, nil)
	<-done
	<-done
	<-done
	st := pes[0].C.Stats()
	if st.PeersContacted != 2 {
		t.Fatalf("peers contacted = %d, want 2", st.PeersContacted)
	}
	if st.AMsSent != 3 {
		t.Fatalf("AMs sent = %d, want 3", st.AMsSent)
	}
}

func TestWireEncoding(t *testing.T) {
	m := connMsg{Kind: msgConnReq, SrcRank: 12345, Seq: 99,
		RC: ib.Dest{LID: 7, QPN: 4242}, UD: ib.Dest{LID: 8, QPN: 17},
		Payload: []byte("segments")}
	got, err := decodeConnMsg(m.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.SrcRank != m.SrcRank || got.Seq != m.Seq ||
		got.RC != m.RC || got.UD != m.UD || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, m)
	}
	if _, err := decodeConnMsg([]byte{1, 2}); err == nil {
		t.Fatal("short message should fail")
	}

	b := encodeAM(9, 77, [4]uint64{1, 2, 3, 4}, []byte("pp"))
	h, src, args, pay, err := decodeAM(b)
	if err != nil || h != 9 || src != 77 || args != [4]uint64{1, 2, 3, 4} || string(pay) != "pp" {
		t.Fatalf("AM roundtrip: %v %v %v %v %v", h, src, args, pay, err)
	}

}

// TestDecodeDestStrict: the endpoint string is read back from the PMI store,
// so the decoder must accept exactly what encodeDest writes and nothing else
// — no trailing bytes, no empty half, no sign, no value that would wrap when
// narrowed to the LID's 16 or the QPN's 32 bits.
func TestDecodeDestStrict(t *testing.T) {
	for _, d := range []ib.Dest{{}, {LID: 300, QPN: 123456}, {LID: 65535, QPN: 4294967295}} {
		got, err := decodeDest(encodeDest(d))
		if err != nil || got != d {
			t.Errorf("roundtrip of %v: got %v, err %v", d, got, err)
		}
	}
	for _, s := range []string{"", "garbage", "1", "1:", ":2", "1:2junk", "1:2:3", " 1:2",
		"70000:1", "-1:2", "1:-2", "+1:2", "1:4294967296"} {
		if d, err := decodeDest(s); err == nil {
			t.Errorf("decodeDest(%q) = %v, want an error", s, d)
		}
	}
}
