package gasnet

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"goshmem/internal/ib"
)

// TestLinkFlapReconnectDeliversExactlyOnce injects exactly one RC link fault:
// the very first RC operation (the flush of the queued AM behind the
// handshake) fails, both queue pairs die, and the conduit must detect the
// fault, re-run the handshake with a fresh sequence number, and deliver the
// requeued message exactly once. The segment payload must not be re-consumed
// across the reconnect.
func TestLinkFlapReconnectDeliversExactlyOnce(t *testing.T) {
	fi := ib.NewFaultInjector(9)
	fi.FlapProb = 1.0
	fi.MaxFlaps = 1
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand, faults: fi, payloads: true, trace: true})
	var mu sync.Mutex
	recv := 0
	pes[1].C.RegisterHandler(5, func(src int, a [4]uint64, p []byte, at int64) {
		mu.Lock()
		recv++
		mu.Unlock()
	})
	if err := pes[0].C.AMRequest(1, 5, [4]uint64{}, nil); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return recv >= 1
	})
	waitUntil(t, func() bool { return pes[0].C.Connected(1) })
	mu.Lock()
	if recv != 1 {
		t.Fatalf("message delivered %d times across the flap, want 1", recv)
	}
	mu.Unlock()
	if fi.Injected().Flaps != 1 {
		t.Fatalf("injected flaps = %d, want 1", fi.Injected().Flaps)
	}
	st := pes[0].C.Stats()
	if st.LinkFaults < 1 {
		t.Fatalf("client LinkFaults = %d, want >= 1", st.LinkFaults)
	}
	if st.Reconnects < 1 {
		t.Fatalf("client Reconnects = %d, want >= 1", st.Reconnects)
	}
	pes[0].mu.Lock()
	if pes[0].payCount[1] != 1 {
		t.Fatalf("payload consumed %d times across reconnect, want 1", pes[0].payCount[1])
	}
	pes[0].mu.Unlock()
	// The lifecycle trace must show the fault being detected and a later
	// re-established connection, in that order.
	var kinds []string
	for _, e := range pes[0].plane.Events() {
		if e.Rank == 0 && e.Peer == 1 {
			kinds = append(kinds, e.Kind)
		}
	}
	fault, readyAfter := -1, -1
	for i, k := range kinds {
		if k == "conn-link-fault" && fault < 0 {
			fault = i
		}
		if (k == "conn-ready-client" || k == "conn-ready-server") && fault >= 0 && readyAfter < 0 {
			readyAfter = i
		}
	}
	if fault < 0 || readyAfter < 0 {
		t.Fatalf("trace lacks fault->reconnect sequence: %v", kinds)
	}
}

// TestEvictionUnderLiveQPCap puts six PEs on one HCA with a live-QP cap far
// below the full mesh: establishing all-to-all traffic must evict idle
// connections (LRU) instead of failing, and every message must still arrive
// exactly once — evicted peers reconnect transparently on their next send.
func TestEvictionUnderLiveQPCap(t *testing.T) {
	const n = 6
	const cap = 8 // full mesh would need n*(n-1) = 30 live RC QPs on the HCA
	pes, _ := startJob(t, jobOpts{n: n, ppn: n, mode: OnDemand, payloads: true, maxLiveRC: cap})
	var mu sync.Mutex
	got := make(map[[2]int]int) // {dst, src} -> deliveries
	for _, p := range pes {
		dst := p.C.Rank()
		p.C.RegisterHandler(6, func(src int, a [4]uint64, pay []byte, at int64) {
			mu.Lock()
			got[[2]int{dst, src}]++
			mu.Unlock()
		})
	}
	// One message at a time, each delivered before the next is sent, so every
	// connection is idle — evictable — by the time the next one needs a queue
	// pair: the pressure is certain, not a matter of scheduling. (Eviction is
	// best-effort by design: a conduit whose connections are all busy simply
	// exceeds the cap.)
	for _, p := range pes {
		for peer := 0; peer < n; peer++ {
			if peer == p.C.Rank() {
				continue
			}
			if err := p.C.AMRequest(peer, 6, [4]uint64{}, nil); err != nil {
				t.Fatalf("AM: %v", err)
			}
			key := [2]int{peer, p.C.Rank()}
			waitUntil(t, func() bool {
				mu.Lock()
				defer mu.Unlock()
				return got[key] > 0
			})
		}
	}
	mu.Lock()
	for k, c := range got {
		if c != 1 {
			t.Fatalf("message %v delivered %d times, want 1", k, c)
		}
	}
	mu.Unlock()
	evictions := 0
	for _, p := range pes {
		evictions += p.C.Stats().Evictions
	}
	if evictions == 0 {
		t.Fatalf("no evictions despite cap %d < %d required live QPs", cap, n*(n-1))
	}
	// Exactly-once payload consumption survives eviction/reconnect cycles.
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

// TestStaticModeIgnoresQPCap: the fully connected baseline has no reconnect
// path, so a live-QP cap must not evict its connections — the cap is an
// on-demand-mode feature. A static job with a cap far below the mesh demand
// must still connect everyone, with zero evictions.
func TestStaticModeIgnoresQPCap(t *testing.T) {
	const n = 6
	pes, run := startJob(t, jobOpts{n: n, ppn: n, mode: Static, maxLiveRC: 2})
	run(func(p *pe) {
		if err := p.C.ConnectAll(); err != nil {
			t.Errorf("rank %d: %v", p.C.Rank(), err)
		}
	})
	for _, p := range pes {
		if got := p.C.NumConnected(); got != n {
			t.Fatalf("rank %d: %d ready conns, want %d", p.C.Rank(), got, n)
		}
		if ev := p.C.Stats().Evictions; ev != 0 {
			t.Fatalf("rank %d: %d evictions in static mode, want 0", p.C.Rank(), ev)
		}
	}
}

// TestFaultFreeRunsPayNoResilienceCost is the happy-path guard: with no
// injector and no cap, none of the resilience machinery may trigger — no
// faults detected, no reconnects, no evictions, no retransmissions, and the
// job has no timer queue at all (the fabric is lossless and unbudgeted), so
// no timer can ever be armed.
func TestFaultFreeRunsPayNoResilienceCost(t *testing.T) {
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
		if st.LinkFaults != 0 || st.Reconnects != 0 || st.Evictions != 0 || st.Retransmits != 0 {
			t.Fatalf("rank %d: resilience activity on a fault-free run: %+v", p.C.Rank(), st)
		}
		if st.PEFailures != 0 || st.HeartbeatsSent != 0 || st.FalseSuspicions != 0 {
			t.Fatalf("rank %d: failure-detector activity on a fault-free run: %+v", p.C.Rank(), st)
		}
		if p.C.sched != nil {
			t.Fatalf("rank %d: a lossless, unbudgeted fabric constructed a timer queue", p.C.Rank())
		}
		p.C.connMu.Lock()
		armed, timer := p.C.rtx != nil, p.C.hbTimer
		p.C.conns.each(func(peer int, cn *conn) {
			if cn.sess != nil || cn.credit != nil || cn.health != nil {
				t.Errorf("rank %d: slot %d carries a session (%v), a credit window (%v) or detector state (%v) on a lossless, unbudgeted, fault-free fabric",
					p.C.Rank(), peer, cn.sess != nil, cn.credit != nil, cn.health != nil)
			}
		})
		p.C.connMu.Unlock()
		if armed {
			t.Fatalf("rank %d: retransmission timer armed on a lossless fabric", p.C.Rank())
		}
		// With no PE faults scheduled and no explicit enable, the heartbeat
		// scan must never be armed: zero detector cost on the happy path.
		if p.C.hbArmed {
			t.Fatalf("rank %d: failure detector armed on a fault-free run", p.C.Rank())
		}
		if timer != nil {
			t.Fatalf("rank %d: heartbeat timer armed on a fault-free run", p.C.Rank())
		}
		if err := p.C.Err(); err != nil {
			t.Fatalf("rank %d: abort error on a fault-free run: %v", p.C.Rank(), err)
		}
	}
	// The fault plane's whole surface towards the conduit is four questions of
	// the fabric, and with no injector each has its healthy answer.
	fab, far := pes[0].C.cfg.HCA.Fabric(), int64(1)<<40
	if dark, _ := fab.Severed(1, 2, far); dark || !fab.RailLive(1, 2, 0, far) || fab.SeveredDuring(1, 2, 0, far) || fab.PEFate(0, far) != ib.PEAlive {
		t.Fatal("a fault-free fabric answered a path or PE question with a fault")
	}
	// ...and only ib and the launcher ever name the injector: the layers above
	// cannot reach around those four questions.
	for _, dir := range []string{".", "../shmem"} {
		files, _ := filepath.Glob(dir + "/*.go")
		for _, name := range files {
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasSuffix(name, "_test.go") && (bytes.Contains(src, []byte("FaultInjector")) || bytes.Contains(src, []byte(".Faults()"))) {
				t.Errorf("%s reaches for the fault injector; ask the fabric (RailLive, Severed, SeveredDuring, PEFate)", name)
			}
		}
	}
}
