package gasnet

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"goshmem/internal/ib"
)

// chaosSeed returns the soak's injector seed: CHAOS_SEED if set, else the
// wall clock. The seed is printed on failure so any run can be replayed with
//
//	CHAOS_SEED=<seed> go test ./internal/gasnet -run TestChaosSoak
func chaosSeed(t *testing.T) int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		return v
	}
	return time.Now().UnixNano()
}

// TestChaosSoak is the deterministic chaos harness for the connection
// lifecycle: N PEs exchange randomized all-to-all traffic while the fault
// plane injects drops, duplicates, bounded reordering, RC link flaps, PE
// slowdowns and live-QP-cap evictions, all from one seed. It asserts the
// DESIGN.md section 6 invariants under that schedule:
//
//   - every message sent is delivered exactly once (no loss, no duplication)
//   - the connect payload is consumed exactly once per peer
//   - every fully established pair has exactly one surviving RC connection,
//     cross-linked end to end
//   - the resilience machinery actually exercised (flaps, reconnects,
//     evictions all nonzero)
func TestChaosSoak(t *testing.T) {
	n, ppn, rounds := 32, 8, 3
	if testing.Short() {
		n, ppn, rounds = 12, 4, 2
	}
	seed := chaosSeed(t)
	defer func() {
		if t.Failed() {
			t.Logf("replay with CHAOS_SEED=%d", seed)
		}
	}()

	fi := ib.NewFaultInjector(seed)
	fi.DropProb = 0.25
	fi.MaxDrops = 200
	fi.DupProb = 0.15
	fi.ReorderProb = 0.2
	fi.ReorderWindow = 4
	fi.MaxReorders = 100
	fi.FlapProb = 0.05
	fi.MaxFlaps = 12
	fi.SlowProb = 0.02
	fi.SlowTime = 500_000 // 0.5 ms of virtual jitter

	qpCap := 3 * n / 4 // below the full mesh each HCA would otherwise carry
	pes, run := startJob(t, jobOpts{
		n: n, ppn: ppn, mode: OnDemand, faults: fi, payloads: true,
		maxLiveRC: qpCap,
	})

	// Exactly-once ledger: every AM carries (src, per-destination sequence).
	var mu sync.Mutex
	recv := make(map[[3]int]int) // {dst, src, seq} -> deliveries
	for _, p := range pes {
		dst := p.C.Rank()
		p.C.RegisterHandler(9, func(src int, a [4]uint64, pay []byte, at int64) {
			mu.Lock()
			recv[[3]int{dst, src, int(a[0])}]++
			mu.Unlock()
		})
	}

	// Randomized traffic: each PE walks a seeded schedule of peers. The
	// per-PE rng derives from the soak seed, so the whole run replays from
	// CHAOS_SEED alone.
	sent := make([][]int, n) // sent[src][dst] = number of messages sent
	for i := range sent {
		sent[i] = make([]int, n)
	}
	run(func(p *pe) {
		src := p.C.Rank()
		rng := rand.New(rand.NewSource(seed + int64(src)*1009))
		for r := 0; r < rounds; r++ {
			for _, dst := range rng.Perm(n) {
				if rng.Float64() < 0.35 {
					continue // irregular pattern: skip some peers some rounds
				}
				seq := sent[src][dst]
				sent[src][dst]++
				if err := p.C.AMRequest(dst, 9, [4]uint64{uint64(seq)}, []byte(fmt.Sprintf("m-%d-%d-%d", src, dst, seq))); err != nil {
					t.Errorf("AM %d->%d: %v", src, dst, err)
				}
			}
		}
		// Verification round: one final message to every peer, so every pair
		// ends the soak with a live, fully re-established connection.
		for dst := 0; dst < n; dst++ {
			seq := sent[src][dst]
			sent[src][dst]++
			if err := p.C.AMRequest(dst, 9, [4]uint64{uint64(seq)}, nil); err != nil {
				t.Errorf("AM %d->%d: %v", src, dst, err)
			}
		}
		p.C.drain() // block until every message is acknowledged: recovery runs while we wait
	})

	total := 0
	for src := range sent {
		for _, k := range sent[src] {
			total += k
		}
	}
	waitUntil(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(recv) == total
	})

	// Invariant: exactly-once delivery for every (src, dst, seq).
	mu.Lock()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			for seq := 0; seq < sent[src][dst]; seq++ {
				if c := recv[[3]int{dst, src, seq}]; c != 1 {
					mu.Unlock()
					t.Fatalf("message %d->%d seq %d delivered %d times, want 1", src, dst, seq, c)
				}
			}
		}
	}
	mu.Unlock()

	// Invariant: payload consumed exactly once per peer, across every
	// reconnect and eviction the schedule caused.
	for _, p := range pes {
		p.mu.Lock()
		for peer, cnt := range p.payCount {
			if cnt != 1 {
				p.mu.Unlock()
				t.Fatalf("rank %d consumed payload of %d %d times", p.C.Rank(), peer, cnt)
			}
		}
		p.mu.Unlock()
	}

	// Invariant: exactly one surviving RC connection per fully ready pair,
	// cross-linked end to end (my QP's remote is your QP and vice versa).
	for i, pi := range pes {
		for j, pj := range pes {
			if j <= i {
				continue
			}
			pi.C.connMu.Lock()
			ci := pi.C.conns.get(j)
			var qi *ib.QP
			if ci != nil && ci.state == connReady {
				qi = ci.qp
			}
			pi.C.connMu.Unlock()
			pj.C.connMu.Lock()
			cj := pj.C.conns.get(i)
			var qj *ib.QP
			if cj != nil && cj.state == connReady {
				qj = cj.qp
			}
			pj.C.connMu.Unlock()
			if qi == nil || qj == nil {
				continue // pair not (or no longer) fully established: legal
			}
			if qi.Remote() != qj.Addr() || qj.Remote() != qi.Addr() {
				t.Fatalf("pair (%d,%d): surviving connections not cross-linked: %v<->%v vs %v<->%v",
					i, j, qi.Addr(), qi.Remote(), qj.Addr(), qj.Remote())
			}
		}
	}

	// The schedule must actually have exercised the machinery.
	var faults, reconnects, evictions int
	for _, p := range pes {
		st := p.C.Stats()
		faults += st.LinkFaults
		reconnects += st.Reconnects
		evictions += st.Evictions
	}
	if fi.Injected().Flaps < 5 {
		t.Errorf("flaps injected = %d, want >= 5 (schedule too tame)", fi.Injected().Flaps)
	}
	if faults == 0 {
		t.Error("no link faults detected despite injected flaps")
	}
	if reconnects == 0 {
		t.Error("no reconnects despite flaps and evictions")
	}
	if evictions == 0 {
		t.Errorf("no evictions despite cap %d below the %d-PE mesh", qpCap, n)
	}
	t.Logf("seed=%d total=%d drops=%d dups/reorders=%d flaps=%d slowdowns=%d faults=%d reconnects=%d evictions=%d",
		seed, total, fi.Injected().Drops, fi.Injected().Reorders, fi.Injected().Flaps, fi.Injected().Slowdowns, faults, reconnects, evictions)
}
