package pmi

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"goshmem/internal/vclock"
)

func runJob(t *testing.T, n int, body func(c *Client, clk *vclock.Clock)) []*vclock.Clock {
	t.Helper()
	s := NewServer(n, vclock.Default())
	clks := make([]*vclock.Clock, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		clks[r] = vclock.NewClock(0)
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			body(s.Client(rank, clks[rank]), clks[rank])
		}(r)
	}
	wg.Wait()
	return clks
}

// TestKeyFor pins the per-rank key's bytes and its one allocation.
func TestKeyFor(t *testing.T) {
	for _, c := range []struct {
		prefix string
		rank   int
		want   string
	}{{"ud", 0, "ud-0"}, {"ud", 4095, "ud-4095"}, {"durable", 12, "durable-12"}} {
		if got := KeyFor(c.prefix, c.rank); got != c.want {
			t.Errorf("KeyFor(%q, %d) = %q, want %q", c.prefix, c.rank, got, c.want)
		}
	}
	var key string
	if n := testing.AllocsPerRun(100, func() { key = KeyFor("ud", 4095) }); n != 1 {
		t.Errorf("KeyFor allocates %v times, want 1", n)
	}
	_ = key
}

func TestPutFenceGet(t *testing.T) {
	const n = 8
	runJob(t, n, func(c *Client, clk *vclock.Clock) {
		c.Put(KeyFor("ud", c.Rank()), fmt.Sprintf("ep-%d", c.Rank()))
		c.Fence()
		for peer := 0; peer < n; peer++ {
			v, ok := c.Get(KeyFor("ud", peer))
			if !ok || v != fmt.Sprintf("ep-%d", peer) {
				t.Errorf("rank %d: Get(%d) = %q, %v", c.Rank(), peer, v, ok)
			}
		}
	})
}

func TestFenceSynchronizesClocks(t *testing.T) {
	const n = 4
	clks := runJob(t, n, func(c *Client, clk *vclock.Clock) {
		clk.Advance(int64(c.Rank()) * 1000) // staggered arrival
		c.Fence()
	})
	want := clks[0].Now()
	for i, c := range clks {
		if c.Now() != want {
			t.Fatalf("clock %d = %d, want %d", i, c.Now(), want)
		}
	}
	m := vclock.Default()
	if want < (n-1)*1000+m.FenceCost(n, 0) {
		t.Fatalf("fence release %d below max-arrival+cost", want)
	}
}

func TestFenceCostGrowsWithData(t *testing.T) {
	measure := func(valSize int) int64 {
		s := NewServer(2, vclock.Default())
		clks := []*vclock.Clock{vclock.NewClock(0), vclock.NewClock(0)}
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				c := s.Client(rank, clks[rank])
				c.Put(KeyFor("k", rank), string(make([]byte, valSize)))
				c.Fence()
			}(r)
		}
		wg.Wait()
		return clks[0].Now()
	}
	if small, big := measure(8), measure(1<<16); big <= small {
		t.Fatalf("fence cost should grow with KVS data: %d <= %d", big, small)
	}
}

func TestIAllgatherGathersAll(t *testing.T) {
	const n = 16
	runJob(t, n, func(c *Client, clk *vclock.Clock) {
		op := c.IAllgather(fmt.Sprintf("v%d", c.Rank()))
		vals := op.Wait(c)
		if len(vals) != n {
			t.Errorf("got %d vals", len(vals))
			return
		}
		for i, v := range vals {
			if v != fmt.Sprintf("v%d", i) {
				t.Errorf("vals[%d] = %q", i, v)
			}
		}
	})
}

// The core overlap property from the paper's section IV-D: a PE that does
// enough independent work between IAllgather and Wait pays (almost) nothing
// for the exchange, whereas calling Wait immediately exposes the full cost.
func TestIAllgatherOverlapHidesCost(t *testing.T) {
	const n = 64
	run := func(overlap int64) int64 {
		s := NewServer(n, vclock.Default())
		clks := make([]*vclock.Clock, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			clks[r] = vclock.NewClock(0)
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				c := s.Client(rank, clks[rank])
				op := c.IAllgather("endpoint-info-endpoint-info")
				clks[rank].Advance(overlap) // independent work
				op.Wait(c)
			}(r)
		}
		wg.Wait()
		max := int64(0)
		for _, c := range clks {
			if c.Now() > max {
				max = c.Now()
			}
		}
		return max
	}
	m := vclock.Default()
	agCost := m.AllgatherCost(n, 26)
	noOverlap := run(0)
	bigOverlap := run(10 * agCost)
	launch := m.PMINonBlockingLaunch
	// With enough overlap, total time should be just the overlap work plus
	// the launch cost — the exchange is fully hidden.
	if bigOverlap > 10*agCost+launch+1000 {
		t.Fatalf("exchange not hidden: total=%d overlapwork=%d", bigOverlap, 10*agCost)
	}
	if noOverlap < agCost {
		t.Fatalf("unoverlapped wait should expose the exchange cost: %d < %d", noOverlap, agCost)
	}
}

func TestIAllgatherMultipleRounds(t *testing.T) {
	const n, rounds = 5, 7
	runJob(t, n, func(c *Client, clk *vclock.Clock) {
		for round := 0; round < rounds; round++ {
			op := c.IAllgather(fmt.Sprintf("r%d-p%d", round, c.Rank()))
			vals := op.Wait(c)
			for i, v := range vals {
				if want := fmt.Sprintf("r%d-p%d", round, i); v != want {
					t.Errorf("round %d: vals[%d] = %q, want %q", round, i, v, want)
				}
			}
		}
	})
}

func TestRingNeighbours(t *testing.T) {
	const n = 9
	runJob(t, n, func(c *Client, clk *vclock.Clock) {
		l, r := c.Ring(fmt.Sprintf("%d", c.Rank()))
		wantL := fmt.Sprintf("%d", (c.Rank()-1+n)%n)
		wantR := fmt.Sprintf("%d", (c.Rank()+1)%n)
		if l != wantL || r != wantR {
			t.Errorf("rank %d: ring = (%s,%s), want (%s,%s)", c.Rank(), l, r, wantL, wantR)
		}
	})
}

func TestRingCheaperThanFence(t *testing.T) {
	const n = 512
	m := vclock.Default()
	// Ring release = max arrival + hop + put; Fence = FenceCost which grows
	// with N. This is the motivation for PMIX_Ring.
	if m.PMIFenceHop+m.PMIPut >= m.FenceCost(n, 26) {
		t.Fatal("ring cost should be far below fence cost at scale")
	}
}

func TestClientRankValidation(t *testing.T) {
	s := NewServer(2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range rank should panic")
		}
	}()
	s.Client(5, vclock.NewClock(0))
}

func TestGetMissing(t *testing.T) {
	s := NewServer(1, nil)
	c := s.Client(0, vclock.NewClock(0))
	if _, ok := c.Get("nope"); ok {
		t.Fatal("Get of missing key returned ok")
	}
}

// TestFenceEpochClosedOncePerFence: a fence's modeled cost grows with what was
// published in its epoch, so the epoch's byte count has to be closed exactly
// once, before the barrier releases anybody. It used to be zeroed by every
// client on its way out, so a Put a fast client issued for the next epoch was
// wiped when a slower client got round to leaving, and the next fence's cost
// depended on host order. Here rank `fast` is the last into the first fence —
// it never blocks, and publishes for the second epoch at once — and whichever
// rank that is, the second fence costs what the model says for both Puts.
func TestFenceEpochClosedOncePerFence(t *testing.T) {
	const at = 1 << 40 // both clocks enter the second fence here: release - at is its cost
	big, small := string(make([]byte, 1<<16)), "x"
	m := vclock.Default()
	want := m.FenceCost(2, (len("k-0")+len(big)+len("k-1")+len(small))/2)
	for fast := 0; fast < 2; fast++ {
		s := NewServer(2, m)
		clks := [2]*vclock.Clock{vclock.NewClock(0), vclock.NewClock(0)}
		cl := [2]*Client{s.Client(0, clks[0]), s.Client(1, clks[1])}
		slow := 1 - fast
		inFence, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			close(inFence)
			cl[slow].Fence()
			cl[slow].Put(KeyFor("k", 1), small)
			clks[slow].AdvanceTo(at)
			cl[slow].Fence()
		}()
		<-inFence
		for s.fencedNow() == 0 { // until the slow client is inside the first fence
			runtime.Gosched()
		}
		cl[fast].Fence()
		cl[fast].Put(KeyFor("k", 0), big)
		clks[fast].AdvanceTo(at)
		cl[fast].Fence()
		<-done
		if got := clks[fast].Now() - at; got != want {
			t.Fatalf("rank %d last into the first fence: the second costs %d, want %d", fast, got, want)
		}
	}
}

func (s *Server) fencedNow() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fenced
}

// TestOnAbortDeliversOnce: a subscriber registered before the abort and one
// registered after it each get the notice exactly once, and a second
// RaiseAbort delivers nothing.
func TestOnAbortDeliversOnce(t *testing.T) {
	s := NewServer(2, vclock.Default())
	var got [2][]AbortNotice
	s.Client(0, vclock.NewClock(0)).OnAbort(func(n AbortNotice) { got[0] = append(got[0], n) })
	first := AbortNotice{Origin: 1, Dead: 0, Code: 1, Reason: "first"}
	s.Client(1, vclock.NewClock(0)).RaiseAbort(first)
	s.Client(1, vclock.NewClock(0)).OnAbort(func(n AbortNotice) { got[1] = append(got[1], n) })
	s.RaiseAbort(AbortNotice{Origin: -1, Dead: -1, Code: 124, Reason: "second"})
	for i, ns := range got {
		if len(ns) != 1 || ns[0] != first {
			t.Errorf("subscriber %d got %+v, want exactly [%+v]", i, ns, first)
		}
	}
}
