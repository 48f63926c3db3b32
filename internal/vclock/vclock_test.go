package vclock

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock(100)
	if got := c.Now(); got != 100 {
		t.Fatalf("Now = %d, want 100", got)
	}
	if got := c.Advance(50); got != 150 {
		t.Fatalf("Advance = %d, want 150", got)
	}
	if got := c.Advance(-7); got != 150 {
		t.Fatalf("negative Advance moved clock: %d", got)
	}
	if got := c.Advance(0); got != 150 {
		t.Fatalf("zero Advance moved clock: %d", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock(0)
	c.AdvanceTo(40)
	if c.Now() != 40 {
		t.Fatalf("AdvanceTo(40) -> %d", c.Now())
	}
	c.AdvanceTo(10) // must not go backwards
	if c.Now() != 40 {
		t.Fatalf("AdvanceTo(10) moved clock backwards: %d", c.Now())
	}
}

// Property: a clock is monotone under any interleaving of Advance/AdvanceTo
// from multiple goroutines.
func TestClockMonotoneConcurrent(t *testing.T) {
	c := NewClock(0)
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			prev := int64(0)
			for i := 0; i < 2000; i++ {
				var now int64
				if rng.Intn(2) == 0 {
					now = c.Advance(int64(rng.Intn(100)))
				} else {
					now = c.AdvanceTo(int64(rng.Intn(100000)))
				}
				if now < prev {
					t.Errorf("clock went backwards: %d < %d", now, prev)
					return
				}
				prev = now
			}
		}(int64(w))
	}
	wg.Wait()
}

func TestSeconds(t *testing.T) {
	if got := Seconds(2_500_000_000); got != 2.5 {
		t.Fatalf("Seconds = %v, want 2.5", got)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCostModelXfer(t *testing.T) {
	m := Default()
	if m.XferTime(0) != 0 {
		t.Error("XferTime(0) != 0")
	}
	// 3500 bytes at 3500 B/us should be ~1us.
	if got := m.XferTime(3500); got != 1000 {
		t.Errorf("XferTime(3500) = %d, want 1000", got)
	}
	if m.XferTime(1) <= 0 {
		t.Error("XferTime(1) should be positive")
	}
	// Monotone in n.
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.XferTime(x) <= m.XferTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCostModelFenceGrowsWithN(t *testing.T) {
	m := Default()
	prev := int64(0)
	for _, n := range []int{2, 16, 128, 1024, 8192} {
		c := m.FenceCost(n, 64)
		if c <= prev {
			t.Fatalf("FenceCost not increasing at n=%d: %d <= %d", n, c, prev)
		}
		prev = c
	}
	// Non-blocking allgather should be cheaper than a blocking fence for the
	// same exchange; that is the point of the PMIX extension.
	if m.AllgatherCost(1024, 64) >= m.FenceCost(1024, 64) {
		t.Error("AllgatherCost should be below FenceCost")
	}
}

func TestMemRegTime(t *testing.T) {
	m := Default()
	small := m.MemRegTime(4096)
	big := m.MemRegTime(64 << 20)
	if small <= 0 || big <= small {
		t.Fatalf("MemRegTime not increasing: small=%d big=%d", small, big)
	}
}

func TestVBarrierReleasesAtMaxPlusExtra(t *testing.T) {
	const n = 5
	b := NewVBarrier(n)
	clks := make([]*Clock, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		clks[i] = NewClock(int64(i * 100))
		wg.Add(1)
		go func(c *Clock) {
			defer wg.Done()
			b.Wait(c, 7)
		}(clks[i])
	}
	wg.Wait()
	want := int64((n-1)*100) + 7
	for i, c := range clks {
		if c.Now() != want {
			t.Errorf("clock %d after barrier = %d, want %d", i, c.Now(), want)
		}
	}
}

// The synchronization's cost is the largest any participant saw, whichever
// of them the host happened to run last.
func TestVBarrierExtraIndependentOfArrivalOrder(t *testing.T) {
	for _, extras := range [][2]int64{{5, 9}, {9, 5}} {
		b := NewVBarrier(2)
		first := make(chan int64)
		go func() { first <- b.Wait(NewClock(100), extras[0]) }()
		for arrived := false; !arrived; runtime.Gosched() {
			b.mu.Lock()
			arrived = b.count == 1
			b.mu.Unlock()
		}
		last := b.Wait(NewClock(100), extras[1])
		if r := <-first; r != 109 || last != 109 {
			t.Errorf("extras %v in arrival order: released at %d and %d, want 109", extras, r, last)
		}
	}
}

// Property: across many reuse generations, every participant observes the
// same, strictly increasing release times.
func TestVBarrierReuse(t *testing.T) {
	const n, rounds = 4, 50
	b := NewVBarrier(n)
	releases := make([][]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		releases[i] = make([]int64, rounds)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := NewClock(int64(id))
			rng := rand.New(rand.NewSource(int64(id)))
			for r := 0; r < rounds; r++ {
				c.Advance(int64(rng.Intn(500)))
				releases[id][r] = b.Wait(c, 3)
			}
		}(i)
	}
	wg.Wait()
	for r := 0; r < rounds; r++ {
		for i := 1; i < n; i++ {
			if releases[i][r] != releases[0][r] {
				t.Fatalf("round %d: participant %d released at %d, participant 0 at %d",
					r, i, releases[i][r], releases[0][r])
			}
		}
		if r > 0 && releases[0][r] <= releases[0][r-1] {
			t.Fatalf("release times not increasing: round %d %d <= round %d %d",
				r, releases[0][r], r-1, releases[0][r-1])
		}
	}
}

func TestLaunchCostScales(t *testing.T) {
	m := Default()
	if m.LaunchCost(16, 1) >= m.LaunchCost(8192, 512) {
		t.Error("LaunchCost should grow with job size")
	}
}
