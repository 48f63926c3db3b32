package shmem_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
)

func TestStridedPutGet(t *testing.T) {
	run(t, cluster.Config{NP: 2, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		a := c.Malloc(8 * 32)
		if c.Me() == 0 {
			src := []int64{10, 11, 12, 13, 14, 15, 16, 17}
			// Write every 2nd element of src into every 3rd slot at PE 1.
			c.PutInt64Strided(a, src, 3, 2, 4, 1)
			c.Quiet()
		}
		c.BarrierAll()
		if c.Me() == 1 {
			vals := c.LocalInt64(a, 12)
			want := map[int]int64{0: 10, 3: 12, 6: 14, 9: 16}
			for i, v := range vals {
				if w, ok := want[i]; ok {
					if v != w {
						t.Errorf("slot %d = %d, want %d", i, v, w)
					}
				} else if v != 0 {
					t.Errorf("slot %d = %d, want 0 (stride gap)", i, v)
				}
			}
		}
		c.BarrierAll()
		if c.Me() == 0 {
			dest := make([]int64, 8)
			// Read back every 3rd slot into every 2nd element.
			c.GetInt64Strided(dest, a, 2, 3, 4, 1)
			for i, want := range []int64{10, 0, 12, 0, 14, 0, 16, 0} {
				if dest[i] != want {
					t.Errorf("dest[%d] = %d, want %d", i, dest[i], want)
				}
			}
		}
		c.BarrierAll()
	})
}

func TestGetNBICompletesAtQuiet(t *testing.T) {
	run(t, cluster.Config{NP: 2, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		a := c.Malloc(256)
		if c.Me() == 1 {
			copy(c.Local(a, 256), bytes.Repeat([]byte{0xAB}, 256))
		}
		c.BarrierAll()
		if c.Me() == 0 {
			bufs := make([][]byte, 8)
			for i := range bufs {
				bufs[i] = make([]byte, 32)
				c.GetMemNBI(bufs[i], a+shmem.SymAddr(32*i), 1)
			}
			c.Quiet()
			for i, b := range bufs {
				if !bytes.Equal(b, bytes.Repeat([]byte{0xAB}, 32)) {
					t.Errorf("nbi get %d incomplete after quiet: %v", i, b[:4])
				}
			}
		}
		c.BarrierAll()
	})
}

func TestDistributedLockMutualExclusion(t *testing.T) {
	const n = 6
	const incsPerPE = 25
	run(t, cluster.Config{NP: n, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		l := c.NewLock()
		counter := c.Malloc(8)
		c.BarrierAll()
		for i := 0; i < incsPerPE; i++ {
			c.SetLock(l)
			// Non-atomic read-modify-write: only safe under the lock.
			v := c.G64(counter, 0)
			c.P64(counter, v+1, 0)
			c.Quiet()
			c.ClearLock(l)
		}
		c.BarrierAll()
		if c.Me() == 0 {
			if got := c.LoadInt64(counter, 0); got != n*incsPerPE {
				t.Errorf("counter = %d, want %d (lock failed to serialize)", got, n*incsPerPE)
			}
		}
	})
}

func TestTestLock(t *testing.T) {
	run(t, cluster.Config{NP: 2, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		l := c.NewLock()
		c.BarrierAll()
		if c.Me() == 0 {
			if !c.TestLock(l) {
				t.Error("uncontended TestLock should succeed")
			}
		}
		c.BarrierAll()
		if c.Me() == 1 {
			if c.TestLock(l) {
				t.Error("TestLock should fail while PE 0 holds the lock")
			}
		}
		c.BarrierAll()
		if c.Me() == 0 {
			c.ClearLock(l)
		}
		c.BarrierAll()
		if c.Me() == 1 {
			if !c.TestLock(l) {
				t.Error("TestLock should succeed after release")
			}
			c.ClearLock(l)
		}
		c.BarrierAll()
	})
}

func TestActiveSetCollectives(t *testing.T) {
	const n = 8
	run(t, cluster.Config{NP: n, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		// Even PEs form one active set: start 0, logstride 1, size 4.
		evens := shmem.ActiveSet{Start: 0, LogStride: 1, Size: 4}
		if c.Me()%2 == 0 {
			sum := c.ReduceInt64Set(evens, shmem.OpSum, []int64{int64(c.Me())})
			if sum[0] != 0+2+4+6 {
				t.Errorf("even-set sum = %d", sum[0])
			}
			var data []byte
			if c.Me() == 2 { // root index 1 -> rank 2
				data = []byte("evens")
			}
			got := c.BroadcastSet(evens, 1, data)
			if string(got) != "evens" {
				t.Errorf("broadcast got %q", got)
			}
			c.BarrierSet(evens)
		}
		c.BarrierAll()
		// Odd PEs: start 1, logstride 1, size 4 — independent set.
		odds := shmem.ActiveSet{Start: 1, LogStride: 1, Size: 4}
		if c.Me()%2 == 1 {
			max := c.ReduceInt64Set(odds, shmem.OpMax, []int64{int64(c.Me())})
			if max[0] != 7 {
				t.Errorf("odd-set max = %d", max[0])
			}
			c.BarrierSet(odds)
		}
		c.BarrierAll()
	})
}

// Set collectives run the same engine as the world ones, so they feed the same
// histograms: a job whose odd PEs call three set barriers, two set broadcasts
// and one set reduce (a reduce span plus its nested broadcast span) records
// exactly that many more samples than the same job without them.
func TestActiveSetCollectivesAreObserved(t *testing.T) {
	odds := shmem.ActiveSet{Start: 1, LogStride: 1, Size: 4}
	counts := func(setCalls bool) (barriers, collectives int64) {
		res := run(t, cluster.Config{NP: 8, Mode: gasnet.OnDemand, Obs: obs.Config{Metrics: true}},
			func(c *shmem.Ctx) {
				if !setCalls || c.Me()%2 == 0 {
					return
				}
				for i := 0; i < 3; i++ {
					c.BarrierSet(odds)
				}
				for i := 0; i < 2; i++ {
					c.BroadcastSet(odds, 1, []byte("odds"))
				}
				c.ReduceInt64Set(odds, shmem.OpSum, []int64{1})
			})
		reg := res.Obs.Registry()
		return reg.Hist("shmem.barrier_ns").Count(), reg.Hist("shmem.collective_ns").Count()
	}
	b0, c0 := counts(false)
	b1, c1 := counts(true)
	if b1-b0 != 4*3 || c1-c0 != 4*(2+2) {
		t.Errorf("set collectives recorded %d barrier and %d collective samples, want %d and %d",
			b1-b0, c1-c0, 4*3, 4*(2+2))
	}
}

func TestActiveSetMembershipPanics(t *testing.T) {
	run(t, cluster.Config{NP: 4, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		defer c.BarrierAll()
		if c.Me() == 3 {
			defer func() {
				if recover() == nil {
					t.Error("non-member collective call should panic")
				}
			}()
			c.BarrierSet(shmem.ActiveSet{Start: 0, LogStride: 0, Size: 2})
		}
	})
}

func TestAlltoallInt64(t *testing.T) {
	const n = 5
	run(t, cluster.Config{NP: n, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		send := make([]int64, n)
		for i := range send {
			send[i] = int64(c.Me()*100 + i)
		}
		got := c.AlltoallInt64(send)
		for src := 0; src < n; src++ {
			if want := int64(src*100 + c.Me()); got[src] != want {
				t.Errorf("pe %d: got[%d] = %d, want %d", c.Me(), src, got[src], want)
			}
		}
	})
}

func TestFetchSetTest(t *testing.T) {
	run(t, cluster.Config{NP: 2, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		a := c.Malloc(8)
		if c.Me() == 0 {
			c.SetInt64(a, 99, 1)
			if got := c.FetchInt64(a, 1); got != 99 {
				t.Errorf("FetchInt64 = %d", got)
			}
		}
		c.BarrierAll()
		if c.Me() == 1 {
			if !c.TestInt64(a, shmem.CmpEQ, 99) {
				t.Error("TestInt64 should see the set value")
			}
			if c.TestInt64(a, shmem.CmpGT, 100) {
				t.Error("TestInt64 false positive")
			}
		}
		c.BarrierAll()
	})
}

// Property: the lock grants FIFO-ish exclusive access even under heavy
// contention from all PEs simultaneously.
func TestLockStress(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	inCrit := 0
	maxIn := 0
	run(t, cluster.Config{NP: n, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		l := c.NewLock()
		c.BarrierAll()
		for i := 0; i < 10; i++ {
			c.SetLock(l)
			mu.Lock()
			inCrit++
			if inCrit > maxIn {
				maxIn = inCrit
			}
			mu.Unlock()
			mu.Lock()
			inCrit--
			mu.Unlock()
			c.ClearLock(l)
		}
		c.BarrierAll()
	})
	if maxIn > 1 {
		t.Fatalf("%d PEs in the critical section at once", maxIn)
	}
}

func TestWorldSet(t *testing.T) {
	run(t, cluster.Config{NP: 3, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		w := c.World()
		sum := c.ReduceInt64Set(w, shmem.OpSum, []int64{1})
		if sum[0] != 3 {
			t.Errorf("world reduce = %d", sum[0])
		}
	})
}

func TestModeStringAndSegNames(t *testing.T) {
	if gasnet.Static.String() != "static" || gasnet.OnDemand.String() != "on-demand" {
		t.Fatal("mode names")
	}
	if fmt.Sprintf("%v", gasnet.Mode(9)) == "" {
		t.Fatal("unknown mode should still print")
	}
}
