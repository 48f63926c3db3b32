package shmem_test

import (
	"bytes"
	"testing"
	"time"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/shmem"
)

// Ablation option coverage: every configuration the paper's sections IV-C/D/E
// isolate must produce correct results, not just different timings.

func TestBlockingPMIOnDemandCorrect(t *testing.T) {
	res := run(t, cluster.Config{NP: 6, Mode: gasnet.OnDemand, BlockingPMI: true},
		func(c *shmem.Ctx) {
			a := c.Malloc(8)
			c.P64(a, int64(c.Me()), (c.Me()+1)%6)
			c.BarrierAll()
			left := (c.Me() + 5) % 6
			if got := c.LoadInt64(a, 0); got != int64(left) {
				t.Errorf("pe %d: got %d", c.Me(), got)
			}
		})
	// Blocking PMI pays the fence at init.
	if res.PEs[0].Phases[shmem.PhasePMIExchange] == 0 {
		t.Fatal("blocking PMI should show fence time in the breakdown")
	}
}

func TestGlobalInitBarriersOnDemandCorrect(t *testing.T) {
	res := run(t, cluster.Config{NP: 8, PPN: 4, Mode: gasnet.OnDemand, GlobalInitBarriers: true},
		func(c *shmem.Ctx) {
			sum := c.ReduceInt64(shmem.OpSum, []int64{1})
			if sum[0] != 8 {
				t.Errorf("sum = %d", sum[0])
			}
		})
	// The global barrier during init forces connections before the app ran.
	for _, p := range res.PEs {
		if p.Phases.Fig1()[0] == 0 {
			t.Fatal("global init barrier should surface connection time")
		}
	}
}

func TestSegBroadcastWithOnDemandForcesAllToAll(t *testing.T) {
	res := run(t, cluster.Config{NP: 6, Mode: gasnet.OnDemand, SegEx: shmem.SegBroadcast},
		func(c *shmem.Ctx) {
			a := c.Malloc(8)
			c.P64(a, 7, (c.Me()+1)%6) // only one real peer
			c.BarrierAll()
		})
	// The init-time broadcast forced a connection to every peer even though
	// the app only talked to one — the paper's section IV-B inefficiency #1.
	for _, p := range res.PEs {
		if p.Stats.ConnsEstablished < 5 { // every peer (self untouched by the app)
			t.Fatalf("rank %d: %d conns; broadcast should force all-to-all",
				p.Rank, p.Stats.ConnsEstablished)
		}
	}
}

func TestFenceIsLocalNoOp(t *testing.T) {
	run(t, cluster.Config{NP: 2, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		a := c.Malloc(16)
		c.P64(a, 1, 1-c.Me())
		before := c.Clock().Now()
		c.Fence()
		if c.Clock().Now()-before > 10_000 {
			t.Error("fence should not wait for remote completion")
		}
		c.P64(a+8, 2, 1-c.Me())
		c.BarrierAll()
		// Ordering: both values present (RC delivers in order anyway).
		if c.LoadInt64(a, 0) != 1 || c.LoadInt64(a, 1) != 2 {
			t.Error("fence ordering violated")
		}
	})
}

func TestHeapAccounting(t *testing.T) {
	run(t, cluster.Config{NP: 2, Mode: gasnet.OnDemand, HeapSize: 1 << 16}, func(c *shmem.Ctx) {
		a := c.Malloc(100)
		b := c.Malloc(200)
		c.Free(a)
		c.Free(b)
		// Full heap is reusable after frees.
		big := c.Malloc(1 << 15)
		c.Free(big)
	})
}

// TestLocalViewsPanicOutOfBounds: a local view must lie inside one live
// allocation — not past the heap, not in memory nobody allocated, not across
// two blocks, not in a freed block.
func TestLocalViewsPanicOutOfBounds(t *testing.T) {
	run(t, cluster.Config{NP: 1, PPN: 1, Mode: gasnet.OnDemand, HeapSize: 4096}, func(c *shmem.Ctx) {
		a, b := c.Malloc(64), c.Malloc(64)
		freed := c.Malloc(64)
		c.Free(freed)
		for name, v := range map[string][2]int{
			"beyond the heap": {4000, 200},
			"unallocated":     {1024, 8},
			"across blocks":   {int(a) + 32, 64},
			"freed block":     {int(freed), 8},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Local %s should panic", name)
					}
				}()
				c.Local(shmem.SymAddr(v[0]), v[1])
			}()
		}
		if len(c.Local(b, 64)) != 64 {
			t.Error("Local of a whole live block is not that block")
		}
	})
}

// TestFreeBarriersBeforeRelease: shmem_free synchronizes on entry. PE 1's put
// into PE 0's block is posted late, while PE 0 is already inside Free; the
// barrier must complete it before PE 0 lets go of the block. A put that hits
// a released block fails with a remote access error nobody waits for, so the
// test looks at the block's bytes: the put must have landed in them.
func TestFreeBarriersBeforeRelease(t *testing.T) {
	want := bytes.Repeat([]byte{0xAB}, 64)
	for _, mode := range []gasnet.Mode{gasnet.Static, gasnet.OnDemand} {
		run(t, cluster.Config{NP: 2, PPN: 1, Mode: mode}, func(c *shmem.Ctx) {
			a := c.Malloc(64)
			mine := c.Local(a, 64) // still readable after Free releases the window
			if c.Me() == 1 {
				time.Sleep(20 * time.Millisecond) // host time: PE 0 is in Free by now
				c.PutMem(a, want, 0)
			}
			c.Free(a)
			if c.Me() == 0 && !bytes.Equal(mine, want) {
				t.Errorf("%v: PE 1's put did not land before PE 0 released the block", mode)
			}
		})
	}
}
