package shmem_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/shmem"
)

func run(t *testing.T, cfg cluster.Config, app func(c *shmem.Ctx)) *cluster.Result {
	t.Helper()
	if cfg.PPN == 0 {
		cfg.PPN = 4
	}
	cfg.SkipLaunchCost = true
	res, err := cluster.Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func bothModes(t *testing.T, name string, cfg cluster.Config, app func(c *shmem.Ctx)) {
	for _, mode := range []gasnet.Mode{gasnet.Static, gasnet.OnDemand} {
		mode := mode
		t.Run(name+"/"+mode.String(), func(t *testing.T) {
			c := cfg
			c.Mode = mode
			run(t, c, app)
		})
	}
}

func TestHelloWorldBothModes(t *testing.T) {
	bothModes(t, "hello", cluster.Config{NP: 8}, func(c *shmem.Ctx) {
		if c.Me() < 0 || c.Me() >= c.NPEs() || c.NPEs() != 8 {
			t.Errorf("bad identity %d/%d", c.Me(), c.NPEs())
		}
	})
}

// A heap smaller than the allocator's alignment unit is rounded up to one:
// osu's -max 4 asks for a 4-byte heap and used to die in its first Malloc.
func TestTinyHeapServesMalloc(t *testing.T) {
	run(t, cluster.Config{NP: 2, HeapSize: 1}, func(c *shmem.Ctx) {
		c.PutMem(c.Malloc(1), []byte{7}, 1-c.Me())
		c.BarrierAll()
	})
}

func TestPutGetRoundtrip(t *testing.T) {
	const n = 6
	bothModes(t, "putget", cluster.Config{NP: n}, func(c *shmem.Ctx) {
		buf := c.Malloc(1024)
		me := c.Me()
		right := (me + 1) % n
		// Write my pattern into my right neighbour's buffer.
		pattern := make([]byte, 256)
		for i := range pattern {
			pattern[i] = byte(me*31 + i)
		}
		c.PutMem(buf, pattern, right)
		c.BarrierAll()
		// My buffer now holds my left neighbour's pattern.
		left := (me - 1 + n) % n
		local := c.Local(buf, 256)
		for i := range local {
			if local[i] != byte(left*31+i) {
				t.Errorf("pe %d byte %d: got %d want %d", me, i, local[i], byte(left*31+i))
				return
			}
		}
		// And everyone can read anyone's buffer with Get.
		got := make([]byte, 256)
		c.GetMem(got, buf, right)
		wantFrom := me // right's buffer holds right's left = me
		for i := range got {
			if got[i] != byte(wantFrom*31+i) {
				t.Errorf("get mismatch at %d", i)
				return
			}
		}
	})
}

func TestTypedPutGet(t *testing.T) {
	run(t, cluster.Config{NP: 2, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		a := c.Malloc(8 * 16)
		if c.Me() == 0 {
			vals := []int64{-5, 1 << 40, 0, 42}
			c.PutInt64(a, vals, 1)
			fvals := []float64{3.14, -2.5e10}
			c.PutFloat64(a+64, fvals, 1)
			c.Quiet()
		}
		c.BarrierAll()
		if c.Me() == 1 {
			got := c.LocalInt64(a, 4)
			want := []int64{-5, 1 << 40, 0, 42}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("int64[%d] = %d, want %d", i, got[i], want[i])
				}
			}
			fgot := c.LocalFloat64(a+64, 2)
			if fgot[0] != 3.14 || fgot[1] != -2.5e10 {
				t.Errorf("float64 = %v", fgot)
			}
		}
		c.BarrierAll()
		if c.Me() == 0 {
			if v := c.G64(a, 1); v != -5 {
				t.Errorf("G64 = %d", v)
			}
			var got [4]int64
			c.GetInt64(got[:], a, 1)
			if got[3] != 42 {
				t.Errorf("GetInt64 = %v", got)
			}
		}
	})
}

func TestAtomicsSumExactly(t *testing.T) {
	const n = 8
	const addsPerPE = 50
	bothModes(t, "atomics", cluster.Config{NP: n}, func(c *shmem.Ctx) {
		ctr := c.Malloc(8)
		for i := 0; i < addsPerPE; i++ {
			c.AddInt64(ctr, int64(c.Me()+1), 0)
		}
		c.BarrierAll()
		if c.Me() == 0 {
			want := int64(0)
			for r := 1; r <= n; r++ {
				want += int64(r) * addsPerPE
			}
			if got := c.LoadInt64(ctr, 0); got != want {
				t.Errorf("counter = %d, want %d", got, want)
			}
		}
	})
}

// TestMisalignedAtomicSameInBothModes: a fetch-add on a misaligned symmetric
// address, issued as each PE's very first operation to a peer no barrier has
// connected it to, must fail the same way — same error, on every PE, and
// never a hang — whether the connection was there all along (static) or is
// being established underneath the operation (on-demand).
func TestMisalignedAtomicSameInBothModes(t *testing.T) {
	const n = 8
	outcome := map[gasnet.Mode][]string{}
	for _, mode := range []gasnet.Mode{gasnet.Static, gasnet.OnDemand} {
		got := make([]string, n)
		run(t, cluster.Config{NP: n, Mode: mode, StallTimeout: 10 * time.Second}, func(c *shmem.Ctx) {
			word := c.Malloc(16)
			func() {
				defer func() {
					err, _ := recover().(error)
					if !errors.Is(err, ib.ErrUnaligned) {
						t.Errorf("%v, pe %d: misaligned fetch-add: %v, want %v", mode, c.Me(), err, ib.ErrUnaligned)
					}
					got[c.Me()] = fmt.Sprint(err)
				}()
				// Dissemination barriers reach me±1, ±2, ±4: me+3 is a stranger.
				c.FetchAddInt64(word+4, 1, (c.Me()+3)%n)
			}()
			c.BarrierAll()
			if v := c.LoadInt64(word, 0) | c.LoadInt64(word, 1); v != 0 {
				t.Errorf("%v, pe %d: a refused atomic touched the target: %#x", mode, c.Me(), v)
			}
		})
		outcome[mode] = got
	}
	for pe := range outcome[gasnet.Static] {
		if st, od := outcome[gasnet.Static][pe], outcome[gasnet.OnDemand][pe]; st != od {
			t.Errorf("pe %d: static fails with %q, on-demand with %q", pe, st, od)
		}
	}
}

func TestAtomicSwapAndCswap(t *testing.T) {
	run(t, cluster.Config{NP: 4, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		lock := c.Malloc(8)
		token := c.Malloc(8)
		c.BarrierAll()
		// Spin-lock on PE 0 protects a read-modify-write of a token.
		for {
			if c.CompareSwapInt64(lock, 0, int64(c.Me())+1, 0) == 0 {
				break
			}
		}
		v := c.G64(token, 0)
		c.P64(token, v+1, 0)
		c.Quiet()
		if c.SwapInt64(lock, 0, 0) != int64(c.Me())+1 {
			t.Errorf("pe %d: lock stolen", c.Me())
		}
		c.BarrierAll()
		if c.Me() == 0 {
			if got := c.LoadInt64(token, 0); got != 4 {
				t.Errorf("token = %d, want 4", got)
			}
		}
	})
}

func TestFetchIncUnique(t *testing.T) {
	const n = 7
	var mu sync.Mutex
	seen := map[int64]int{}
	run(t, cluster.Config{NP: n, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		ctr := c.Malloc(8)
		got := c.FetchIncInt64(ctr, 0)
		mu.Lock()
		seen[got]++
		mu.Unlock()
		c.BarrierAll()
	})
	if len(seen) != n {
		t.Fatalf("fetch-inc returned %d distinct values, want %d: %v", len(seen), n, seen)
	}
}

func TestBarrierHappensBefore(t *testing.T) {
	const n = 5
	bothModes(t, "barrier", cluster.Config{NP: n}, func(c *shmem.Ctx) {
		flag := c.Malloc(8)
		c.P64(flag, int64(c.Me())+100, (c.Me()+1)%n)
		c.BarrierAll() // includes quiet
		left := (c.Me() - 1 + n) % n
		if got := c.LoadInt64(flag, 0); got != int64(left)+100 {
			t.Errorf("pe %d: flag = %d, want %d", c.Me(), got, left+100)
		}
		c.BarrierAll()
	})
}

func TestWaitUntil(t *testing.T) {
	run(t, cluster.Config{NP: 2, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		flag := c.Malloc(8)
		data := c.Malloc(8)
		if c.Me() == 0 {
			c.P64(data, 777, 1)
			c.Quiet()         // data visible before flag
			c.P64(flag, 1, 1) // then raise flag
			c.Quiet()
		} else {
			c.WaitUntilInt64(flag, shmem.CmpEQ, 1)
			if got := c.LoadInt64(data, 0); got != 777 {
				t.Errorf("data after wait = %d", got)
			}
		}
		c.BarrierAll()
	})
}

func TestBroadcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 13} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			run(t, cluster.Config{NP: n, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
				root := n / 2
				var data []byte
				if c.Me() == root {
					data = []byte("broadcast-payload")
				}
				got := c.BroadcastBytes(root, data)
				if string(got) != "broadcast-payload" {
					t.Errorf("pe %d got %q", c.Me(), got)
				}
				c.BarrierAll()
			})
		})
	}
}

func TestReduceMatchesSerialReference(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 11} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			inputs := make([][]int64, n)
			const k = 9
			for r := range inputs {
				inputs[r] = make([]int64, k)
				for i := range inputs[r] {
					inputs[r][i] = int64(rng.Intn(2001) - 1000)
				}
			}
			wantSum := make([]int64, k)
			wantMin := make([]int64, k)
			wantMax := make([]int64, k)
			for i := 0; i < k; i++ {
				wantMin[i] = inputs[0][i]
				wantMax[i] = inputs[0][i]
				for r := 0; r < n; r++ {
					wantSum[i] += inputs[r][i]
					if inputs[r][i] < wantMin[i] {
						wantMin[i] = inputs[r][i]
					}
					if inputs[r][i] > wantMax[i] {
						wantMax[i] = inputs[r][i]
					}
				}
			}
			run(t, cluster.Config{NP: n, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
				sum := c.ReduceInt64(shmem.OpSum, inputs[c.Me()])
				min := c.ReduceInt64(shmem.OpMin, inputs[c.Me()])
				max := c.ReduceInt64(shmem.OpMax, inputs[c.Me()])
				for i := 0; i < k; i++ {
					if sum[i] != wantSum[i] || min[i] != wantMin[i] || max[i] != wantMax[i] {
						t.Errorf("pe %d elem %d: sum/min/max = %d/%d/%d want %d/%d/%d",
							c.Me(), i, sum[i], min[i], max[i], wantSum[i], wantMin[i], wantMax[i])
						return
					}
				}
			})
		})
	}
}

func TestReduceFloat64(t *testing.T) {
	const n = 6
	run(t, cluster.Config{NP: n, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		v := []float64{float64(c.Me()) + 0.5}
		sum := c.ReduceFloat64(shmem.OpSum, v)
		want := 0.0
		for r := 0; r < n; r++ {
			want += float64(r) + 0.5
		}
		if sum[0] != want {
			t.Errorf("sum = %v, want %v", sum[0], want)
		}
		max := c.ReduceFloat64(shmem.OpMax, v)
		if max[0] != float64(n-1)+0.5 {
			t.Errorf("max = %v", max[0])
		}
	})
}

func TestFCollectOrdering(t *testing.T) {
	for _, n := range []int{1, 2, 4, 6, 9} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			run(t, cluster.Config{NP: n, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
				got := c.FCollectInt64([]int64{int64(c.Me() * 10), int64(c.Me()*10 + 1)})
				if len(got) != 2*n {
					t.Errorf("len = %d", len(got))
					return
				}
				for r := 0; r < n; r++ {
					if got[2*r] != int64(r*10) || got[2*r+1] != int64(r*10+1) {
						t.Errorf("pe %d: block %d = %v", c.Me(), r, got[2*r:2*r+2])
						return
					}
				}
			})
		})
	}
}

func TestCollectVariableSizes(t *testing.T) {
	const n = 5
	run(t, cluster.Config{NP: n, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		contrib := make([]byte, c.Me()+1) // rank r contributes r+1 bytes
		for i := range contrib {
			contrib[i] = byte(c.Me())
		}
		got := c.CollectBytes(contrib)
		want := 0
		for r := 0; r < n; r++ {
			want += r + 1
		}
		if len(got) != want {
			t.Errorf("len = %d, want %d", len(got), want)
			return
		}
		idx := 0
		for r := 0; r < n; r++ {
			for i := 0; i <= r; i++ {
				if got[idx] != byte(r) {
					t.Errorf("byte %d = %d, want %d", idx, got[idx], r)
					return
				}
				idx++
			}
		}
	})
}

func TestMallocSymmetricAndFree(t *testing.T) {
	const n = 4
	var mu sync.Mutex
	addrs := make(map[int][]shmem.SymAddr)
	run(t, cluster.Config{NP: n, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		a := c.Malloc(100)
		b := c.Malloc(64)
		c.Free(a)
		d := c.Malloc(32) // reuses freed space deterministically
		mu.Lock()
		addrs[c.Me()] = []shmem.SymAddr{a, b, d}
		mu.Unlock()
	})
	for r := 1; r < n; r++ {
		for i := range addrs[0] {
			if addrs[r][i] != addrs[0][i] {
				t.Fatalf("rank %d addr %d = %d, rank 0 = %d (symmetry broken)",
					r, i, addrs[r][i], addrs[0][i])
			}
		}
	}
}

func TestSegExchangeStrategies(t *testing.T) {
	for _, seg := range []shmem.SegExchange{shmem.SegPiggyback, shmem.SegAMOnDemand} {
		seg := seg
		t.Run(fmt.Sprintf("seg=%d", seg), func(t *testing.T) {
			run(t, cluster.Config{NP: 4, Mode: gasnet.OnDemand, SegEx: seg}, func(c *shmem.Ctx) {
				a := c.Malloc(64)
				c.P64(a, int64(c.Me()), (c.Me()+1)%4)
				c.BarrierAll()
				left := (c.Me() + 3) % 4
				if got := c.LoadInt64(a, 0); got != int64(left) {
					t.Errorf("pe %d: got %d", c.Me(), got)
				}
			})
		})
	}
}

func TestStartupPhaseShapes(t *testing.T) {
	const n = 16
	static := run(t, cluster.Config{NP: n, PPN: 4, Mode: gasnet.Static}, func(c *shmem.Ctx) {})
	ondemand := run(t, cluster.Config{NP: n, PPN: 4, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {})

	// Figure 1's buckets: conn, pmi, memreg, shmem, other.
	sb := static.PEs[0].Phases.Fig1()
	ob := ondemand.PEs[0].Phases.Fig1()
	if sb[0] <= 0 {
		t.Error("static init should spend time in connection setup")
	}
	if ob[0] >= sb[0]/4 {
		t.Errorf("on-demand connection setup should be near zero: %d vs static %d", ob[0], sb[0])
	}
	if ob[1] >= sb[1]/2 {
		t.Errorf("non-blocking PMI exchange should be much cheaper: %d vs %d", ob[1], sb[1])
	}
	if ondemand.InitAvg >= static.InitAvg {
		t.Errorf("on-demand init (%d) should beat static (%d)", ondemand.InitAvg, static.InitAvg)
	}
	// Buckets sum to the total.
	total := sb[0] + sb[1] + sb[2] + sb[3] + sb[4]
	if total != static.PEs[0].InitVT {
		t.Errorf("breakdown buckets %d != init VT %d", total, static.PEs[0].InitVT)
	}
}

func TestStaticAndOnDemandSameResults(t *testing.T) {
	const n = 6
	results := map[string][]int64{}
	var mu sync.Mutex
	for _, mode := range []gasnet.Mode{gasnet.Static, gasnet.OnDemand} {
		key := mode.String()
		run(t, cluster.Config{NP: n, Mode: mode}, func(c *shmem.Ctx) {
			a := c.Malloc(8 * n)
			// Everyone scatters its rank^2 to slot Me() on every PE.
			for pe := 0; pe < n; pe++ {
				c.P64(a+shmem.SymAddr(8*c.Me()), int64(c.Me()*c.Me()), pe)
			}
			c.BarrierAll()
			vals := c.LocalInt64(a, n)
			sum := c.ReduceInt64(shmem.OpSum, vals)
			if c.Me() == 0 {
				mu.Lock()
				results[key] = sum
				mu.Unlock()
			}
			c.BarrierAll()
		})
	}
	s, o := results["static"], results["on-demand"]
	if len(s) == 0 || len(o) == 0 {
		t.Fatal("missing results")
	}
	for i := range s {
		if s[i] != o[i] {
			t.Fatalf("modes disagree at %d: %d vs %d", i, s[i], o[i])
		}
	}
}

func TestPeersExcludesSelf(t *testing.T) {
	res := run(t, cluster.Config{NP: 4, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		a := c.Malloc(8)
		c.P64(a, 1, c.Me())       // self traffic
		c.P64(a, 1, (c.Me()+1)%4) // one real peer
		c.Quiet()
		c.BarrierAll()
	})
	for _, p := range res.PEs {
		// 1 explicit peer + barrier partners (log2(4)=2 peers at distance 1,2;
		// distance-1 overlaps the explicit peer).
		if p.Peers < 1 || p.Peers > 3 {
			t.Fatalf("rank %d peers = %d, want 1..3", p.Rank, p.Peers)
		}
	}
}

func TestOnDemandEndpointSavings(t *testing.T) {
	const n = 8
	app := func(c *shmem.Ctx) {
		a := c.Malloc(8)
		c.P64(a, 9, (c.Me()+1)%n) // nearest-neighbour only
		c.BarrierAll()
	}
	st := run(t, cluster.Config{NP: n, Mode: gasnet.Static}, app)
	od := run(t, cluster.Config{NP: n, Mode: gasnet.OnDemand}, app)
	if od.AvgEndpoints() >= st.AvgEndpoints()/1.5 {
		t.Fatalf("on-demand endpoints %.1f should be well below static %.1f",
			od.AvgEndpoints(), st.AvgEndpoints())
	}
}

func TestHeapBoundsFault(t *testing.T) {
	run(t, cluster.Config{NP: 2, Mode: gasnet.OnDemand, HeapSize: 4096}, func(c *shmem.Ctx) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-segment put should panic")
			}
			c.BarrierAll()
		}()
		c.PutMem(shmem.SymAddr(4095), []byte{1, 2, 3, 4}, 1-c.Me())
	})
}
