package shmem_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/shmem"
)

// Property: for random put schedules (random offsets, sizes, targets), after
// a barrier every PE's heap equals a sequentially-computed reference.
// Writers partition the target space (each writes its own row), so the
// reference is race-free by construction.
func TestRandomPutScheduleMatchesReference(t *testing.T) {
	const n = 4
	const rowBytes = 512
	type op struct {
		Target uint8
		Off    uint16
		Len    uint8
	}
	f := func(ops []op, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Reference: ref[target][writer-row].
		ref := make([][]byte, n)
		payloads := make([][]byte, len(ops))
		for i := range ref {
			ref[i] = make([]byte, n*rowBytes)
		}
		for i, o := range ops {
			payloads[i] = make([]byte, int(o.Len)%64+1)
			rng.Read(payloads[i])
		}
		ok := true
		_, err := cluster.Run(cluster.Config{NP: n, PPN: 2, Mode: gasnet.OnDemand, SkipLaunchCost: true},
			func(c *shmem.Ctx) {
				a := c.Malloc(n * rowBytes)
				me := c.Me()
				for i, o := range ops {
					tgt := int(o.Target) % n
					off := int(o.Off) % (rowBytes - 64)
					// I write only into my row of the target's heap.
					c.PutMem(a+shmem.SymAddr(me*rowBytes+off), payloads[i], tgt)
					if me == 0 { // maintain reference once
						for w := 0; w < n; w++ {
							copy(ref[tgt][w*rowBytes+off:], payloads[i])
						}
					}
				}
				c.BarrierAll()
				got := c.Local(a, n*rowBytes)
				if !bytes.Equal(got, ref[me]) {
					ok = false
				}
				c.BarrierAll()
			})
		return err == nil && ok
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: reductions over random vectors match a serial reference for
// every operator, at a non-power-of-two PE count.
func TestReducePropertyAllOps(t *testing.T) {
	const n = 5
	f := func(raw [n][7]int64) bool {
		ops := []shmem.ReduceOp{shmem.OpSum, shmem.OpProd, shmem.OpMin, shmem.OpMax,
			shmem.OpAnd, shmem.OpOr, shmem.OpXor}
		want := make(map[shmem.ReduceOp][]int64)
		for _, op := range ops {
			acc := append([]int64(nil), raw[0][:]...)
			for r := 1; r < n; r++ {
				for i := range acc {
					acc[i] = combineRef(op, acc[i], raw[r][i])
				}
			}
			want[op] = acc
		}
		ok := true
		_, err := cluster.Run(cluster.Config{NP: n, PPN: 3, Mode: gasnet.OnDemand, SkipLaunchCost: true},
			func(c *shmem.Ctx) {
				for _, op := range ops {
					got := c.ReduceInt64(op, raw[c.Me()][:])
					for i := range got {
						if got[i] != want[op][i] {
							ok = false
						}
					}
				}
			})
		return err == nil && ok
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func combineRef(op shmem.ReduceOp, a, b int64) int64 {
	switch op {
	case shmem.OpSum:
		return a + b
	case shmem.OpProd:
		return a * b
	case shmem.OpMin:
		if b < a {
			return b
		}
		return a
	case shmem.OpMax:
		if b > a {
			return b
		}
		return a
	case shmem.OpAnd:
		return a & b
	case shmem.OpOr:
		return a | b
	default:
		return a ^ b
	}
}

// Floating-point OpMin/OpMax are math.Min/math.Max whichever instantiation
// reaches the one combine: a NaN contribution wins from any PE, and -0 orders
// below +0 (a plain b < a would drop the NaN and keep whichever zero came
// first). One row per column of the reduced vector, one contribution per PE.
func TestReduceFloatMinMaxSpecials(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	rows := [][3]float64{
		{0, negZero, 0},
		{negZero, 0, negZero},
		{1, nan, 2},
		{nan, 1, 2},
		{1, 2, nan},
		{inf, nan, -inf},
		{inf, 3, -inf},
	}
	same := func(got, want float64) bool {
		return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
	}
	run(t, cluster.Config{NP: 3, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		local := make([]float64, len(rows))
		narrow := make([]float32, len(rows))
		for i, r := range rows {
			local[i], narrow[i] = r[c.Me()], float32(r[c.Me()])
		}
		for _, tc := range []struct {
			op  shmem.ReduceOp
			ref func(a, b float64) float64
		}{{shmem.OpMin, math.Min}, {shmem.OpMax, math.Max}} {
			got := c.ReduceFloat64(tc.op, local)
			set := c.ReduceFloat64Set(c.World(), tc.op, local)
			got32 := shmem.Reduce(c, tc.op, narrow)
			for i, r := range rows {
				want := tc.ref(tc.ref(r[0], r[1]), r[2])
				if !same(got[i], want) || !same(set[i], want) || !same(float64(got32[i]), want) {
					t.Errorf("op %d over %v = %v (set %v, float32 %v), want %v",
						tc.op, r, got[i], set[i], got32[i], want)
				}
			}
		}
	})
}

// Property: FCollect of random-size contributions (equal across PEs per
// round) always returns rank-ordered concatenation.
func TestFCollectProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) > 6 {
			sizes = sizes[:6]
		}
		const n = 6
		ok := true
		_, err := cluster.Run(cluster.Config{NP: n, PPN: 3, Mode: gasnet.OnDemand, SkipLaunchCost: true},
			func(c *shmem.Ctx) {
				for _, s := range sizes {
					k := int(s)%17 + 1
					contrib := make([]int64, k)
					for i := range contrib {
						contrib[i] = int64(c.Me()*1000 + i)
					}
					got := c.FCollectInt64(contrib)
					for r := 0; r < n; r++ {
						for i := 0; i < k; i++ {
							if got[r*k+i] != int64(r*1000+i) {
								ok = false
							}
						}
					}
				}
			})
		return err == nil && ok
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: concurrent atomics from all PEs interleave linearizably — the
// multiset of FetchAdd return values for a given address is exactly the
// prefix sums of the applied deltas in some order.
func TestFetchAddLinearizability(t *testing.T) {
	const n = 6
	const perPE = 20
	results := make([][]int64, n)
	_, err := cluster.Run(cluster.Config{NP: n, PPN: 3, Mode: gasnet.OnDemand, SkipLaunchCost: true},
		func(c *shmem.Ctx) {
			a := c.Malloc(8)
			c.BarrierAll()
			mine := make([]int64, 0, perPE)
			for i := 0; i < perPE; i++ {
				mine = append(mine, c.FetchAddInt64(a, 1, 0))
			}
			results[c.Me()] = mine
			c.BarrierAll()
		})
	if err != nil {
		t.Fatal(err)
	}
	// With delta 1 everywhere, the fetched values must be a permutation of
	// 0..n*perPE-1 (each prefix observed exactly once), and each PE's own
	// sequence must be strictly increasing (program order).
	seen := make([]bool, n*perPE)
	for r, seq := range results {
		prev := int64(-1)
		for _, v := range seq {
			if v < 0 || v >= int64(n*perPE) || seen[v] {
				t.Fatalf("rank %d: fetched %d twice or out of range", r, v)
			}
			seen[v] = true
			if v <= prev {
				t.Fatalf("rank %d: fetches not increasing: %d after %d", r, v, prev)
			}
			prev = v
		}
	}
}

// Property: the static and on-demand designs produce byte-identical heaps
// for a random communication schedule, even under fault injection on the
// on-demand handshake path.
func TestModesEquivalentUnderFaults(t *testing.T) {
	const n = 4
	schedule := func(c *shmem.Ctx, a shmem.SymAddr) {
		me := c.Me()
		for i := 0; i < 10; i++ {
			tgt := (me + i) % n
			c.P64(a+shmem.SymAddr(8*((me*10+i)%32)), int64(me*100+i), tgt)
		}
		c.BarrierAll()
	}
	capture := func(mode gasnet.Mode, faults *ib.FaultInjector) [][]byte {
		heaps := make([][]byte, n)
		_, err := cluster.Run(cluster.Config{NP: n, PPN: 2, Mode: mode, Faults: faults, SkipLaunchCost: true},
			func(c *shmem.Ctx) {
				a := c.Malloc(8 * 32)
				schedule(c, a)
				heaps[c.Me()] = append([]byte(nil), c.Local(a, 8*32)...)
				c.BarrierAll()
			})
		if err != nil {
			t.Fatal(err)
		}
		return heaps
	}
	ref := capture(gasnet.Static, nil)
	fi := ib.NewFaultInjector(5)
	fi.DropProb = 0.3
	fi.DupProb = 0.2
	fi.MaxDrops = 30
	got := capture(gasnet.OnDemand, fi)
	for r := 0; r < n; r++ {
		if !bytes.Equal(ref[r], got[r]) {
			t.Fatalf("rank %d heaps differ between modes", r)
		}
	}
}
