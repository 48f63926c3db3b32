package main

import (
	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/shmem"
)

// The OpenSHMEM rungs run inside a real job (cluster.Run, launch cost
// skipped): PE 0 measures while the others either sit in a barrier, served
// by their conduit's progress thread, or take part in lockstep.

func shmemRungs(out results) {
	// Point-to-point rungs: two PEs on two nodes, the shape of the gasnet
	// rungs beneath them.
	const pingIters = 20_000
	_, err := cluster.Run(cluster.Config{NP: 2, PPN: 1, Mode: gasnet.OnDemand, SkipLaunchCost: true},
		func(c *shmem.Ctx) {
			data := c.Malloc(64 << 10)
			sig := c.Malloc(8)
			flag := c.Malloc(8)
			c.StoreInt64(flag, 0, 0)
			c.BarrierAll()
			if c.Me() == 1 {
				// Sit in a barrier while PE 0 runs its one-sided rungs, then
				// be the far end of the ping-pong: answer every flag value.
				c.BarrierAll()
				for i := 1; i <= total(pingIters); i++ {
					c.WaitUntilInt64(flag, shmem.CmpGE, int64(i))
					c.P64(flag, int64(i), 0)
				}
				c.BarrierAll()
				return
			}
			quiet := func(i, every int) {
				if (i+1)%every == 0 {
					c.Quiet()
				}
			}
			word := make([]byte, 8)
			big := make([]byte, 64<<10)
			c.PutMem(data, word, 1) // bring the connection up before the loops
			c.Quiet()

			m := measure(100_000, func(i int) { c.PutMem(data, word, 1); quiet(i, quietEvery) })
			c.Quiet()
			out.ns("shmem.put_8", m)
			out.allocs("shmem.put_8", m)
			out.ns("shmem.put_64k", measure(2_000, func(i int) { c.PutMem(data, big, 1); quiet(i, 8) }))
			c.Quiet()
			m = measure(40_000, func(int) { c.GetMem(word, data, 1) })
			out.ns("shmem.get_8", m)
			out.allocs("shmem.get_8", m)
			m = measure(40_000, func(int) { c.FetchAddInt64(data, 1, 1) })
			out.ns("shmem.fadd", m)
			out.allocs("shmem.fadd", m)
			m = measure(40_000, func(i int) { c.P64Signal(data, int64(i), sig, 1, 1); quiet(i, quietEvery) })
			c.Quiet()
			out.ns("shmem.put_signal", m)
			out.allocs("shmem.put_signal", m)
			c.BarrierAll()
			out.ns("shmem.wait_until_rtt", measure(pingIters, func(i int) {
				c.P64(flag, int64(i+1), 1)
				c.WaitUntilInt64(flag, shmem.CmpGE, int64(i+1))
			}))
			c.BarrierAll()
		})
	must(err)

	// Collectives at np 16, ppn 8: every PE runs the same loops, PE 0 times.
	const collIters = 500
	_, err = cluster.Run(cluster.Config{NP: 16, PPN: 8, Mode: gasnet.OnDemand, SkipLaunchCost: true},
		func(c *shmem.Ctx) {
			local := []float64{float64(c.Me())}
			barrier := func(int) { c.BarrierAll() }
			reduce := func(int) { c.ReduceFloat64(shmem.OpMax, local) }
			c.BarrierAll()
			if c.Me() != 0 {
				for i := 0; i < total(collIters); i++ {
					barrier(i)
				}
				for i := 0; i < total(collIters); i++ {
					reduce(i)
				}
				return
			}
			m := measure(collIters, barrier)
			out.ns("shmem.barrier_all_16", m)
			out.allocs("shmem.barrier_all_16", m)
			m = measure(collIters, reduce)
			out.ns("shmem.reduce_16", m)
			out.allocs("shmem.reduce_16", m)
		})
	must(err)
}
