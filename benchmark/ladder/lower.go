package main

import (
	"fmt"

	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/pmi"
	"goshmem/internal/vclock"
)

// The rungs beneath the conduit: vclock, ib verbs, pmi, and obs beside them.
// The fabric executes every verb synchronously in the poster's goroutine, so
// the ib rungs are single-threaded: post, then poll the completion.

func must(err error) {
	if err != nil {
		fail(err)
	}
}

func vclockRungs(out results) {
	clk := vclock.NewClock(0)
	out.ns("vclock.advance", measure(2_000_000, func(int) { clk.Advance(1) }))

	// 16 parties cross one barrier per op; the rung is the wall time of a
	// crossing, which is mostly the host wake-up of the 15 that waited.
	const parties, iters = 16, 4_000
	bar := vclock.NewVBarrier(parties)
	var c cost
	together(parties, func(rank int) {
		clk := vclock.NewClock(0)
		if rank != 0 {
			for i := 0; i < total(iters); i++ {
				bar.Wait(clk, 0)
			}
			return
		}
		c = measure(iters, func(int) { bar.Wait(clk, 0) })
	})
	out["vclock.barrier16_ns"] = c.ns
}

// rig is a clean two-adapter fabric with one clock and one shared send+recv
// completion queue per side, the way the conduit uses them.
type rig struct {
	h1, h2   *ib.HCA
	c1, c2   *vclock.Clock
	cq1, cq2 *ib.CQ
}

func newRig() *rig {
	f := ib.NewFabric(vclock.Default(), nil)
	return &rig{h1: f.AddHCA(), h2: f.AddHCA(), c1: vclock.NewClock(0), c2: vclock.NewClock(0),
		cq1: ib.NewCQ(), cq2: ib.NewCQ()}
}

func toRTS(q *ib.QP, remote ib.Dest) {
	must(q.ToInit())
	must(q.ToRTR(remote))
	must(q.ToRTS())
}

func (r *rig) connectRC() (*ib.QP, *ib.QP) {
	q1 := r.h1.CreateQP(ib.RC, r.c1, r.cq1, r.cq1)
	q2 := r.h2.CreateQP(ib.RC, r.c2, r.cq2, r.cq2)
	toRTS(q1, q2.Addr())
	toRTS(q2, q1.Addr())
	return q1, q2
}

func poll(cq *ib.CQ) ib.Completion {
	c, ok := cq.Poll()
	if !ok || c.Status != ib.StatusOK {
		fail(fmt.Errorf("verb did not complete: ok=%v status=%v", ok, c.Status))
	}
	return c
}

func ibRungs(out results) {
	msg := make([]byte, 64)
	word := make([]byte, 8)
	big := make([]byte, 64<<10)

	r := newRig()
	u1 := r.h1.CreateQP(ib.UD, r.c1, nil, r.cq1)
	u2 := r.h2.CreateQP(ib.UD, r.c2, nil, r.cq2)
	toRTS(u1, ib.Dest{})
	toRTS(u2, ib.Dest{})
	c := measure(50_000, func(int) {
		must(u1.PostSend(ib.SendWR{Op: ib.OpSend, Dest: u2.Addr(), Data: msg}))
		poll(r.cq2)
	})
	out.ns("ib.ud_send_64", c)
	out.allocs("ib.ud_send_64", c)

	q1, _ := r.connectRC()
	c = measure(50_000, func(int) {
		must(q1.PostSend(ib.SendWR{Op: ib.OpSend, Data: msg}))
		poll(r.cq2) // the receive
		poll(r.cq1) // the send completion
	})
	out.ns("ib.rc_send_64", c)
	out.allocs("ib.rc_send_64", c)

	target := r.h2.RegisterMR(make([]byte, 64<<10), r.c2)
	rdma := func(wr ib.SendWR) func(int) {
		wr.RemoteAddr, wr.RKey = target.Base(), target.RKey()
		return func(int) {
			must(q1.PostSend(wr))
			poll(r.cq1)
		}
	}
	c = measure(100_000, rdma(ib.SendWR{Op: ib.OpRDMAWrite, Data: word}))
	out.ns("ib.rdma_write_8", c)
	out.allocs("ib.rdma_write_8", c)
	out.ns("ib.rdma_write_64k", measure(4_000, rdma(ib.SendWR{Op: ib.OpRDMAWrite, Data: big})))
	c = measure(100_000, rdma(ib.SendWR{Op: ib.OpRDMARead, Len: 8}))
	out.ns("ib.rdma_read_8", c)
	out.allocs("ib.rdma_read_8", c)
	out.ns("ib.atomic_fadd", measure(100_000, rdma(ib.SendWR{Op: ib.OpFetchAdd, Add: 1})))

	// Creation rungs run on their own fabric: they grow the adapter's tables.
	r = newRig()
	peer := r.h2.CreateQP(ib.RC, r.c2, r.cq2, r.cq2).Addr()
	c = measure(4_000, func(int) { toRTS(r.h1.CreateQP(ib.RC, r.c1, r.cq1, r.cq1), peer) })
	out.ns("ib.qp_create_rts", c)
	out.allocs("ib.qp_create_rts", c)
	out.bytes("ib.qp_create_rts", c)
	out.ns("ib.mr_register_64k", measure(4_000, func(int) { r.h1.DeregisterMR(r.h1.RegisterMR(big, r.c1)) }))
}

// pmiRungs time one whole endpoint exchange among 64 clients, the two ways
// the conduit does it: blocking Put-Fence-Get and the non-blocking allgather.
func pmiRungs(out results) {
	const clients, iters = 64, 40
	value := fmt.Sprintf("%064d", 0)
	exchange := func(round func(c *pmi.Client)) cost {
		srv := pmi.NewServer(clients, vclock.Default())
		var c cost
		together(clients, func(rank int) {
			cl := srv.Client(rank, vclock.NewClock(0))
			if rank != 0 {
				for i := 0; i < total(iters); i++ {
					round(cl)
				}
				return
			}
			c = measure(iters, func(int) { round(cl) })
		})
		return c
	}
	out.ns("pmi.put_fence_get_64", exchange(func(c *pmi.Client) {
		must(c.Put(pmi.KeyFor("ud", c.Rank()), value))
		must(c.Fence())
		for peer := 0; peer < clients; peer++ {
			if _, ok := c.Get(pmi.KeyFor("ud", peer)); !ok {
				fail(fmt.Errorf("pmi: key of rank %d missing after the fence", peer))
			}
		}
	}))
	out.ns("pmi.iallgather_64", exchange(func(c *pmi.Client) {
		if got := c.IAllgather(value).Wait(c); len(got) != clients {
			fail(fmt.Errorf("pmi: allgather returned %d values", len(got)))
		}
	}))
}

func obsRungs(out results) {
	var off *obs.PE // the disabled path every other rung and workload pays
	out.ns("obs.nop_emit", measure(2_000_000, func(i int) { off.Emit(int64(i), obs.LayerShmem, "put", 1, 8) }))
	on := obs.NewPlane(1, obs.Config{Events: true}).PE(0)
	out.ns("obs.emit", measure(400_000, func(i int) { on.Emit(int64(i), obs.LayerShmem, "put", 1, 8) }))
}
