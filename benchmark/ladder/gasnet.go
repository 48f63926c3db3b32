package main

import (
	"fmt"

	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/pmi"
	"goshmem/internal/vclock"
)

// The conduit rungs: a fabric, a PMI server and conduits from gasnet.New,
// one PE per adapter so that every peer is an inter-node peer. The data-plane
// rungs use the shape rma_small does: one-sided ops stream to one live
// connection and complete at a Quiet every 64 (every 8 for 64 KiB puts);
// blocking ops (get, fetch-add, the AM round trip) complete one at a time.

const quietEvery = 64

// endpoint is one PE of a conduit job, with a registered region to aim at.
type endpoint struct {
	c  *gasnet.Conduit
	mr *ib.MR
}

// conduitJob brings n on-demand conduits up to the point shmem.Attach would:
// endpoints exchanged, heap registered, ready to accept connections.
func conduitJob(n int, faults *ib.FaultInjector) []endpoint {
	model := vclock.Default()
	fab := ib.NewFabric(model, faults)
	srv := pmi.NewServer(n, model)
	pes := make([]endpoint, n)
	payload := make([]byte, 24) // the size of shmem's <addr,size,rkey> triplet
	for r := range pes {
		clk := vclock.NewClock(0)
		pes[r].c = gasnet.New(gasnet.Config{
			Rank: r, NProcs: n, Node: r, PPN: 1,
			HCA: fab.AddHCA(), PMI: srv.Client(r, clk), Clock: clk,
			Mode: gasnet.OnDemand, NodeBarrier: vclock.NewVBarrier(1),
			ConnectPayload:   func() []byte { return payload },
			OnConnectPayload: func(int, []byte, int64) {},
		})
	}
	together(n, func(r int) {
		must(pes[r].c.ExchangeEndpoints())
		pes[r].mr = pes[r].c.RegisterHeap(make([]byte, 64<<10))
		pes[r].c.SetReady()
	})
	return pes
}

func closeAll(pes []endpoint) {
	for _, p := range pes {
		p.c.Close()
	}
}

func gasnetRungs(out results) {
	// Construction at NProcs 512, static mode: the per-PE tables sized by the
	// job. The conduits are closed after the loop's readings are taken.
	{
		const n = 512
		model := vclock.Default()
		fab := ib.NewFabric(model, nil)
		srv := pmi.NewServer(n, model)
		hca, bar := fab.AddHCA(), vclock.NewVBarrier(n)
		var made []*gasnet.Conduit
		c := measure(n/2, func(i int) {
			clk := vclock.NewClock(0)
			made = append(made, gasnet.New(gasnet.Config{
				Rank: i % n, NProcs: n, Node: 0, PPN: n,
				HCA: hca, PMI: srv.Client(i%n, clk), Clock: clk,
				Mode: gasnet.Static, NodeBarrier: bar,
			}))
		})
		for _, c := range made {
			c.Close()
		}
		out.ns("gasnet.new_512", c)
		out.allocs("gasnet.new_512", c)
		out.bytes("gasnet.new_512", c)
	}

	// The handshake: EnsureConnected to a peer never spoken to, both ends'
	// work. The first connection also completes the endpoint allgather, so
	// one spare peer takes that before the loops start.
	{
		const iters = 200
		pes := conduitJob(2+total(iters), nil)
		must(pes[0].c.EnsureConnected(len(pes) - 1))
		c := measure(iters, func(i int) { must(pes[0].c.EnsureConnected(1 + i)) })
		closeAll(pes)
		out.ns("gasnet.handshake", c)
		out.allocs("gasnet.handshake", c)
		out.bytes("gasnet.handshake", c)
	}

	dataPlane(out, "", nil)
	// The same rungs on a fabric whose injector has every probability at
	// zero: the session framing is armed and no fault ever fires, so armed
	// minus clean is the price of the fault plane on the hot path.
	dataPlane(out, "_armed", ib.NewFaultInjector(1))
}

const (
	amPing uint8 = 1
	amPong uint8 = 2
)

func dataPlane(out results, suffix string, faults *ib.FaultInjector) {
	pes := conduitJob(2, faults)
	defer closeAll(pes)
	me, to := pes[0].c, pes[1]
	raddr, rkey := to.mr.Base(), to.mr.RKey()
	must(me.EnsureConnected(1))

	word := make([]byte, 8)
	c := measure(100_000, func(i int) {
		must(me.Put(1, raddr, rkey, word))
		if (i+1)%quietEvery == 0 {
			me.Quiet()
		}
	})
	me.Quiet()
	out.ns("gasnet.put_8"+suffix, c)
	out.allocs("gasnet.put_8"+suffix, c)

	pong := make(chan struct{}, 1)
	to.c.RegisterHandler(amPing, func(src int, args [4]uint64, _ []byte, _ int64) {
		must(to.c.AMRequest(src, amPong, args, nil))
	})
	me.RegisterHandler(amPong, func(int, [4]uint64, []byte, int64) { pong <- struct{}{} })
	c = measure(20_000, func(i int) {
		must(me.AMRequest(1, amPing, [4]uint64{uint64(i)}, nil))
		<-pong
	})
	out.ns("gasnet.am_rtt"+suffix, c)
	out.allocs("gasnet.am_rtt"+suffix, c)
	if faults != nil {
		return // the armed pair is put_8 and am_rtt only
	}

	big := make([]byte, 64<<10)
	out.ns("gasnet.put_64k", measure(2_000, func(i int) {
		must(me.Put(1, raddr, rkey, big))
		if (i+1)%8 == 0 {
			me.Quiet()
		}
	}))
	me.Quiet()
	c = measure(40_000, func(int) { must(me.Get(1, raddr, rkey, word)) })
	out.ns("gasnet.get_8", c)
	out.allocs("gasnet.get_8", c)
	c = measure(40_000, func(int) {
		if _, err := me.FetchAdd(1, raddr, rkey, 1); err != nil {
			fail(fmt.Errorf("fetch-add: %w", err))
		}
	})
	out.ns("gasnet.fadd", c)
	out.allocs("gasnet.fadd", c)
}
