package shmem_test

import (
	"testing"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/shmem"
)

// TestPutSignalOrdering: shmem_put_signal's contract is that the signal is
// never observable before the data it announces. Each PE streams K
// put-signals to its right neighbour; the neighbour waits on the signal
// word and must then see the final value of the in-order put stream.
func TestPutSignalOrdering(t *testing.T) {
	const n, k = 6, 20
	bothModes(t, "putsignal", cluster.Config{NP: n}, func(c *shmem.Ctx) {
		data := c.Malloc(8 * n) // word s: last value put by source s
		sig := c.Malloc(8 * n)  // word s: puts signalled by source s
		me := c.Me()
		right := (me + 1) % n
		left := (me - 1 + n) % n
		for i := 1; i <= k; i++ {
			c.P64Signal(data+shmem.SymAddr(8*me), int64(me*1000+i),
				sig+shmem.SymAddr(8*me), 1, right)
		}
		c.WaitUntilInt64(sig+shmem.SymAddr(8*left), shmem.CmpGE, k)
		if got := c.LoadInt64(data, left); got != int64(left*1000+k) {
			t.Errorf("pe %d: signal arrived before data: slot %d = %d, want %d",
				me, left, got, left*1000+k)
		}
		if got := c.LoadInt64(sig, left); got != k {
			t.Errorf("pe %d: signal word = %d, want exactly %d", me, got, k)
		}
		c.BarrierAll()
	})
}

// TestPutSignalQuietFence: a Quiet issued after put-signals must fence the
// signal messages too — even when they were queued behind an in-flight
// handshake — so a barrier after Quiet guarantees global visibility.
func TestPutSignalQuietFence(t *testing.T) {
	const n, k = 4, 10
	run(t, cluster.Config{NP: n, Mode: gasnet.OnDemand}, func(c *shmem.Ctx) {
		sig := c.Malloc(8)
		me := c.Me()
		dst := c.Malloc(8 * n)
		for pe := 0; pe < n; pe++ {
			for i := 0; i < k; i++ {
				c.P64Signal(dst+shmem.SymAddr(8*me), int64(i), sig, 1, pe)
			}
		}
		c.Quiet()
		c.BarrierAll()
		c.BarrierAll()
		if got := c.LoadInt64(sig, 0); got != int64(n*k) {
			t.Errorf("pe %d: signal word = %d after quiet+barrier, want %d", me, got, n*k)
		}
	})
}

// TestPutSignalBackpressured: under a finite receive-queue depth the signal
// stream is exactly the traffic the credit window and RNR NAK machinery
// govern; the stream must stay lossless and in order under that pressure.
func TestPutSignalBackpressured(t *testing.T) {
	const n, k = 2, 40
	cfg := cluster.Config{NP: n, PPN: 1, Mode: gasnet.OnDemand, RQDepth: 2}
	res := run(t, cfg, func(c *shmem.Ctx) {
		data := c.Malloc(8)
		sig := c.Malloc(8)
		me := c.Me()
		other := 1 - me
		for i := 1; i <= k; i++ {
			c.P64Signal(data, int64(me*1000+i), sig, 1, other)
		}
		c.WaitUntilInt64(sig, shmem.CmpGE, k)
		if got := c.LoadInt64(data, 0); got != int64(other*1000+k) {
			t.Errorf("pe %d: final data %d, want %d", me, got, other*1000+k)
		}
		c.BarrierAll()
	})
	var pressured bool
	for _, h := range res.HCA {
		if h.RNRNaks > 0 {
			pressured = true
		}
	}
	cc := res.Counters()
	if cc.CreditStalls > 0 || cc.RNRNaks > 0 {
		pressured = true
	}
	if !pressured {
		t.Errorf("depth-2 receive queues saw no backpressure: %+v hca=%+v", cc, res.HCA)
	}
}
