package shmem

import (
	"fmt"

	"goshmem/internal/obs"
)

// Put-with-signal (shmem_putmem_signal, OpenSHMEM 1.5 §9.8): a one-sided put
// whose delivery is announced by an atomic update to a symmetric signal word
// on the target. Without hardware signaled writes the runtime implements it
// the way AM-based conduits do: the RDMA write is followed by a small active
// message on the same reliable in-order stream, so the signal can never be
// observed before the data it announces. The signal update is SIGNAL_ADD
// (commutative), so concurrent signals from many sources are well defined.
//
// Unlike puts and gets, the signal message consumes a receive-queue slot on
// the target (it is a send, not an RDMA write): under a finite Limits.RQDepth
// it is subject to sender-side credit backpressure and RNR NAK/retry, which
// makes put-with-signal streams the workload that exercises the resource
// plane's receive budgets.

// PutMemSignal copies len(src) bytes into dest on the target PE, then
// atomically adds sadd to the int64 signal word at sig on the same PE. The
// signal is delivered after the data; local completion semantics match
// PutMem (source reusable on return, remote completion via the signal or
// Quiet).
func (c *Ctx) PutMemSignal(dest SymAddr, src []byte, sig SymAddr, sadd int64, pe int) {
	c.PutMem(dest, src, pe)
	start := c.clk.Now()
	if err := c.checkSignalAddr(sig); err != nil {
		panic(fmt.Errorf("shmem: put_signal to pe %d: %w", pe, err))
	}
	err := c.conduit.AMRequestFenced(pe, amSignal, [4]uint64{uint64(sig), uint64(sadd)}, nil)
	if err != nil {
		panic(fmt.Errorf("shmem: put_signal to pe %d: %w", pe, err))
	}
	if c.obs.Active() {
		c.obs.Span(start, c.clk.Now(), obs.LayerShmem, "put-signal", pe, 8)
	}
}

// P64Signal writes a single int64 with a signal (shmem_long_p + signal).
func (c *Ctx) P64Signal(dest SymAddr, v int64, sig SymAddr, sadd int64, pe int) {
	var buf [8]byte
	store(buf[:], v)
	c.PutMemSignal(dest, buf[:], sig, sadd, pe)
}

// checkSignalAddr validates a signal word against the live allocations; the
// heap is symmetric, so a locally valid word is valid on every PE.
func (c *Ctx) checkSignalAddr(sig SymAddr) error {
	if _, ok := c.mr.View(int(sig), 8); !ok {
		return fmt.Errorf("signal word at %d lies in no live allocation", sig)
	}
	return nil
}

// applySignal is the amSignal handler: land the signal add in the local
// heap and wake shmem_wait-style watchers, mirroring the remote-write
// notification RDMA traffic gets from the memory region itself.
func (c *Ctx) applySignal(off int64, delta uint64, at int64) {
	if _, ok := c.mr.AddUint64(int(off), delta); !ok {
		return // malformed frame; drop rather than corrupt the heap
	}
	c.watchMu.Lock()
	if at > c.lastWrite {
		c.lastWrite = at
	}
	c.watchMu.Unlock()
	c.watchCond.Broadcast()
}
