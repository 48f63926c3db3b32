package shmem

// Fetching and non-fetching network atomics (shmem_long_fadd and friends).
// They execute in the target HCA, atomically with respect to every other
// network atomic on the same address, exactly like InfiniBand's fetch-add /
// compare-swap verbs. Addresses must be 8-byte aligned symmetric addresses.

import (
	"fmt"

	"goshmem/internal/obs"
)

// atomicDone finishes an atomic op begun at start: it panics on err, else
// closes the op's observability span, feeds the latency histogram and
// returns the previous value.
func (c *Ctx) atomicDone(kind string, pe int, start int64, old uint64, err error) int64 {
	if err != nil {
		panic(fmt.Errorf("shmem: %s on pe %d: %w", kind, pe, err))
	}
	if c.obs.Active() {
		end := c.clk.Now()
		c.obs.Span(start, end, obs.LayerShmem, kind, pe, 8)
		c.hAtomic.Record(end - start)
	}
	return int64(old)
}

// FetchAddInt64 atomically adds delta to the int64 at addr on pe and returns
// the previous value (shmem_long_fadd).
func (c *Ctx) FetchAddInt64(addr SymAddr, delta int64, pe int) int64 {
	start := c.clk.Now()
	raddr, rkey, err := c.remoteAddr(pe, addr, 8)
	var old uint64
	if err == nil {
		old, err = c.conduit.FetchAdd(pe, raddr, rkey, uint64(delta))
	}
	return c.atomicDone("fadd", pe, start, old, err)
}

// FetchIncInt64 atomically increments and returns the previous value
// (shmem_long_finc).
func (c *Ctx) FetchIncInt64(addr SymAddr, pe int) int64 {
	return c.FetchAddInt64(addr, 1, pe)
}

// AddInt64 atomically adds delta without fetching (shmem_long_add).
func (c *Ctx) AddInt64(addr SymAddr, delta int64, pe int) {
	c.FetchAddInt64(addr, delta, pe)
}

// IncInt64 atomically increments without fetching (shmem_long_inc).
func (c *Ctx) IncInt64(addr SymAddr, pe int) {
	c.FetchAddInt64(addr, 1, pe)
}

// SwapInt64 atomically replaces the value and returns the previous one
// (shmem_long_swap).
func (c *Ctx) SwapInt64(addr SymAddr, value int64, pe int) int64 {
	start := c.clk.Now()
	raddr, rkey, err := c.remoteAddr(pe, addr, 8)
	var old uint64
	if err == nil {
		old, err = c.conduit.Swap(pe, raddr, rkey, uint64(value))
	}
	return c.atomicDone("swap", pe, start, old, err)
}

// CompareSwapInt64 atomically stores value if the current value equals cond,
// returning the previous value (shmem_long_cswap).
func (c *Ctx) CompareSwapInt64(addr SymAddr, cond, value int64, pe int) int64 {
	start := c.clk.Now()
	raddr, rkey, err := c.remoteAddr(pe, addr, 8)
	var old uint64
	if err == nil {
		old, err = c.conduit.CompareSwap(pe, raddr, rkey, uint64(cond), uint64(value))
	}
	return c.atomicDone("cswap", pe, start, old, err)
}
