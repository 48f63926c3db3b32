package shmem

import (
	"fmt"

	"goshmem/internal/obs"
)

// Malloc allocates n bytes on the symmetric heap of every PE and returns the
// symmetric address. Like shmem_malloc it is collective: all PEs must call
// it with the same size, and it synchronizes before returning. The block is
// backed with fresh zeroed memory before the barrier, so no peer can reach
// it unbacked.
func (c *Ctx) Malloc(n int) SymAddr {
	a, err := c.heap.alloc(n)
	if err != nil {
		panic(err.Error())
	}
	c.mr.Back(int(a), make([]byte, c.heap.blockLen(a)))
	c.BarrierAll()
	return a
}

// Free releases a symmetric allocation on all PEs (collective, like
// shmem_free). It synchronizes first, as shmem_free does: the barrier
// completes every PE's outstanding accesses to the block before any PE lets
// go of its copy.
func (c *Ctx) Free(a SymAddr) {
	c.BarrierAll()
	if err := c.heap.dealloc(a); err != nil {
		panic(err.Error())
	}
	c.mr.Release(int(a))
}

// PutMem copies len(src) bytes into dest on the target PE (shmem_putmem).
// It returns when the source buffer is reusable; remote completion requires
// Quiet or a barrier.
func (c *Ctx) PutMem(dest SymAddr, src []byte, pe int) {
	if len(src) == 0 {
		return
	}
	start := c.clk.Now()
	addr, rkey, err := c.remoteAddr(pe, dest, len(src))
	if err != nil {
		panic(fmt.Errorf("shmem: put to pe %d: %w", pe, err))
	}
	if err := c.conduit.Put(pe, addr, rkey, src); err != nil {
		panic(fmt.Errorf("shmem: put to pe %d: %w", pe, err))
	}
	if c.obs.Active() {
		end := c.clk.Now()
		c.obs.Span(start, end, obs.LayerShmem, "put", pe, int64(len(src)))
		c.hPut.Record(end - start)
	}
}

// GetMem copies len(dest) bytes from src on the target PE (shmem_getmem).
// It blocks until the data has arrived.
func (c *Ctx) GetMem(dest []byte, src SymAddr, pe int) {
	if len(dest) == 0 {
		return
	}
	start := c.clk.Now()
	addr, rkey, err := c.remoteAddr(pe, src, len(dest))
	if err != nil {
		panic(fmt.Errorf("shmem: get from pe %d: %w", pe, err))
	}
	if err := c.conduit.Get(pe, addr, rkey, dest); err != nil {
		panic(fmt.Errorf("shmem: get from pe %d: %w", pe, err))
	}
	if c.obs.Active() {
		end := c.clk.Now()
		c.obs.Span(start, end, obs.LayerShmem, "get", pe, int64(len(dest)))
		c.hGet.Record(end - start)
	}
}

// PutInt64 writes a vector of int64 to the target PE (shmem_long_put).
func (c *Ctx) PutInt64(dest SymAddr, src []int64, pe int) { Put(c, dest, src, pe) }

// GetInt64 reads a vector of int64 from the target PE (shmem_long_get).
func (c *Ctx) GetInt64(dest []int64, src SymAddr, pe int) { getInto(c, dest, src, pe) }

// PutFloat64 writes a vector of float64 to the target PE (shmem_double_put).
func (c *Ctx) PutFloat64(dest SymAddr, src []float64, pe int) { Put(c, dest, src, pe) }

// GetFloat64 reads a vector of float64 from the target PE (shmem_double_get).
func (c *Ctx) GetFloat64(dest []float64, src SymAddr, pe int) { getInto(c, dest, src, pe) }

// P64 writes a single int64 (shmem_long_p).
func (c *Ctx) P64(dest SymAddr, v int64, pe int) { P(c, dest, v, pe) }

// G64 reads a single int64 (shmem_long_g).
func (c *Ctx) G64(src SymAddr, pe int) int64 { return G[int64](c, src, pe) }

// LocalInt64 views a symmetric int64 vector in this PE's own partition.
// Reads and writes through the view race with concurrent remote atomics;
// use LoadInt64 for values that remote PEs update atomically.
func (c *Ctx) LocalInt64(addr SymAddr, n int) []int64 {
	return decodeSlice[int64](c.Local(addr, 8*n))
}

// StoreLocalInt64 writes v into this PE's own partition at addr+8*i.
func (c *Ctx) StoreLocalInt64(addr SymAddr, i int, v int64) {
	store(c.Local(addr+SymAddr(8*i), 8), v)
}

// LoadInt64 atomically (with respect to remote atomics) loads the local
// int64 at addr+8*i.
func (c *Ctx) LoadInt64(addr SymAddr, i int) int64 {
	off := int(addr) + 8*i
	return int64(c.mr.LoadUint64(off))
}

// StoreInt64 atomically stores the local int64 at addr+8*i.
func (c *Ctx) StoreInt64(addr SymAddr, i int, v int64) {
	off := int(addr) + 8*i
	c.mr.StoreUint64(off, uint64(v))
}

// LocalFloat64 views a symmetric float64 vector in this PE's own partition.
func (c *Ctx) LocalFloat64(addr SymAddr, n int) []float64 {
	return decodeSlice[float64](c.Local(addr, 8*n))
}

// StoreLocalFloat64 writes v into this PE's own partition at addr+8*i.
func (c *Ctx) StoreLocalFloat64(addr SymAddr, i int, v float64) {
	store(c.Local(addr+SymAddr(8*i), 8), v)
}
