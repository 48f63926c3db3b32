package shmem

import "fmt"

// Strided transfers (shmem_iput/shmem_iget). Strides are in elements, as in
// the OpenSHMEM specification. Each contiguous element is transferred
// one-sided; the fabric coalesces nothing, exactly like iput on real
// hardware generating one work request per block.

// PutInt64Strided writes n int64 elements from src (read with stride sst)
// into dest on pe (written with stride dst), shmem_long_iput.
func (c *Ctx) PutInt64Strided(dest SymAddr, src []int64, dst, sst, n int, pe int) {
	if dst < 1 || sst < 1 {
		panic("shmem: strides must be >= 1")
	}
	var buf [8]byte
	for i := 0; i < n; i++ {
		store(buf[:], src[i*sst])
		c.PutMem(dest+SymAddr(8*i*dst), buf[:], pe)
	}
}

// GetInt64Strided reads n int64 elements from src on pe (read with stride
// sst) into dest (written with stride dst), shmem_long_iget.
func (c *Ctx) GetInt64Strided(dest []int64, src SymAddr, dst, sst, n int, pe int) {
	if dst < 1 || sst < 1 {
		panic("shmem: strides must be >= 1")
	}
	var buf [8]byte
	for i := 0; i < n; i++ {
		c.GetMem(buf[:], src+SymAddr(8*i*sst), pe)
		dest[i*dst] = load[int64](buf[:])
	}
}

// PutMemNBI is the non-blocking-implicit put (shmem_putmem_nbi): identical
// local-completion semantics to PutMem in this runtime (the source buffer is
// reusable on return); remote completion is deferred to Quiet.
func (c *Ctx) PutMemNBI(dest SymAddr, src []byte, pe int) { c.PutMem(dest, src, pe) }

// GetMemNBI is the non-blocking-implicit get (shmem_getmem_nbi): it returns
// immediately and dest is filled by the time Quiet returns.
func (c *Ctx) GetMemNBI(dest []byte, src SymAddr, pe int) {
	if len(dest) == 0 {
		return
	}
	addr, rkey, err := c.remoteAddr(pe, src, len(dest))
	if err != nil {
		panic(fmt.Errorf("shmem: get_nbi from pe %d: %w", pe, err))
	}
	if err := c.conduit.GetNBI(pe, addr, rkey, dest); err != nil {
		panic(fmt.Errorf("shmem: get_nbi from pe %d: %w", pe, err))
	}
}
