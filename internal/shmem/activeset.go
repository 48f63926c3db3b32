package shmem

import "fmt"

// ActiveSet is the OpenSHMEM 1.0 subgroup abstraction used by collectives:
// the PEs {Start, Start+2^LogStride, ...} of size Size. The era-appropriate
// (PE_start, logPE_stride, PE_size) triple — teams arrived much later.
type ActiveSet struct {
	Start     int
	LogStride int
	Size      int
}

// World returns the active set covering the whole job.
func (c *Ctx) World() ActiveSet { return ActiveSet{Start: 0, LogStride: 0, Size: c.n} }

// index returns rank's index within the set, or -1.
func (as ActiveSet) index(rank int) int {
	stride := 1 << as.LogStride
	off := rank - as.Start
	if off < 0 || off%stride != 0 {
		return -1
	}
	idx := off / stride
	if idx >= as.Size {
		return -1
	}
	return idx
}

// rankOf maps a set index back to a PE rank.
func (as ActiveSet) rankOf(idx int) int { return as.Start + idx<<as.LogStride }

func (c *Ctx) mustIndex(as ActiveSet) int {
	idx := as.index(c.rank)
	if idx < 0 {
		panic(fmt.Sprintf("shmem: PE %d is not in active set {start %d, logstride %d, size %d}",
			c.rank, as.Start, as.LogStride, as.Size))
	}
	return idx
}

// ReduceInt64Set is the active-set allreduce (shmem_long_<op>_to_all over an
// active set).
func (c *Ctx) ReduceInt64Set(as ActiveSet, op ReduceOp, local []int64) []int64 {
	return reduceSet(c, as, op, local)
}

// ReduceFloat64Set is the active-set float64 allreduce.
func (c *Ctx) ReduceFloat64Set(as ActiveSet, op ReduceOp, local []float64) []float64 {
	return reduceSet(c, as, op, local)
}

// AlltoallInt64 exchanges one int64 block per PE pair across the whole job
// (shmem_alltoall64): element i of the result came from PE i's send[me].
func (c *Ctx) AlltoallInt64(send []int64) []int64 {
	if len(send) != c.n {
		panic("shmem: AlltoallInt64 needs one element per PE")
	}
	seq := c.coll.next(worldCtx)
	out := make([]int64, c.n)
	out[c.rank] = send[c.rank]
	for off := 1; off < c.n; off++ {
		dst := (c.rank + off) % c.n
		src := (c.rank - off + c.n) % c.n
		c.collSend(dst, seq, 0, encodeSlice(send[dst:dst+1]))
		out[src] = load[int64](c.collRecv(seq, 0, src))
	}
	return out
}

// FetchInt64 atomically fetches the remote value (shmem_long_atomic_fetch,
// implemented as fetch-add of zero like real NICs do).
func (c *Ctx) FetchInt64(addr SymAddr, pe int) int64 { return c.FetchAddInt64(addr, 0, pe) }

// SetInt64 atomically sets the remote value (shmem_long_atomic_set,
// implemented as swap discarding the old value).
func (c *Ctx) SetInt64(addr SymAddr, v int64, pe int) { c.SwapInt64(addr, v, pe) }

// TestInt64 is the non-blocking companion of WaitUntilInt64 (shmem_test):
// it returns whether the local symmetric int64 currently satisfies cmp.
func (c *Ctx) TestInt64(addr SymAddr, cmp Cmp, value int64) bool {
	return cmp.eval(c.LoadInt64(addr, 0), value)
}
