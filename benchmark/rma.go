package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"goshmem/internal/shmem"
)

// The rma_small op stream. Every PE sends all of its operations to one
// inter-node partner and is the only writer of that partner's arrays, and
// the reliable transport delivers one source's stream in order, so the final
// state, every fetched value and every fetch-add result are a pure function
// of the seed: a serial replay of the stream is a complete oracle.

const (
	rmaNP    = 4
	rmaSlots = 64 // int64 slots per array

	opPut = iota
	opGet
	opFetchAdd
	opPutSignal
)

type rmaOp struct {
	kind uint8
	slot uint8
	val  int64
}

// rmaExpect is what the serial model predicts for one source's stream: the
// final contents of the arrays it writes on its partner, and the value each
// fetch-add returns, in stream order.
type rmaExpect struct {
	put, sigData, add [rmaSlots]int64
	signals           int64
	fetched           []int64
}

type rmaInput struct {
	streams [rmaNP][]rmaOp
	expect  [rmaNP]rmaExpect
}

func rmaPartner(me int) int { return (me + rmaNP/2) % rmaNP }

// roValue is the read-only array every get reads: slot s of PE pe.
func roValue(pe, slot int) int64 { return int64(pe+1)<<32 | int64(slot*2654435761&0xffffffff) }

// genRMA draws the four streams (50% put, 25% get, 12.5% fetch-add, 12.5%
// put-with-signal) and replays each serially.
func genRMA(seed int64, opsPerPE int) *rmaInput {
	in := &rmaInput{}
	for pe := 0; pe < rmaNP; pe++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pe)))
		ops := make([]rmaOp, opsPerPE)
		ex := &in.expect[pe]
		for i := range ops {
			op := rmaOp{slot: uint8(rng.Intn(rmaSlots)), val: rng.Int63()}
			switch r := rng.Intn(8); {
			case r < 4:
				op.kind = opPut
				ex.put[op.slot] = op.val
			case r < 6:
				op.kind = opGet
			case r < 7:
				op.kind = opFetchAdd
				op.val &= 0xffff
				ex.fetched = append(ex.fetched, ex.add[op.slot])
				ex.add[op.slot] += op.val
			default:
				op.kind = opPutSignal
				ex.sigData[op.slot] = op.val
				ex.signals++
			}
			ops[i] = op
		}
		in.streams[pe] = ops
	}
	return in
}

// rmaBody issues this PE's stream and checks everything the model predicts;
// mismatches are counted into bad, never panicked on, so a wrong transport
// fails the oracle instead of aborting the job.
func rmaBody(c *shmem.Ctx, in *rmaInput, bad *atomic.Int64) {
	me := c.Me()
	to := rmaPartner(me)
	word := func(base shmem.SymAddr, slot int) shmem.SymAddr { return base + shmem.SymAddr(8*slot) }
	putArr := c.Malloc(8 * rmaSlots)
	sigData := c.Malloc(8 * rmaSlots)
	addArr := c.Malloc(8 * rmaSlots)
	roArr := c.Malloc(8 * rmaSlots)
	sigWord := c.Malloc(8)
	for s := 0; s < rmaSlots; s++ {
		c.StoreInt64(putArr, s, 0)
		c.StoreInt64(sigData, s, 0)
		c.StoreInt64(addArr, s, 0)
		c.StoreInt64(roArr, s, roValue(me, s))
	}
	c.StoreInt64(sigWord, 0, 0)
	c.BarrierAll()
	// Bring the connection up before the stream: the workload measures the
	// steady-state data plane, not the handshake.
	c.P64(putArr, 0, to)
	c.Quiet()
	c.BarrierAll()

	ex := &in.expect[me]
	fetched := 0
	for i, op := range in.streams[me] {
		slot := int(op.slot)
		switch op.kind {
		case opPut:
			c.P64(word(putArr, slot), op.val, to)
		case opGet:
			if c.G64(word(roArr, slot), to) != roValue(to, slot) {
				bad.Add(1)
			}
		case opFetchAdd:
			if c.FetchAddInt64(word(addArr, slot), op.val, to) != ex.fetched[fetched] {
				bad.Add(1)
			}
			fetched++
		case opPutSignal:
			c.P64Signal(word(sigData, slot), op.val, sigWord, 1, to)
		}
		if (i+1)%64 == 0 {
			c.Quiet()
		}
	}
	c.Quiet()
	// Two barriers, as traffic.Run does: the first says every PE's quiet has
	// completed, the second that every PE has seen that, so no signal handler
	// can still be running on a word this PE is about to read.
	c.BarrierAll()
	c.BarrierAll()

	// My arrays were written by the one PE whose partner I am.
	from := &in.expect[rmaPartner(me)]
	for s := 0; s < rmaSlots; s++ {
		if c.LoadInt64(putArr, s) != from.put[s] ||
			c.LoadInt64(sigData, s) != from.sigData[s] ||
			c.LoadInt64(addArr, s) != from.add[s] {
			bad.Add(1)
		}
	}
	if c.LoadInt64(sigWord, 0) != from.signals {
		bad.Add(1)
	}
}

func rmaVerdict(bad int64) error {
	if bad != 0 {
		return fmt.Errorf("rma_small: %d values differ from the serial model", bad)
	}
	return nil
}
