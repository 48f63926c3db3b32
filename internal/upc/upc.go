// Package upc is a miniature UPC-style PGAS client of the same conduit the
// OpenSHMEM runtime uses. It exists to demonstrate the paper's section IV-C
// design point: the conduit treats the connect payload as an opaque buffer
// that any upper layer may "read, write, or ignore", so a different PGAS
// language runtime — with its own segment descriptor wire format — plugs
// into the same on-demand connection machinery unchanged. (Extending the
// design to UPC and CAF is the paper's stated future work.)
//
// The model implemented is the classic UPC core: THREADS/MYTHREAD, shared
// arrays with round-robin block-cyclic affinity, one-sided element access
// through shared pointers, upc_barrier and upc_all_alloc.
package upc

import (
	"encoding/binary"
	"fmt"
	"sync"

	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
	"goshmem/internal/vclock"
)

// amBarrier is the AM handler id for the upc_barrier (the conduit id space
// above both the OpenSHMEM runtime's and the mini-MPI's).
const amBarrier uint8 = 64

// segMagic tags the UPC shared-segment descriptor so a mismatched consumer
// fails loudly; its layout differs from OpenSHMEM's triplet on purpose.
var segMagic = [4]byte{'U', 'P', 'C', '1'}

// Thread is one UPC thread (MYTHREAD).
type Thread struct {
	rank int
	n    int

	conduit *gasnet.Conduit
	mr      *ib.MR
	shared  []byte
	alloc   uint64 // bump allocator over the shared segment

	segMu   sync.Mutex
	segCond *vclock.Cond
	segs    []struct {
		base uint64
		rkey uint32
		have bool
	}

	barMu   sync.Mutex
	barCond *vclock.Cond
	barSeq  uint64
	inbox   map[[2]uint64]int64 // (seq, src) -> arrival vtime
}

// Options configures a thread.
type Options struct {
	// SharedBytes is the per-thread shared-segment size (default 1 MiB).
	SharedBytes int
	// Mode selects the connection strategy (default on-demand — the point
	// of the exercise).
	Mode gasnet.Mode
}

// Attach initializes one UPC thread over the given PE environment. All
// threads of the job must attach.
func Attach(env shmem.Env, opts Options) *Thread {
	if opts.SharedBytes <= 0 {
		opts.SharedBytes = 1 << 20
	}
	t := &Thread{rank: env.Rank, n: env.NProcs}
	sched := env.HCA.Fabric().Sched()
	t.segCond = vclock.NewCond(&t.segMu, sched)
	t.barCond = vclock.NewCond(&t.barMu, sched)
	t.inbox = make(map[[2]uint64]int64)
	t.segs = make([]struct {
		base uint64
		rkey uint32
		have bool
	}, env.NProcs)

	cfg := gasnet.Config{
		Rank: env.Rank, NProcs: env.NProcs, Node: env.Node, PPN: env.PPN,
		HCA: env.HCA, PMI: env.PMI, Clock: env.Clock,
		Mode: opts.Mode, NodeBarrier: env.NodeBarrier,
		ConnectPayload:   t.encodeSeg,
		OnConnectPayload: t.storeSeg,
	}
	t.conduit = gasnet.New(cfg)
	// A job abort wakes a thread parked in Barrier so it sees the error.
	t.conduit.OnAbort(func(error) { t.barCond.Broadcast() })
	t.conduit.RegisterHandler(amBarrier, func(src int, args [4]uint64, payload []byte, at int64) {
		t.barMu.Lock()
		t.inbox[[2]uint64{args[0], uint64(src)}] = at
		t.barMu.Unlock()
		t.barCond.Broadcast()
	})
	t.conduit.ExchangeEndpoints()
	t.shared = make([]byte, opts.SharedBytes)
	t.mr = env.HCA.RegisterMR(t.shared, env.Clock)
	t.segs[t.rank].base = t.mr.Base()
	t.segs[t.rank].rkey = t.mr.RKey()
	t.segs[t.rank].have = true
	t.conduit.IntraNodeBarrier()
	t.conduit.SetReady()
	return t
}

// encodeSeg is this thread's connect payload: UPC's own descriptor format.
func (t *Thread) encodeSeg() []byte {
	b := make([]byte, 4+4+8+8)
	copy(b, segMagic[:])
	binary.LittleEndian.PutUint32(b[4:], t.mr.RKey())
	binary.LittleEndian.PutUint64(b[8:], t.mr.Base())
	binary.LittleEndian.PutUint64(b[16:], uint64(len(t.shared)))
	return b
}

func (t *Thread) storeSeg(peer int, b []byte, at int64) {
	if len(b) != 24 || string(b[:4]) != string(segMagic[:]) {
		return
	}
	t.segMu.Lock()
	t.segs[peer].rkey = binary.LittleEndian.Uint32(b[4:])
	t.segs[peer].base = binary.LittleEndian.Uint64(b[8:])
	t.segs[peer].have = true
	t.segMu.Unlock()
	t.segCond.Broadcast()
}

// MyThread returns this thread's index (MYTHREAD).
func (t *Thread) MyThread() int { return t.rank }

// Threads returns the job size (THREADS).
func (t *Thread) Threads() int { return t.n }

// Detach shuts the thread's conduit down.
func (t *Thread) Detach() {
	t.Barrier()
	t.conduit.Close()
}

// Stats exposes the conduit counters (endpoints created etc.).
func (t *Thread) Stats() gasnet.Stats { return t.conduit.Stats() }

// SharedArray is a UPC shared array of int64 with block-cyclic layout:
// elements [k*Block, (k+1)*Block) have affinity to thread k % THREADS, like
// "shared [Block] long a[n]".
type SharedArray struct {
	off   uint64 // offset within every thread's shared segment
	N     int
	Block int
}

// AllAlloc is upc_all_alloc: collectively allocates a shared int64 array of
// n elements with the given block size. Every thread must call it with the
// same arguments.
func (t *Thread) AllAlloc(n, block int) SharedArray {
	if block <= 0 {
		block = 1
	}
	blocksTotal := (n + block - 1) / block
	blocksPer := (blocksTotal + t.n - 1) / t.n
	bytesPer := uint64(blocksPer*block) * 8
	off := t.alloc
	t.alloc += (bytesPer + 63) &^ 63
	if t.alloc > uint64(len(t.shared)) {
		panic("upc: shared segment exhausted")
	}
	arr := SharedArray{off: off, N: n, Block: block}
	t.Barrier()
	return arr
}

// owner returns (thread, byte offset) of element i.
func (a SharedArray) owner(i, nthreads int) (int, uint64) {
	blk := i / a.Block
	th := blk % nthreads
	localBlk := blk / nthreads
	localIdx := localBlk*a.Block + i%a.Block
	return th, a.off + uint64(localIdx)*8
}

// Read is a one-sided read of element i (a[i] through a shared pointer).
func (t *Thread) Read(a SharedArray, i int) int64 {
	th, off := a.owner(i, t.n)
	if th == t.rank {
		return int64(t.mr.LoadUint64(int(off)))
	}
	base, rkey := t.segAddr(th)
	var buf [8]byte
	if err := t.conduit.Get(th, base+off, rkey, buf[:]); err != nil {
		panic(err.Error())
	}
	return int64(binary.LittleEndian.Uint64(buf[:]))
}

// Write is a one-sided write of element i (a[i] = v).
func (t *Thread) Write(a SharedArray, i int, v int64) {
	th, off := a.owner(i, t.n)
	if th == t.rank {
		t.mr.StoreUint64(int(off), uint64(v))
		return
	}
	base, rkey := t.segAddr(th)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	if err := t.conduit.Put(th, base+off, rkey, buf[:]); err != nil {
		panic(err.Error())
	}
}

// HasAffinity reports whether element i has affinity to this thread — the
// upc_forall affinity test.
func (t *Thread) HasAffinity(a SharedArray, i int) bool {
	th, _ := a.owner(i, t.n)
	return th == t.rank
}

// ForAll iterates i in [0, a.N) executing body only for elements with local
// affinity (upc_forall(i; &a[i])).
func (t *Thread) ForAll(a SharedArray, body func(i int)) {
	for i := 0; i < a.N; i++ {
		if t.HasAffinity(a, i) {
			body(i)
		}
	}
}

// segAddr waits for (and returns) a peer's segment descriptor; with the
// on-demand conduit this arrives on the connect handshake.
func (t *Thread) segAddr(peer int) (uint64, uint32) {
	t.segMu.Lock()
	if t.segs[peer].have {
		defer t.segMu.Unlock()
		return t.segs[peer].base, t.segs[peer].rkey
	}
	t.segMu.Unlock()
	if err := t.conduit.EnsureConnected(peer); err != nil {
		panic(err.Error())
	}
	t.segMu.Lock()
	defer t.segMu.Unlock()
	if !t.segs[peer].have {
		panic(fmt.Sprintf("upc: segment descriptor for thread %d missing after connect", peer))
	}
	return t.segs[peer].base, t.segs[peer].rkey
}

// Barrier is upc_barrier (dissemination, with an implicit fence of
// outstanding writes).
func (t *Thread) Barrier() {
	t.conduit.Quiet()
	if t.n == 1 {
		return
	}
	t.barMu.Lock()
	t.barSeq++
	seq := t.barSeq
	t.barMu.Unlock()
	for dist := 1; dist < t.n; dist *= 2 {
		to := (t.rank + dist) % t.n
		from := (t.rank - dist%t.n + t.n) % t.n
		if err := t.conduit.AMRequestKind(to, amBarrier, [4]uint64{seq, uint64(dist)}, nil, obs.FlowBarrier); err != nil {
			panic(err.Error())
		}
		key := [2]uint64{seq, uint64(from)}
		t.barMu.Lock()
		for {
			if at, ok := t.inbox[key]; ok {
				delete(t.inbox, key)
				t.barMu.Unlock()
				t.conduit.Clock().AdvanceTo(at)
				break
			}
			if err := t.conduit.LivenessErr(); err != nil {
				t.barMu.Unlock()
				panic(fmt.Errorf("upc: barrier: %w", err))
			}
			t.barCond.Wait()
		}
	}
}
