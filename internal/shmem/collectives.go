package shmem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"unsafe"

	"goshmem/internal/obs"
	"goshmem/internal/vclock"
)

// collSpan closes a collective's observability span and feeds the collective
// latency histogram. Nested collectives (reduce over broadcast) each record
// their own span.
func (c *Ctx) collSpan(kind string, start int64, h *obs.Hist) {
	if !c.obs.Active() {
		return
	}
	end := c.clk.Now()
	c.obs.Span(start, end, obs.LayerShmem, kind, -1, 0)
	h.Record(end - start)
}

// collState sequences collective operations. OpenSHMEM requires the PEs of
// an active set to call that set's collectives in the same order, so a
// per-PE monotone sequence number *per set context* identifies the
// operation (this mirrors the specification's per-collective pSync arrays:
// disjoint active sets progress independently); (ctx, seq, round, src)
// identifies one fragment.
type collState struct {
	mu    sync.Mutex
	cond  *vclock.Cond
	seqs  map[uint64]uint64
	inbox map[collKey]collMsg

	// liveness (set at Attach) lets recv abandon a wait when the job aborts:
	// a fragment from a dead peer will never arrive.
	liveness func() error
}

type collKey struct {
	ctx   uint64
	seq   uint64
	round uint32
	src   int32
}

// worldCtx is the context id of the whole-job active set.
const worldCtx = 0

// ctxID derives a context id from the active-set triple (job-unique since
// start < 2^20, logstride < 2^6, size < 2^20 in any realistic job). The
// world set {0,0,n} must not collide with worldCtx used by BarrierAll and
// friends, so world-shaped sets map to worldCtx.
func (as ActiveSet) ctxID(n int) uint64 {
	if as.Start == 0 && as.LogStride == 0 && as.Size == n {
		return worldCtx
	}
	return 1 + uint64(as.Start)<<26 | uint64(as.LogStride)<<20 | uint64(as.Size)
}

type collMsg struct {
	data []byte
	at   int64
}

// memSize models the collective state's retained bytes for the footprint
// census: the struct shell, the per-context sequence map, and any undelivered
// inbox fragments with their payloads (exact lengths — see Ctx.Footprint).
func (s *collState) memSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := int64(unsafe.Sizeof(collState{}) + unsafe.Sizeof(vclock.Cond{}))
	b += int64(len(s.seqs)) * (16 + obs.MapEntryOverhead)
	for _, m := range s.inbox {
		b += int64(unsafe.Sizeof(collKey{})) + int64(unsafe.Sizeof(collMsg{})) +
			obs.MapEntryOverhead + int64(len(m.data))
	}
	return b
}

func newCollState(sched *vclock.Sched) *collState {
	s := &collState{inbox: make(map[collKey]collMsg), seqs: make(map[uint64]uint64)}
	s.cond = vclock.NewCond(&s.mu, sched)
	return s
}

// handle is the amColl active-message handler.
func (s *collState) handle(src int, args [4]uint64, payload []byte, at int64) {
	s.mu.Lock()
	s.inbox[collKey{ctx: args[0], seq: args[1], round: uint32(args[2]), src: int32(src)}] =
		collMsg{data: append([]byte(nil), payload...), at: at}
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *collState) next(ctx uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seqs[ctx]++
	return s.seqs[ctx]
}

// recv blocks for one fragment and removes it from the inbox.
func (s *collState) recv(ctx, seq uint64, round uint32, src int) collMsg {
	k := collKey{ctx: ctx, seq: seq, round: round, src: int32(src)}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if m, ok := s.inbox[k]; ok {
			delete(s.inbox, k)
			return m
		}
		if err := s.liveness(); err != nil {
			panic(fmt.Errorf("shmem: collective receive from pe %d: %w", src, err))
		}
		s.cond.Wait()
	}
}

// collSendCtx sends one collective fragment. kind attributes the fragment
// in the flow matrix: obs.FlowBarrier for barrier rounds, obs.FlowColl for
// data-carrying collectives.
func (c *Ctx) collSendCtx(ctx uint64, to int, seq uint64, round uint32, data []byte, kind obs.FlowKind) {
	if err := c.conduit.AMRequestKind(to, amColl, [4]uint64{ctx, seq, uint64(round)}, data, kind); err != nil {
		panic(fmt.Errorf("shmem: collective send to pe %d: %w", to, err))
	}
}

func (c *Ctx) collRecvCtx(ctx uint64, seq uint64, round uint32, from int) []byte {
	m := c.coll.recv(ctx, seq, round, from)
	c.clk.AdvanceTo(m.at)
	return m.data
}

// World-context conveniences used by the whole-job collectives.
func (c *Ctx) collSend(to int, seq uint64, round uint32, data []byte) {
	c.collSendCtx(worldCtx, to, seq, round, data, obs.FlowColl)
}

func (c *Ctx) collRecv(seq uint64, round uint32, from int) []byte {
	return c.collRecvCtx(worldCtx, seq, round, from)
}

// BarrierAll is shmem_barrier_all: BarrierSet over the whole job.
func (c *Ctx) BarrierAll() { c.BarrierSet(c.World()) }

// BarrierSet synchronizes the PEs of an active set (shmem_barrier). All and
// only the set's members must call it. It completes outstanding puts (quiet)
// and runs a dissemination barrier (ceil(log2 N) rounds, each PE talking to
// peers at distance 2^k — which is exactly why global barriers during init
// force O(log P) connections, paper section IV-E).
func (c *Ctx) BarrierSet(as ActiveSet) {
	start := c.clk.Now()
	c.Quiet()
	if as.Size <= 1 {
		return
	}
	me := c.mustIndex(as)
	ctx := as.ctxID(c.n)
	seq := c.coll.next(ctx)
	for k, dist := uint32(0), 1; dist < as.Size; k, dist = k+1, dist*2 {
		to := as.rankOf((me + dist) % as.Size)
		from := as.rankOf((me - dist%as.Size + as.Size) % as.Size)
		c.collSendCtx(ctx, to, seq, k, nil, obs.FlowBarrier)
		c.collRecvCtx(ctx, seq, k, from)
	}
	c.collSpan("barrier", start, c.hBarrier)
}

// BroadcastBytes distributes root's data to all PEs and returns it (root's
// own buffer is returned on the root).
func (c *Ctx) BroadcastBytes(root int, data []byte) []byte {
	return c.BroadcastSet(c.World(), root, data)
}

// BroadcastSet distributes rootIdx's data over the active set on a binomial
// tree (shmem_broadcast). rootIdx is an index within the set, like PE_root in
// the specification.
func (c *Ctx) BroadcastSet(as ActiveSet, rootIdx int, data []byte) []byte {
	if as.Size <= 1 {
		return data
	}
	start := c.clk.Now()
	defer c.collSpan("broadcast", start, c.hColl)
	me := c.mustIndex(as)
	ctx := as.ctxID(c.n)
	seq := c.coll.next(ctx)
	relative := (me - rootIdx + as.Size) % as.Size
	buf := data
	mask := 1
	for mask < as.Size {
		if relative&mask != 0 {
			parentIdx := (relative - mask + rootIdx) % as.Size
			buf = c.collRecvCtx(ctx, seq, 0, as.rankOf(parentIdx))
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if relative+mask < as.Size {
			dstIdx := (relative + mask + rootIdx) % as.Size
			c.collSendCtx(ctx, as.rankOf(dstIdx), seq, 0, buf, obs.FlowColl)
		}
		mask >>= 1
	}
	return buf
}

// reduceBytesSet performs an allreduce over the active set on opaque
// fixed-size values: binomial reduction to index 0, then binomial broadcast —
// the "sparse" collective of the paper's Figure 7(b): each PE exchanges with
// at most 2*ceil(log2 N) distinct peers. acc is the caller's contribution and
// is folded into in place.
func (c *Ctx) reduceBytesSet(as ActiveSet, acc []byte, combine func(acc, in []byte)) []byte {
	start := c.clk.Now()
	defer c.collSpan("reduce", start, c.hColl)
	if as.Size > 1 {
		me := c.mustIndex(as)
		ctx := as.ctxID(c.n)
		seq := c.coll.next(ctx)
		for mask := 1; mask < as.Size; mask <<= 1 {
			if me&mask == 0 {
				if src := me | mask; src < as.Size {
					combine(acc, c.collRecvCtx(ctx, seq, 0, as.rankOf(src)))
				}
			} else {
				c.collSendCtx(ctx, as.rankOf(me&^mask), seq, 0, acc, obs.FlowColl)
				break
			}
		}
	}
	return c.BroadcastSet(as, 0, acc)
}

// FCollectBytes is shmem_fcollect: every PE contributes the same number of
// bytes; all PEs receive the concatenation ordered by rank. It uses Bruck's
// allgather (ceil(log2 N) rounds, doubling blocks) — the "dense" collective
// of the paper's Figure 7(a): total data gathered is N times the
// contribution.
func (c *Ctx) FCollectBytes(contrib []byte) []byte {
	size := len(contrib)
	out := make([]byte, c.n*size)
	copy(out, contrib)
	if c.n == 1 {
		return out
	}
	start := c.clk.Now()
	defer c.collSpan("fcollect", start, c.hColl)
	seq := c.coll.next(worldCtx)
	have := 1
	round := uint32(0)
	for have < c.n {
		cnt := have
		if c.n-have < cnt {
			cnt = c.n - have
		}
		dst := (c.rank - have + c.n) % c.n
		src := (c.rank + have) % c.n
		c.collSend(dst, seq, round, out[:cnt*size])
		in := c.collRecv(seq, round, src)
		copy(out[have*size:], in)
		have += cnt
		round++
	}
	// Bruck leaves block j holding rank (rank+j)%N; rotate into rank order.
	final := make([]byte, c.n*size)
	for j := 0; j < c.n; j++ {
		owner := (c.rank + j) % c.n
		copy(final[owner*size:(owner+1)*size], out[j*size:(j+1)*size])
	}
	return final
}

// CollectBytes is shmem_collect: contributions may differ in length. Sizes
// are allgathered first, then data is gathered to rank 0 and broadcast.
func (c *Ctx) CollectBytes(contrib []byte) []byte {
	sizes := c.FCollectInt64([]int64{int64(len(contrib))})
	total := 0
	myOff := 0
	for r, s := range sizes {
		if r < c.rank {
			myOff += int(s)
		}
		total += int(s)
	}
	seq := c.coll.next(worldCtx)
	// Binomial gather to rank 0 of (offset, data) fragments.
	type frag struct {
		off  int
		data []byte
	}
	frags := []frag{{myOff, contrib}}
	for mask := 1; mask < c.n; mask <<= 1 {
		if c.rank&mask == 0 {
			src := c.rank | mask
			if src < c.n {
				in := c.collRecv(seq, 0, src)
				for len(in) > 0 {
					off := int(binary.LittleEndian.Uint64(in))
					n := int(binary.LittleEndian.Uint64(in[8:]))
					frags = append(frags, frag{off, in[16 : 16+n]})
					in = in[16+n:]
				}
			}
		} else {
			buf := make([]byte, 0, 16+len(contrib))
			for _, f := range frags {
				var hdr [16]byte
				binary.LittleEndian.PutUint64(hdr[:], uint64(f.off))
				binary.LittleEndian.PutUint64(hdr[8:], uint64(len(f.data)))
				buf = append(buf, hdr[:]...)
				buf = append(buf, f.data...)
			}
			c.collSend(c.rank&^mask, seq, 0, buf)
			break
		}
	}
	var out []byte
	if c.rank == 0 {
		out = make([]byte, total)
		for _, f := range frags {
			copy(out[f.off:], f.data)
		}
	}
	return c.BroadcastBytes(0, out)
}

// ReduceOp names the reduction operators of shmem_*_to_all.
type ReduceOp uint8

const (
	OpSum ReduceOp = iota
	OpProd
	OpMin
	OpMax
	OpAnd
	OpOr
	OpXor
)

// ReduceInt64 performs an element-wise allreduce over int64 vectors
// (shmem_long_<op>_to_all with the result available on every PE).
func (c *Ctx) ReduceInt64(op ReduceOp, local []int64) []int64 { return Reduce(c, op, local) }

// ReduceFloat64 performs an element-wise allreduce over float64 vectors.
// Bitwise operators are invalid for floating point.
func (c *Ctx) ReduceFloat64(op ReduceOp, local []float64) []float64 { return Reduce(c, op, local) }

// FCollectFloat64 allgathers equal-length float64 vectors, ordered by rank.
func (c *Ctx) FCollectFloat64(contrib []float64) []float64 { return FCollect(c, contrib) }

// FCollectInt64 allgathers equal-length int64 vectors, ordered by rank.
func (c *Ctx) FCollectInt64(contrib []int64) []int64 { return FCollect(c, contrib) }
