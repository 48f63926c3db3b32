// Package mpi is a minimal MPI implementation layered on the same conduit as
// the OpenSHMEM runtime — the unified-runtime model of MVAPICH2-X that the
// paper's hybrid MPI+OpenSHMEM experiments rely on. Because both models share
// one connection pool, a connection established by an MPI send is reused by
// OpenSHMEM puts (and vice versa), resources are consolidated, and the
// deadlocks of running two independent stacks cannot arise.
//
// The subset implemented is what the paper's hybrid Graph500 needs: two-sided
// point-to-point with tag matching (eager protocol over active messages) and
// the common collectives.
package mpi

import (
	"encoding/binary"
	"fmt"
	"sync"

	"goshmem/internal/gasnet"
	"goshmem/internal/obs"
	"goshmem/internal/vclock"
)

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// amSend carries eager point-to-point payloads; MPI handler ids live above
// the OpenSHMEM runtime's (32+ per the conduit's id-space convention).
const amSend uint8 = 32

// collTagBase places collective traffic in a tag space user code cannot
// reach (user tags must be >= 0).
const collTagBase = -1 << 30

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Len    int
}

type message struct {
	src  int
	tag  int
	data []byte
	at   int64
}

// Comm is the communicator (COMM_WORLD; the simulation does not split
// communicators).
type Comm struct {
	c    *gasnet.Conduit
	clk  *vclock.Clock
	rank int
	n    int

	obs   *obs.PE
	hSend *obs.Hist
	hRecv *obs.Hist
	hColl *obs.Hist

	mu         sync.Mutex
	cond       *vclock.Cond
	unexpected []*message

	collSeq int64
}

// New attaches an MPI communicator to an existing conduit. In a hybrid
// program pass shmem.Ctx.Conduit() so both models share connections.
func New(c *gasnet.Conduit) *Comm {
	m := &Comm{c: c, clk: c.Clock(), rank: c.Rank(), n: c.NProcs(), obs: c.Obs()}
	m.hSend = m.obs.Hist("mpi.send_ns")
	m.hRecv = m.obs.Hist("mpi.recv_ns")
	m.hColl = m.obs.Hist("mpi.collective_ns")
	m.cond = vclock.NewCond(&m.mu, c.Sched())
	c.RegisterHandler(amSend, func(src int, args [4]uint64, payload []byte, at int64) {
		msg := &message{src: src, tag: int(int64(args[0])), data: payload, at: at}
		m.mu.Lock()
		m.unexpected = append(m.unexpected, msg)
		m.mu.Unlock()
		m.cond.Broadcast()
	})
	// Wake blocked receivers when the job aborts so they observe the error
	// instead of waiting forever for a message from a dead peer.
	c.OnAbort(func(error) { m.cond.Wake() })
	return m
}

// Rank returns this process's rank.
func (m *Comm) Rank() int { return m.rank }

// Size returns the communicator size.
func (m *Comm) Size() int { return m.n }

// Send transmits data to dest with the given tag (eager, like MPI_Send for
// small messages: it returns once the buffer is reusable).
func (m *Comm) Send(dest, tag int, data []byte) error {
	if dest < 0 || dest >= m.n {
		return fmt.Errorf("mpi: dest %d out of range", dest)
	}
	start := m.clk.Now()
	// Flow-matrix classification rides on the tag sign: user point-to-point
	// traffic has tags >= 0, internal collective rounds use negative tags.
	kind := obs.FlowAM
	if tag < 0 {
		kind = obs.FlowColl
	}
	err := m.c.AMRequestKind(dest, amSend, [4]uint64{uint64(int64(tag))}, data, kind)
	// Internal collective traffic (negative tags) is spanned by its
	// collective, not per fragment.
	if tag >= 0 && err == nil && m.obs.Active() {
		end := m.clk.Now()
		m.obs.Span(start, end, obs.LayerMPI, "send", dest, int64(len(data)))
		m.hSend.Record(end - start)
	}
	return err
}

// Recv blocks for a matching message (src/tag may be AnySource/AnyTag) and
// returns its payload. Matching is FIFO per (source, tag) pair, as MPI
// requires.
func (m *Comm) Recv(src, tag int) ([]byte, Status) {
	if src >= 0 {
		m.c.MonitorPeer(src)
	}
	start := m.clk.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, msg := range m.unexpected {
			// AnyTag matches only user tags (>= 0); internal collective
			// traffic (negative tags) is in a separate context, like an
			// MPI communicator's collective context id.
			if (src == AnySource || msg.src == src) &&
				((tag == AnyTag && msg.tag >= 0) || msg.tag == tag) {
				m.unexpected = append(m.unexpected[:i], m.unexpected[i+1:]...)
				m.clk.AdvanceTo(msg.at)
				if msg.tag >= 0 && m.obs.Active() {
					end := m.clk.Now()
					m.obs.Span(start, end, obs.LayerMPI, "recv", msg.src, int64(len(msg.data)))
					m.hRecv.Record(end - start)
				}
				return msg.data, Status{Source: msg.src, Tag: msg.tag, Len: len(msg.data)}
			}
		}
		if err := m.c.LivenessErr(); err != nil {
			panic(fmt.Errorf("mpi: recv from rank %d: %w", src, err))
		}
		m.cond.Wait()
	}
}

// Sendrecv exchanges messages with two (possibly equal) peers.
func (m *Comm) Sendrecv(dest, sendTag int, data []byte, src, recvTag int) ([]byte, Status, error) {
	if err := m.Send(dest, sendTag, data); err != nil {
		return nil, Status{}, err
	}
	b, st := m.Recv(src, recvTag)
	return b, st, nil
}

// nextSeq sequences collective operations; all ranks must call collectives
// in the same order (an MPI requirement).
func (m *Comm) nextSeq() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.collSeq++
	return m.collSeq
}

// collTag builds a reserved tag for round r of collective op seq.
func collTag(seq int64, round int) int { return collTagBase + int(seq)*64 + round }

// collSpan closes a collective's observability span and feeds the MPI
// collective latency histogram.
func (m *Comm) collSpan(kind string, start int64) {
	if !m.obs.Active() {
		return
	}
	end := m.clk.Now()
	m.obs.Span(start, end, obs.LayerMPI, kind, -1, 0)
	m.hColl.Record(end - start)
}

// Barrier blocks until all ranks arrive (dissemination algorithm).
func (m *Comm) Barrier() {
	if m.n == 1 {
		return
	}
	start := m.clk.Now()
	defer m.collSpan("barrier", start)
	seq := m.nextSeq()
	for k, dist := 0, 1; dist < m.n; k, dist = k+1, dist*2 {
		to := (m.rank + dist) % m.n
		from := (m.rank - dist%m.n + m.n) % m.n
		if err := m.Send(to, collTag(seq, k), nil); err != nil {
			panic(fmt.Errorf("mpi: barrier: %w", err))
		}
		m.Recv(from, collTag(seq, k))
	}
}

// Bcast distributes root's buffer to all ranks (binomial tree) and returns
// it on every rank.
func (m *Comm) Bcast(root int, data []byte) []byte {
	if m.n == 1 {
		return data
	}
	start := m.clk.Now()
	defer m.collSpan("bcast", start)
	seq := m.nextSeq()
	relative := (m.rank - root + m.n) % m.n
	buf := data
	mask := 1
	for mask < m.n {
		if relative&mask != 0 {
			parent := (relative - mask + root) % m.n
			buf, _ = m.Recv(parent, collTag(seq, 0))
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if relative+mask < m.n {
			dst := (relative + mask + root) % m.n
			if err := m.Send(dst, collTag(seq, 0), buf); err != nil {
				panic(fmt.Errorf("mpi: bcast: %w", err))
			}
		}
		mask >>= 1
	}
	return buf
}

// Op names the predefined reduction operators.
type Op uint8

const (
	OpSum Op = iota
	OpMin
	OpMax
	OpLOr  // logical or
	OpLAnd // logical and
)

func combine(op Op, a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpLOr:
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	case OpLAnd:
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	}
	panic("mpi: unknown op")
}

// AllreduceInt64 reduces element-wise across all ranks; every rank gets the
// result (binomial reduce to rank 0, then broadcast).
func (m *Comm) AllreduceInt64(op Op, local []int64) []int64 {
	start := m.clk.Now()
	defer m.collSpan("allreduce", start)
	acc := append([]int64(nil), local...)
	if m.n > 1 {
		seq := m.nextSeq()
		for mask := 1; mask < m.n; mask <<= 1 {
			if m.rank&mask == 0 {
				src := m.rank | mask
				if src < m.n {
					b, _ := m.Recv(src, collTag(seq, 1))
					for i := range acc {
						acc[i] = combine(op, acc[i], int64(binary.LittleEndian.Uint64(b[8*i:])))
					}
				}
			} else {
				buf := make([]byte, 8*len(acc))
				for i, v := range acc {
					binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
				}
				if err := m.Send(m.rank&^mask, collTag(seq, 1), buf); err != nil {
					panic(fmt.Errorf("mpi: allreduce: %w", err))
				}
				break
			}
		}
	}
	buf := make([]byte, 8*len(acc))
	for i, v := range acc {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	out := m.Bcast(0, buf)
	res := make([]int64, len(local))
	for i := range res {
		res[i] = int64(binary.LittleEndian.Uint64(out[8*i:]))
	}
	return res
}

// AllgatherInt64 gathers one int64 vector per rank, concatenated in rank
// order on every rank.
func (m *Comm) AllgatherInt64(local []int64) []int64 {
	buf := make([]byte, 8*len(local))
	for i, v := range local {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	blocks := m.allgatherBytes(buf)
	out := make([]int64, 0, m.n*len(local))
	for _, b := range blocks {
		for i := 0; i < len(b); i += 8 {
			out = append(out, int64(binary.LittleEndian.Uint64(b[i:])))
		}
	}
	return out
}

// allgatherBytes is a ring allgather returning per-rank blocks.
func (m *Comm) allgatherBytes(local []byte) [][]byte {
	blocks := make([][]byte, m.n)
	blocks[m.rank] = local
	if m.n == 1 {
		return blocks
	}
	start := m.clk.Now()
	defer m.collSpan("allgather", start)
	seq := m.nextSeq()
	right := (m.rank + 1) % m.n
	left := (m.rank - 1 + m.n) % m.n
	cur := m.rank
	for step := 0; step < m.n-1; step++ {
		if err := m.Send(right, collTag(seq, step), blocks[cur]); err != nil {
			panic(fmt.Errorf("mpi: allgather: %w", err))
		}
		b, _ := m.Recv(left, collTag(seq, step))
		cur = (cur - 1 + m.n) % m.n
		blocks[cur] = b
	}
	return blocks
}

// Alltoallv sends bufs[i] to rank i and returns what every rank sent to us,
// indexed by source (naive pairwise exchange).
func (m *Comm) Alltoallv(bufs [][]byte) [][]byte {
	if len(bufs) != m.n {
		panic("mpi: Alltoallv needs one buffer per rank")
	}
	start := m.clk.Now()
	defer m.collSpan("alltoallv", start)
	seq := m.nextSeq()
	out := make([][]byte, m.n)
	out[m.rank] = bufs[m.rank]
	for off := 1; off < m.n; off++ {
		dst := (m.rank + off) % m.n
		src := (m.rank - off + m.n) % m.n
		if err := m.Send(dst, collTag(seq, 0), bufs[dst]); err != nil {
			panic(fmt.Errorf("mpi: alltoallv: %w", err))
		}
		b, _ := m.Recv(src, collTag(seq, 0))
		out[src] = b
	}
	return out
}
