// Package shmem implements the OpenSHMEM runtime under study — the paper's
// primary contribution lives here and in the conduit it drives
// (internal/gasnet). It provides the symmetric heap, one-sided put/get,
// fetching atomics, collectives, synchronization, and — the subject of the
// paper — a start_pes initialization path with two designs:
//
//   - Current design (static): blocking PMI endpoint exchange, eager
//     all-to-all connection establishment, an explicit broadcast of the
//     symmetric-segment <address,size,rkey> triplets to every peer, and
//     global barriers between initialization phases.
//
//   - Proposed design (on-demand): non-blocking PMIX_Iallgather endpoint
//     exchange overlapped with memory registration, no connections at init
//     (they are established on first communication, with segment triplets
//     piggybacked on the connect handshake), and intra-node barriers in
//     place of the global ones.
//
// Ctx records a per-phase breakdown of start_pes so the paper's Figures 1
// and 5(b) can be regenerated.
package shmem

import (
	"fmt"
	"sync"

	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/pmi"
	"goshmem/internal/vclock"
)

// SegExchange selects how symmetric-segment RDMA keys reach the peers.
type SegExchange uint8

const (
	// SegAuto picks SegBroadcast for static mode and SegPiggyback for
	// on-demand mode (the designs the paper compares).
	SegAuto SegExchange = iota
	// SegBroadcast sends the triplets to every peer over active messages at
	// init — the current design, which forces all-to-all connectivity.
	SegBroadcast
	// SegPiggyback rides the triplets on the connect REQ/REP messages — the
	// proposed design (paper section IV-C).
	SegPiggyback
	// SegAMOnDemand fetches the triplets with an explicit request/reply
	// round-trip after the connection is up — the ablation that isolates the
	// benefit of piggybacking.
	SegAMOnDemand
)

// Options configures one PE's runtime.
type Options struct {
	// Mode selects static or on-demand connection management.
	Mode gasnet.Mode
	// BlockingPMI forces the blocking Put-Fence-Get endpoint exchange even
	// in on-demand mode (ablation for section IV-D).
	BlockingPMI bool
	// SegEx selects the segment-key exchange strategy.
	SegEx SegExchange
	// HeapSize is the symmetric heap size in bytes (default 1 MiB). It is
	// registered, and its registration paid for, at start_pes; memory is
	// held only for the blocks Malloc hands out, so a paper-scale heap of
	// 1 GiB costs a PE nothing until it allocates.
	HeapSize int
	// GlobalInitBarriers makes even the on-demand design use global
	// barriers during initialization — the ablation for the paper's
	// section IV-E (intra-node barrier substitution).
	GlobalInitBarriers bool
	// MaxLiveRC caps the live RC queue pairs on the PE's HCA; when a new
	// connection would exceed it, the conduit evicts its least-recently-used
	// idle connection (the evicted peer reconnects on demand). Zero means
	// unbounded; on-demand mode only. See gasnet.Config.MaxLiveRC.
	MaxLiveRC int
	// Heartbeat forces the conduit's UD failure detector on or off (zero
	// value: armed automatically only when the fabric schedules faults).
	Heartbeat gasnet.HeartbeatConfig
}

// The startup phases: the named slices of start_pes. Attach closes each once,
// in this order, so their durations tile the init interval exactly.
const (
	PhaseQPSetup = iota
	PhasePMIExchange
	PhaseMemReg
	PhaseSharedMem
	PhaseConnSetup
	PhaseRkeyExchange
	PhaseOther
)

// PhaseNames name the phases in reports and in their "init:<name>" spans.
var PhaseNames = [...]string{"qp-setup", "pmi-exchange", "mem-reg", "shared-mem", "conn-setup", "rkey-exchange", "other"}

// Phases is the virtual time (ns) start_pes spent in each phase.
type Phases [len(PhaseNames)]int64

// Total is the whole start_pes interval, which the phases tile.
func (p Phases) Total() (t int64) {
	for _, d := range p {
		t += d
	}
	return t
}

// Fig1 folds the phases into the buckets of the paper's Figure 1 / 5(b):
// connection setup, PMI exchange, memory registration, shared-memory setup
// and other.
func (p Phases) Fig1() [5]int64 {
	return [5]int64{p[PhaseConnSetup] + p[PhaseRkeyExchange], p[PhasePMIExchange],
		p[PhaseMemReg], p[PhaseSharedMem], p[PhaseQPSetup] + p[PhaseOther]}
}

// AM handler identifiers used by the runtime. The mini-MPI on the same
// conduit uses 5; 14-15 are the conduit's own (framed atomics).
const (
	amColl    uint8 = 1 // collective fragments
	amSegInfo uint8 = 2 // segment-info broadcast / reply
	amSegReq  uint8 = 3 // segment-info request (SegAMOnDemand)
	amSignal  uint8 = 4 // put-with-signal delivery notification
)

// Ctx is one PE's OpenSHMEM context (the handle start_pes returns).
type Ctx struct {
	rank int
	n    int
	opts Options

	conduit *gasnet.Conduit
	pmiC    *pmi.Client
	clk     *vclock.Clock
	model   *vclock.CostModel

	obs      *obs.PE
	hPut     *obs.Hist
	hGet     *obs.Hist
	hAtomic  *obs.Hist
	hBarrier *obs.Hist
	hColl    *obs.Hist

	heap *heap
	mr   *ib.MR

	segMu   sync.Mutex // serializes segs' stores; segCond waits on them
	segCond *vclock.Cond
	segs    SegDir

	coll *collState

	watchMu   sync.Mutex
	watchCond *vclock.Cond
	lastWrite int64

	phases    Phases
	finalized bool
}

// Me returns the PE's rank (shmem_my_pe).
func (c *Ctx) Me() int { return c.rank }

// NPEs returns the job size (shmem_n_pes).
func (c *Ctx) NPEs() int { return c.n }

// Clock returns the PE's virtual clock.
func (c *Ctx) Clock() *vclock.Clock { return c.clk }

// Conduit exposes the underlying conduit (shared with the mini-MPI in
// hybrid programs — the unified-runtime model of MVAPICH2-X).
func (c *Ctx) Conduit() *gasnet.Conduit { return c.conduit }

// Phases returns start_pes' duration per phase.
func (c *Ctx) Phases() Phases { return c.phases }

// HeapBase returns the local symmetric heap's registered base address.
func (c *Ctx) HeapBase() uint64 { return c.mr.Base() }

// Local returns the local backing bytes for a symmetric allocation, for
// direct computation on one's own partition of the global address space.
// [addr, addr+n) must lie inside one live allocation: it panics otherwise.
func (c *Ctx) Local(addr SymAddr, n int) []byte {
	b, ok := c.mr.View(int(addr), n)
	if !ok {
		panic(fmt.Errorf("shmem: symmetric range %#x+%d lies in no live allocation", uint64(addr), n))
	}
	return b
}

// remoteAddr translates a symmetric address at a peer into (addr, rkey),
// obtaining the peer's segment triplet if this PE does not hold it yet: via
// the piggybacked connect payload, the init-time broadcast, or an explicit
// AM round-trip, depending on the configured strategy.
func (c *Ctx) remoteAddr(pe int, addr SymAddr, n int) (uint64, uint32, error) {
	if pe < 0 || pe >= c.n {
		return 0, 0, fmt.Errorf("shmem: pe %d out of range [0,%d)", pe, c.n)
	}
	s := c.segs.Lookup(pe)
	if s == nil {
		var err error
		if s, err = c.fetchSeg(pe); err != nil {
			return 0, 0, err
		}
	}
	if uint64(addr)+uint64(n) > s.Size {
		return 0, 0, fmt.Errorf("shmem: symmetric address %#x+%d outside pe %d's segment of %d bytes",
			uint64(addr), n, pe, s.Size)
	}
	return s.Base + uint64(addr), s.RKey, nil
}
