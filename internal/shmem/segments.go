package shmem

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"goshmem/internal/gasnet"
)

// Segment triplet wire format: base u64 | size u64 | rkey u32.
const segWireLen = 8 + 8 + 4

// segChunkLen is how many consecutive ranks one directory chunk covers.
const segChunkLen = 8

// Seg is one peer's <address, size, rkey> triplet. It is written at most
// once, under the directory owner's lock, and have is written last: whoever
// sees have set may read the triplet without the lock.
type Seg struct {
	Base, Size uint64
	RKey       uint32
	have       atomic.Bool
}

// segChunk holds the triplets of segChunkLen consecutive ranks.
type segChunk [segChunkLen]Seg

// segRef is one index entry: the chunk whose first rank is first.
type segRef struct {
	first int
	ch    *segChunk
}

// SegDir is a PE's directory of its peers' segments, holding only the peers
// it has heard from: a chunk is allocated by the first store into its range
// and entered in a sorted index, so an on-demand PE pays for the
// neighbourhood it talks to whatever np is, and the directory is dense only
// when every peer is known (static, SegBroadcast). The index is
// copy-on-write, published through one pointer, like ib.MR's window table.
// Entries outlive QP eviction — a reconnect re-carries the triplet and Store
// keeps the first. Stores are serialized by the owner's lock; Lookup takes
// none. Ranks are non-negative; the zero SegDir is empty and ready to use.
type SegDir struct {
	index atomic.Pointer[[]segRef]
}

// find returns the published index and where pe's chunk is in it, or would
// be inserted. The search is written out: the hit path of every put and get
// runs it, and slices.BinarySearchFunc costs an indirect call per step.
func (d *SegDir) find(pe int) (idx []segRef, i int, ok bool) {
	if p := d.index.Load(); p != nil {
		idx = *p
	}
	first := pe - pe%segChunkLen
	for j := len(idx); i < j; {
		if h := int(uint(i+j) >> 1); idx[h].first < first {
			i = h + 1
		} else {
			j = h
		}
	}
	return idx, i, i < len(idx) && idx[i].first == first
}

// Lookup returns pe's segment, or nil if none is stored yet.
func (d *SegDir) Lookup(pe int) *Seg {
	if idx, i, ok := d.find(pe); ok && idx[i].ch[pe%segChunkLen].have.Load() {
		return &idx[i].ch[pe%segChunkLen]
	}
	return nil
}

// Store records pe's segment unless one is already there. The caller holds
// the lock that serializes this directory's stores.
func (d *SegDir) Store(pe int, base, size uint64, rkey uint32) {
	idx, i, ok := d.find(pe)
	if !ok {
		// Clip makes Insert copy: readers of the old index never see it change.
		grown := slices.Insert(slices.Clip(idx), i, segRef{pe - pe%segChunkLen, new(segChunk)})
		d.index.Store(&grown)
		idx = grown
	}
	if s := &idx[i].ch[pe%segChunkLen]; !s.have.Load() {
		s.Base, s.Size, s.RKey = base, size, rkey
		s.have.Store(true)
	}
}

// reserve enters an empty chunk for each of ranks [0, n) in one index. It is
// for a directory that every peer will fill (static, SegBroadcast), and runs
// before any store: the fill, whose order is the network's, then copies no
// index per chunk (a shuffled fill of 4,096 ranks would allocate 4 MB).
func (d *SegDir) reserve(n int) {
	chunks := make([]segChunk, (n+segChunkLen-1)/segChunkLen)
	idx := make([]segRef, len(chunks))
	for i := range chunks {
		idx[i] = segRef{i * segChunkLen, &chunks[i]}
	}
	d.index.Store(&idx)
}

// Connect returns pe's segment, connecting to pe first when it is not known:
// the segment rides the connect handshake as the conduit's opaque payload.
func (d *SegDir) Connect(conduit *gasnet.Conduit, pe int) (*Seg, error) {
	if s := d.Lookup(pe); s != nil {
		return s, nil
	}
	if err := conduit.EnsureConnected(pe); err != nil {
		return nil, err
	}
	if s := d.Lookup(pe); s != nil {
		return s, nil
	}
	return nil, fmt.Errorf("shmem: segment of pe %d missing after connect", pe)
}

// encodeOwnSeg serializes this PE's <address, size, rkey> triplet. It is the
// opaque payload the conduit piggybacks on connect messages; the conduit
// never parses it (separation of concerns, paper section IV-C).
func (c *Ctx) encodeOwnSeg() []byte {
	b := make([]byte, segWireLen)
	binary.LittleEndian.PutUint64(b[0:], c.mr.Base())
	binary.LittleEndian.PutUint64(b[8:], uint64(c.mr.Size()))
	binary.LittleEndian.PutUint32(b[16:], c.mr.RKey())
	return b
}

// storeSeg records a peer's segment triplet (from piggyback, broadcast or
// explicit reply) and wakes waiters.
func (c *Ctx) storeSeg(peer int, b []byte, at int64) {
	if len(b) != segWireLen || peer < 0 || peer >= c.n {
		return
	}
	c.segMu.Lock()
	c.segs.Store(peer, binary.LittleEndian.Uint64(b[0:]), binary.LittleEndian.Uint64(b[8:]), binary.LittleEndian.Uint32(b[16:]))
	c.segMu.Unlock()
	c.segCond.Broadcast()
}

// broadcastSegs implements the current design's init-time exchange: send the
// triplet to every peer and wait until every peer's triplet has arrived.
// This is the step that forces all-to-all connectivity even on a conduit
// with on-demand support (inefficiency #1 in the paper's section IV-B).
func (c *Ctx) broadcastSegs() {
	own := c.encodeOwnSeg()
	for pe := 0; pe < c.n; pe++ {
		if pe == c.rank {
			continue
		}
		if err := c.conduit.AMRequest(pe, amSegInfo, [4]uint64{}, own); err != nil {
			panic(fmt.Errorf("shmem: segment broadcast to pe %d: %w", pe, err))
		}
	}
	// Wait for each rank in turn: ranks already passed stay known, so a wake
	// looks up only what is still missing.
	c.segMu.Lock()
	for pe := 0; pe < c.n; pe++ {
		for c.segs.Lookup(pe) == nil {
			if err := c.conduit.LivenessErr(); err != nil {
				c.segMu.Unlock()
				panic(fmt.Errorf("shmem: segment broadcast: %w", err))
			}
			c.segCond.Wait()
		}
	}
	c.segMu.Unlock()
}

// fetchSeg obtains a missing segment triplet according to the configured
// strategy.
func (c *Ctx) fetchSeg(pe int) (*Seg, error) {
	switch c.opts.SegEx {
	case SegPiggyback:
		// The triplet rides on the connect handshake; after EnsureConnected
		// it is guaranteed to be present.
		return c.segs.Connect(c.conduit, pe)
	case SegBroadcast:
		// Attach waited for every triplet: a miss is a lost one.
		return nil, fmt.Errorf("shmem: segment info for pe %d missing after init broadcast", pe)
	case SegAMOnDemand:
		// Ablation: an explicit request/reply round-trip after connecting —
		// the extra message the piggyback design eliminates.
		if err := c.conduit.EnsureConnected(pe); err != nil {
			return nil, err
		}
		if s := c.segs.Lookup(pe); s != nil {
			return s, nil
		}
		if err := c.conduit.AMRequest(pe, amSegReq, [4]uint64{}, nil); err != nil {
			return nil, err
		}
		c.segMu.Lock()
		defer c.segMu.Unlock()
		s := c.segs.Lookup(pe)
		for ; s == nil; s = c.segs.Lookup(pe) {
			if err := c.conduit.LivenessErr(); err != nil {
				return nil, fmt.Errorf("shmem: segment fetch from pe %d: %w", pe, err)
			}
			c.segCond.Wait()
		}
		return s, nil
	}
	return nil, fmt.Errorf("shmem: unknown segment exchange strategy %d", c.opts.SegEx)
}
