package shmem

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"goshmem/internal/gasnet"
)

// Segment triplet wire format: base u64 | size u64 | rkey u32.
const segWireLen = 8 + 8 + 4

// segChunkLen is how many consecutive ranks one directory chunk covers.
const segChunkLen = 32

// Seg is one peer's <address, size, rkey> triplet. It is written at most
// once, under the directory owner's lock, and have is written last: whoever
// sees have set may read the triplet without the lock.
type Seg struct {
	Base, Size uint64
	RKey       uint32
	have       atomic.Bool
}

// segChunk is a fixed array, the last one included (its slots past np stay
// unused), so indexing it needs no bounds check on the lookup path.
type segChunk [segChunkLen]Seg

// SegDir is a PE's directory of its peers' segments, holding only the peers
// it has heard from: the chunk covering a rank's range of segChunkLen is
// allocated by the first store into it, so an on-demand PE pays for the
// neighbourhood it talks to and the directory is dense only when every peer
// is known (static, SegBroadcast). Entries outlive QP eviction — a reconnect
// re-carries the triplet and Store keeps the first. Stores are serialized by
// the owner's lock; Lookup takes none. Every rank passed must be in range.
type SegDir struct {
	top []atomic.Pointer[segChunk]
}

// NewSegDir returns an empty directory for an np-rank job.
func NewSegDir(np int) SegDir {
	return SegDir{top: make([]atomic.Pointer[segChunk], (np+segChunkLen-1)/segChunkLen)}
}

// Lookup returns pe's segment, or nil if none is stored yet.
func (d *SegDir) Lookup(pe int) *Seg {
	if ch := d.top[uint(pe)/segChunkLen].Load(); ch != nil {
		if s := &ch[uint(pe)%segChunkLen]; s.have.Load() {
			return s
		}
	}
	return nil
}

// Store records pe's segment unless one is already there. The caller holds
// the lock that serializes this directory's stores.
func (d *SegDir) Store(pe int, base, size uint64, rkey uint32) {
	slot := &d.top[uint(pe)/segChunkLen]
	ch := slot.Load()
	if ch == nil {
		ch = new(segChunk)
		slot.Store(ch)
	}
	if s := &ch[uint(pe)%segChunkLen]; !s.have.Load() {
		s.Base, s.Size, s.RKey = base, size, rkey
		s.have.Store(true)
	}
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

// chunks counts the allocated chunks.
func (d *SegDir) chunks() int64 {
	n := int64(0)
	for i := range d.top {
		if d.top[i].Load() != nil {
			n++
		}
	}
	return n
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

// setOwnSeg installs this PE's own triplet (self put/get are legal).
func (c *Ctx) setOwnSeg() {
	c.segMu.Lock()
	c.segs.Store(c.rank, c.mr.Base(), uint64(c.mr.Size()), c.mr.RKey())
	c.segMu.Unlock()
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
	c.segMu.Lock()
	for !c.allSegsLocked() {
		if err := c.conduit.LivenessErr(); err != nil {
			c.segMu.Unlock()
			panic(fmt.Errorf("shmem: segment broadcast: %w", err))
		}
		c.segCond.Wait()
	}
	c.segMu.Unlock()
}

func (c *Ctx) allSegsLocked() bool {
	for pe := 0; pe < c.n; pe++ {
		if c.segs.Lookup(pe) == nil {
			return false
		}
	}
	return true
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
		for {
			if s := c.segs.Lookup(pe); s != nil {
				return s, nil
			}
			if err := c.conduit.LivenessErr(); err != nil {
				return nil, fmt.Errorf("shmem: segment fetch from pe %d: %w", pe, err)
			}
			c.segCond.Wait()
		}
	}
	return nil, fmt.Errorf("shmem: unknown segment exchange strategy %d", c.opts.SegEx)
}
