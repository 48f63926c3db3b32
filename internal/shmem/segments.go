package shmem

import (
	"encoding/binary"
	"fmt"
)

// Segment triplet wire format: base u64 | size u64 | rkey u32.
const segWireLen = 8 + 8 + 4

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
	if s := &c.segs[peer]; !s.have.Load() {
		s.set(binary.LittleEndian.Uint64(b[0:]), binary.LittleEndian.Uint64(b[8:]), binary.LittleEndian.Uint32(b[16:]))
	}
	c.segMu.Unlock()
	c.segCond.Broadcast()
}

// setOwnSeg installs this PE's own triplet (self put/get are legal).
func (c *Ctx) setOwnSeg() {
	c.segMu.Lock()
	c.segs[c.rank].set(c.mr.Base(), uint64(c.mr.Size()), c.mr.RKey())
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
	for i := range c.segs {
		if !c.segs[i].have.Load() {
			return false
		}
	}
	return true
}

// fetchSeg obtains a missing segment triplet according to the configured
// strategy.
func (c *Ctx) fetchSeg(pe int) error {
	switch c.opts.SegEx {
	case SegPiggyback:
		// The triplet rides on the connect handshake; after EnsureConnected
		// it is guaranteed to be present.
		if err := c.conduit.EnsureConnected(pe); err != nil {
			return err
		}
		c.segMu.Lock()
		defer c.segMu.Unlock()
		if !c.segs[pe].have.Load() {
			return fmt.Errorf("shmem: piggybacked segment info for pe %d missing after connect", pe)
		}
		return nil
	case SegBroadcast:
		c.segMu.Lock()
		defer c.segMu.Unlock()
		if !c.segs[pe].have.Load() {
			return fmt.Errorf("shmem: segment info for pe %d missing after init broadcast", pe)
		}
		return nil
	case SegAMOnDemand:
		// Ablation: an explicit request/reply round-trip after connecting —
		// the extra message the piggyback design eliminates.
		if err := c.conduit.EnsureConnected(pe); err != nil {
			return err
		}
		if c.segs[pe].have.Load() {
			return nil
		}
		if err := c.conduit.AMRequest(pe, amSegReq, [4]uint64{}, nil); err != nil {
			return err
		}
		c.segMu.Lock()
		for !c.segs[pe].have.Load() {
			if err := c.conduit.LivenessErr(); err != nil {
				c.segMu.Unlock()
				return fmt.Errorf("shmem: segment fetch from pe %d: %w", pe, err)
			}
			c.segCond.Wait()
		}
		c.segMu.Unlock()
		return nil
	}
	return fmt.Errorf("shmem: unknown segment exchange strategy %d", c.opts.SegEx)
}
