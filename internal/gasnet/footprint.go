package gasnet

import (
	"sync"
	"unsafe"

	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/vclock"
)

// Footprint models this conduit's retained memory for the engine census
// (obs.FootprintReporter). One conduit exists per PE, so at np PEs the
// census sums np of these; the static-mode scaling story — O(np) connection
// shells per PE, O(np²) job-wide — falls straight out of the "conns"
// category, which is exactly the curve the paper's Fig. 5(a) plots.
//
// All quantities are object counts × struct-shell sizes plus exact lengths
// (len, never cap), so fixed-seed modeled numbers are byte-stable; capacity
// slack from append growth is covered by the census drift tolerance.
//
// The conduit's lock order is connMu, then the completion table's; here each
// is taken alone, so the census boundary can never deadlock against the
// progress goroutine.
func (c *Conduit) Footprint() []obs.FootprintItem {
	connSize := int64(unsafe.Sizeof(conn{}))
	pendSize := int64(unsafe.Sizeof(pendingWR{}))
	retSize := int64(unsafe.Sizeof([]byte(nil)))
	heldSize := int64(unsafe.Sizeof(heldReq{}))
	defAMSize := int64(unsafe.Sizeof(deferredAM{}))
	complSize := int64(unsafe.Sizeof(ib.Completion{}))

	var conns, retained, credits, misc obs.FootprintItem
	// connCond and done.cond, then the completion queue's shell and its cond.
	misc.Bytes = int64(unsafe.Sizeof(Conduit{}) + 2*unsafe.Sizeof(vclock.Cond{}) + unsafe.Sizeof(ib.CQ{}) + unsafe.Sizeof(sync.Cond{}))
	misc.Objects = 1

	c.connMu.Lock()
	// The connection table itself: a dense pointer slice in static mode, a
	// map in on-demand mode — the allocation asymmetry under study.
	misc.Bytes += c.conns.footprintBytes()
	c.conns.each(func(_ int, cn *conn) {
		conns.Objects++
		conns.Bytes += connSize + int64(len(cn.pending))*pendSize
		if cn.sess != nil {
			conns.Bytes += int64(unsafe.Sizeof(session{}))
			for _, framed := range cn.sess.unacked {
				retained.Objects++
				retained.Bytes += retSize + int64(len(framed))
			}
		}
		if cn.health != nil {
			conns.Bytes += int64(unsafe.Sizeof(health{}))
		}
		if cn.credit != nil {
			credits.Objects += int64(len(cn.credit.rel))
			credits.Bytes += int64(unsafe.Sizeof(creditWindow{})) + int64(len(cn.credit.rel))*8
		}
	})
	misc.Bytes += int64(len(c.heldReqs)) * heldSize
	misc.Bytes += int64(len(c.qpPeer)) * (12 + obs.MapEntryOverhead)
	for _, ams := range c.deferredAM {
		for _, am := range ams {
			misc.Bytes += defAMSize + int64(len(am.payload))
		}
	}
	c.connMu.Unlock()

	if c.cq != nil {
		misc.Bytes += int64(c.cq.Len()) * complSize
	}

	c.done.mu.Lock()
	misc.Bytes += int64(len(c.done.ops))*int64(unsafe.Sizeof(pendingOp{})) + int64(len(c.done.free))*4
	c.done.mu.Unlock()

	// The endpoint directory (udVals) is deliberately NOT charged here: it is
	// a reference to the single job-wide slice the PMI server's AllgatherOp
	// retains — every conduit shares the same backing, the slice header is
	// already inside sizeof(Conduit), and the np string headers plus their
	// encoded-Dest contents are attributed once by the pmi reporter
	// (pmi/allgather). Charging contents per PE over-modeled the job by np×
	// the directory size; the census drift check is what caught it. Static
	// mode retains even less: udFromKVS resolves through the server on every
	// lookup.

	return []obs.FootprintItem{
		{Subsystem: "gasnet", Category: "conns", Bytes: conns.Bytes, Objects: conns.Objects},
		{Subsystem: "gasnet", Category: "retained-frames", Bytes: retained.Bytes, Objects: retained.Objects},
		{Subsystem: "gasnet", Category: "credit-state", Bytes: credits.Bytes, Objects: credits.Objects},
		{Subsystem: "gasnet", Category: "conduit", Bytes: misc.Bytes, Objects: misc.Objects},
	}
}
