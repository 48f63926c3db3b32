package shmem

import (
	"unsafe"

	"goshmem/internal/obs"
	"goshmem/internal/vclock"
)

// Footprint models this context's retained memory for the engine census
// (obs.FootprintReporter). The segment directory holds an <address, size,
// rkey> triplet for each peer this PE has heard from, in chunks of
// segChunkLen ranks allocated on first store, plus one index entry per chunk:
// an on-demand PE pays for the chunks around the peers it talks to, whatever
// np is, and the directory is dense — O(np) per PE, O(np²) job-wide — only
// when every peer is known (static, SegBroadcast). (The census caught the old
// dense table as an unattributed ~400 MB drift row at np=4096 before this
// reporter existed, which is exactly the failure mode the reconciliation
// check is for.)
//
// The symmetric heap's blocks are NOT counted here: Malloc backs each one as
// a window of the region registered with the adapter, which attributes them
// as ib/pinned-bytes; counting them twice would overstate the modeled total.
// A heap nobody allocates from costs nothing, whatever HeapSize says.
//
// All quantities are object counts × struct sizes plus exact lengths (len,
// never cap), keeping modeled numbers byte-stable across identical runs.
func (c *Ctx) Footprint() []obs.FootprintItem {
	idx, _, _ := c.segs.find(0) // the published index, one entry per chunk
	segDir := obs.FootprintItem{Subsystem: "shmem", Category: "seg-dir", Objects: int64(len(idx))}
	segDir.Bytes = segDir.Objects * int64(unsafe.Sizeof(segChunk{})+unsafe.Sizeof(segRef{}))

	shell := obs.FootprintItem{Subsystem: "shmem", Category: "ctx", Objects: 1}
	shell.Bytes = int64(unsafe.Sizeof(Ctx{}) + 2*unsafe.Sizeof(vclock.Cond{})) // segCond, watchCond
	if c.heap != nil {
		c.heap.mu.Lock()
		shell.Bytes += int64(unsafe.Sizeof(heap{}))
		shell.Bytes += int64(len(c.heap.free)) * int64(unsafe.Sizeof(span{}))
		shell.Bytes += int64(len(c.heap.used)) * (16 + obs.MapEntryOverhead)
		c.heap.mu.Unlock()
	}
	if c.coll != nil {
		shell.Bytes += c.coll.memSize()
	}

	return []obs.FootprintItem{segDir, shell}
}
