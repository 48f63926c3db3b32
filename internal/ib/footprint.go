package ib

import (
	"unsafe"

	"goshmem/internal/obs"
)

// Footprint models the adapter's retained memory for the engine census
// (obs.FootprintReporter). Every quantity is deterministic on a fixed seed —
// object counts times struct-shell sizes plus exact buffer lengths — so the
// modeled numbers are byte-stable across runs of the same schedule; slice
// capacity slack is deliberately left to the census tolerance.
//
// Categories:
//
//   - qps: live queue-pair shells (the qpn table keeps destroyed slots as
//     nil, so retained == live) plus the table itself and each QP's
//     receive-queue release list.
//   - mrs: registered-region shells, registry entries and window tables. The
//     backing windows are attributed separately, one object each:
//   - pinned-bytes: backed bytes of pinned regions. A symmetric heap is
//     registered at its full size but backed per allocation, so this is what
//     the programs allocated, not np × HeapSize (attributed here, not in
//     shmem — the region owns its windows). ib.bytes_pinned and the
//     pinned-memory budget still count the registered size.
//   - bounce-slab: the pre-registered degradation slab.
//   - bounced-bytes: backed bytes of regions degraded past the pinned
//     budget (unpinned, but still live Go heap).
//   - ports: per-rail port bookkeeping (one entry per rail on this HCA).
func (h *HCA) Footprint() []obs.FootprintItem {
	qpSize := int64(unsafe.Sizeof(QP{}))
	mrSize := int64(unsafe.Sizeof(MR{}))
	rails := h.f.Rails()

	h.mu.Lock()
	var qps obs.FootprintItem
	qps.Bytes = int64(len(h.qps)) * int64(unsafe.Sizeof((*QP)(nil)))
	for _, q := range h.qps {
		if q == nil {
			continue
		}
		qps.Objects++
		qps.Bytes += qpSize + int64(len(q.rqRel))*8
	}
	slabMR := h.slab
	h.mu.Unlock()
	var mrs, pinned, slab, bounced obs.FootprintItem
	for _, m := range *h.mrs.Load() {
		wins := *m.wins.Load()
		mrs.Objects++
		mrs.Bytes += mrSize + int64(unsafe.Sizeof(m)) + int64(len(wins))*int64(unsafe.Sizeof(window{}))
		backing := &pinned
		if m == slabMR {
			backing = &slab
		} else if m.bounced {
			backing = &bounced
		}
		for _, w := range wins {
			backing.Objects++
			backing.Bytes += int64(len(w.mem))
		}
	}
	return []obs.FootprintItem{
		{Subsystem: "ib", Category: "qps", Bytes: qps.Bytes, Objects: qps.Objects},
		{Subsystem: "ib", Category: "mrs", Bytes: mrs.Bytes, Objects: mrs.Objects},
		{Subsystem: "ib", Category: "pinned-bytes", Bytes: pinned.Bytes, Objects: pinned.Objects},
		{Subsystem: "ib", Category: "bounce-slab", Bytes: slab.Bytes, Objects: slab.Objects},
		{Subsystem: "ib", Category: "bounced-bytes", Bytes: bounced.Bytes, Objects: bounced.Objects},
		{Subsystem: "ib", Category: "ports", Bytes: int64(rails) * portStateBytes, Objects: int64(rails)},
	}
}

// portStateBytes is the modeled per-port bookkeeping cost: the HCA's slice
// of the fabric's rail state (path liveness, fault schedules) prorated to
// one port. Small by construction; it exists so a 4-rail sweep shows the
// per-rail term rather than silently folding it into drift.
const portStateBytes = int64(unsafe.Sizeof(portFault{})) + int64(unsafe.Sizeof(railFault{}))
