package pmi

import (
	"unsafe"

	"goshmem/internal/obs"
)

// Footprint models the PMI server's retained memory for the engine census
// (obs.FootprintReporter). One server exists per job. The interesting row is
// the allgather state: a completed PMIX_Iallgather round retains its gathered
// values for the job's lifetime, and every conduit's endpoint directory is a
// reference to that one shared slice — the np string headers and their
// encoded-Dest backing are allocated exactly once, here, which is why the
// gasnet reporter does NOT charge directory contents per PE (doing so
// over-modeled the job by np× the directory size before this reporter
// existed; the census drift check caught it).
//
// All quantities are object counts × struct sizes plus exact lengths (len,
// never cap), keeping modeled numbers byte-stable across identical runs.
func (s *Server) Footprint() []obs.FootprintItem {
	kvs := obs.FootprintItem{Subsystem: "pmi", Category: "kvs"}
	ag := obs.FootprintItem{Subsystem: "pmi", Category: "allgather"}

	// One client per PE, plus each conduit's abort subscription: an 8 B slice
	// slot and a 16 B method-value closure.
	clients := obs.FootprintItem{Subsystem: "pmi", Category: "clients", Objects: s.clients.Load()}
	clients.Bytes = clients.Objects * int64(unsafe.Sizeof(Client{}))

	s.mu.Lock()
	clients.Bytes += int64(len(s.subs)) * 24
	for k, v := range s.kvs {
		kvs.Objects++
		kvs.Bytes += 2*int64(unsafe.Sizeof("")) + int64(len(k)) + int64(len(v)) + obs.MapEntryOverhead
	}
	kvs.Bytes += int64(len(s.unfenced)+len(s.lost)) * (int64(unsafe.Sizeof("")) + obs.MapEntryOverhead)
	for _, op := range s.ag {
		ag.Objects++
		ag.Bytes += int64(unsafe.Sizeof(AllgatherOp{})) + obs.MapEntryOverhead
		op.mu.Lock()
		ag.Bytes += int64(len(op.vals)) * int64(unsafe.Sizeof(""))
		for _, v := range op.vals {
			ag.Bytes += int64(len(v))
		}
		op.mu.Unlock()
	}
	for _, op := range s.ring {
		ag.Objects++
		ag.Bytes += int64(unsafe.Sizeof(ringOp{})) + obs.MapEntryOverhead
		op.mu.Lock()
		ag.Bytes += int64(len(op.vals)) * int64(unsafe.Sizeof(""))
		for _, v := range op.vals {
			ag.Bytes += int64(len(v))
		}
		op.mu.Unlock()
	}
	s.mu.Unlock()

	return []obs.FootprintItem{kvs, ag, clients}
}
