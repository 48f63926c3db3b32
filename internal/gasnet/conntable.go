package gasnet

import "unsafe"

// connTable is a PE's peer -> connection-slot table. The representation is
// chosen once from the connection mode, because the two modes sit at opposite
// ends of the density range: a static PE fills every slot during attach, so a
// dense slice is the smallest and fastest form; an on-demand PE talks to a
// handful of peers, so a map keeps its state proportional to the peers it
// actually contacts rather than to the job size (the paper's point).
//
// All methods require the caller to hold Conduit.connMu.
type connTable struct {
	dense  []*conn       // static mode: indexed by peer, nil until first use
	sparse map[int]*conn // on-demand mode

	// What a new slot carries beside its handshake state: a session on a lossy
	// fabric, a credit window against finite receive queues (session.go), the
	// failure detector's view of the peer when it is armed (detector.go).
	lossy, credited, watched bool
}

func newConnTable(mode Mode, nprocs int, lossy, credited, watched bool) connTable {
	t := connTable{lossy: lossy, credited: credited, watched: watched}
	if mode == Static {
		t.dense = make([]*conn, nprocs)
	} else {
		t.sparse = make(map[int]*conn)
	}
	return t
}

// get returns peer's slot, or nil when none has been created.
func (t *connTable) get(peer int) *conn {
	if t.dense != nil {
		return t.dense[peer]
	}
	return t.sparse[peer]
}

// getOrCreate returns peer's slot, creating an empty one on first use.
func (t *connTable) getOrCreate(peer int) *conn {
	cn := t.get(peer)
	if cn == nil {
		cn = &conn{}
		if t.lossy {
			cn.sess = new(session)
		}
		if t.credited {
			cn.credit = new(creditWindow)
		}
		if t.watched {
			cn.health = new(health)
		}
		if t.dense != nil {
			t.dense[peer] = cn
		} else {
			t.sparse[peer] = cn
		}
	}
	return cn
}

// each visits every created slot: in peer order for the dense table, in map
// order for the sparse one, so callers must not let the visit order leak
// into anything observable.
func (t *connTable) each(f func(peer int, cn *conn)) {
	for peer, cn := range t.dense {
		if cn != nil {
			f(peer, cn)
		}
	}
	for peer, cn := range t.sparse {
		f(peer, cn)
	}
}

// footprintBytes models the table's own retained memory (the slots
// themselves are counted by the caller): one pointer per rank when dense,
// one map entry per contacted peer when sparse.
func (t *connTable) footprintBytes() int64 {
	const ptr = int64(unsafe.Sizeof((*conn)(nil)))
	return int64(len(t.dense))*ptr + int64(len(t.sparse))*(ptr+mapEntryOverhead)
}
