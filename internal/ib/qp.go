package ib

import (
	"sync/atomic"

	"goshmem/internal/obs"
	"goshmem/internal/vclock"
)

// QP is a simulated queue pair. A QP is owned by one PE; its methods charge
// that PE's virtual clock. The struct is kept small deliberately: static
// connection mode materializes N queue pairs per process, and the memory
// pressure of that fully connected model (the paper's section I, item 2) is
// one of the phenomena under study.
type QP struct {
	hca    *HCA
	clk    *vclock.Clock
	sendCQ *CQ
	recvCQ *CQ
	obs    *obs.PE // owning PE's recorder; nil/Nop when observability is off
	// peer is the connected remote queue pair, resolved on the first post
	// (peerOf) and kept: QPNs are never reused, so from then on its state
	// alone says whether the far half of the connection is alive.
	peer   atomic.Pointer[QP]
	qpn    uint32
	remote Dest
	// state changes under hca.mu and is read without it (PostSend).
	state   atomic.Uint32
	lastArr int64 // monotone arrival clamp for ordered RC delivery
	// rqDepth, when positive, bounds the receive queue: rqRel holds the
	// virtual times at which delivered-but-unprocessed messages release
	// their slot (arrival + RQDrain). A send arriving while rqDepth slots
	// are held is NAKed with ErrRNR (see Fabric.sendRC). The list stays
	// sorted because RC arrivals on one QP are monotone.
	rqDepth int32
	typ     QPType
	rqRel   []int64
	// primaryRail and altRail are the QP's loaded paths on a multi-rail
	// fabric (IB APM: the alternate path is programmed alongside the primary
	// and armed for migration; see SetPath/Migrate). Both default to rail 0,
	// which on a single-rail fabric means no alternate exists.
	primaryRail int
	altRail     int
}

// SetObs binds the owning PE's observability recorder, so state transitions
// and fabric-level fault injections on this QP are attributed to that PE.
func (q *QP) SetObs(rec *obs.PE) {
	q.hca.mu.Lock()
	q.obs = rec
	q.hca.mu.Unlock()
}

// QPN returns the queue-pair number.
func (q *QP) QPN() uint32 { return q.qpn }

// Type returns the transport type.
func (q *QP) Type() QPType { return q.typ }

// State returns the current state.
func (q *QP) State() QPState { return QPState(q.state.Load()) }

// set moves the QP to state s. Caller holds q.hca.mu.
func (q *QP) set(s QPState) { q.state.Store(uint32(s)) }

// Addr returns the <lid,qpn> address peers use to reach this QP.
func (q *QP) Addr() Dest { return Dest{LID: q.hca.lid, QPN: q.qpn} }

// SetClock rebinds the clock charged for this QP's state transitions and
// default-clocked posts. The conduit uses it when responsibility for a QP
// moves between the application thread and the connection-manager thread.
func (q *QP) SetClock(clk *vclock.Clock) {
	q.hca.mu.Lock()
	q.clk = clk
	q.hca.mu.Unlock()
}

// Remote returns the connected peer address (RC only).
func (q *QP) Remote() Dest { return q.remote }

// SetPath loads the QP's primary and alternate paths (rail indices) — the
// simulated equivalent of programming the primary path at INIT->RTR and the
// alternate path alongside it, armed for Automatic Path Migration. The
// connection manager calls it before the handshake transitions; an alternate
// equal to the primary means no alternate is loaded (single-rail fabric).
func (q *QP) SetPath(primary, alt int) {
	q.hca.mu.Lock()
	q.primaryRail = primary
	q.altRail = alt
	q.hca.mu.Unlock()
}

// Rail returns the QP's primary path (rail index).
func (q *QP) Rail() int {
	q.hca.mu.Lock()
	defer q.hca.mu.Unlock()
	return q.primaryRail
}

// AltRail returns the QP's loaded alternate path (rail index); equal to
// Rail() when no alternate is loaded.
func (q *QP) AltRail() int {
	q.hca.mu.Lock()
	defer q.hca.mu.Unlock()
	return q.altRail
}

// Migrate performs Automatic Path Migration: the loaded alternate path
// becomes the primary and the old primary is demoted to alternate, without
// leaving RTS — in-flight state (sequence numbers, the conduit's retained
// frames) survives because the queue pair is never torn down. Real APM keys
// this off the path-error event; here the connection manager drives it when a
// post fails with ErrPathDown. It fails with ErrBadState outside RTS and with
// ErrPathDown when no distinct alternate is loaded.
func (q *QP) Migrate() error {
	q.hca.mu.Lock()
	defer q.hca.mu.Unlock()
	if q.State() != StateRTS {
		return ErrBadState
	}
	if q.altRail == q.primaryRail {
		return ErrPathDown
	}
	q.primaryRail, q.altRail = q.altRail, q.primaryRail
	q.clk.Advance(q.hca.f.model.QPTransition)
	q.obs.Emit(q.clk.Now(), obs.LayerIB, "qp-migrate", -1, int64(q.primaryRail))
	return nil
}

// ToInit transitions RESET -> INIT.
func (q *QP) ToInit() error {
	q.hca.mu.Lock()
	defer q.hca.mu.Unlock()
	if q.State() != StateReset {
		return ErrBadState
	}
	q.set(StateInit)
	q.clk.Advance(q.hca.f.model.QPTransition)
	q.obs.Emit(q.clk.Now(), obs.LayerIB, "qp-init", -1, 0)
	return nil
}

// ToRTR transitions INIT -> RTR. For RC the remote <lid,qpn> must be given
// (obtained out-of-band, e.g. via PMI or the UD connect handshake); for UD
// remote is ignored.
func (q *QP) ToRTR(remote Dest) error {
	q.hca.mu.Lock()
	defer q.hca.mu.Unlock()
	if q.State() != StateInit {
		return ErrBadState
	}
	if q.typ == RC {
		if remote.LID == 0 || remote.QPN == 0 {
			return ErrNotConnected
		}
		q.remote = remote
	}
	q.set(StateRTR)
	q.clk.Advance(q.hca.f.model.QPTransition)
	q.obs.Emit(q.clk.Now(), obs.LayerIB, "qp-rtr", -1, 0)
	return nil
}

// ToRTS transitions RTR -> RTS.
func (q *QP) ToRTS() error {
	q.hca.mu.Lock()
	defer q.hca.mu.Unlock()
	if q.State() != StateRTR {
		return ErrBadState
	}
	q.set(StateRTS)
	q.clk.Advance(q.hca.f.model.QPTransition)
	if q.typ == RC {
		q.hca.stats.RCEstablished++
		atomic.AddInt64(&q.hca.stats.LiveRC, 1)
	}
	q.obs.Emit(q.clk.Now(), obs.LayerIB, "qp-rts", -1, 0)
	return nil
}

// ToError forces the QP into the Error state, as a link fault, retry
// exhaustion or a peer teardown would on real hardware. Subsequent posts
// fail with ErrBadState until the owner destroys the QP and establishes a
// replacement; the connection manager treats that as a link fault and
// re-runs the handshake.
func (q *QP) ToError() {
	q.hca.mu.Lock()
	defer q.hca.mu.Unlock()
	st := q.State()
	if st == StateError || st == StateDestroyed {
		return
	}
	if q.typ == RC && st == StateRTS {
		atomic.AddInt64(&q.hca.stats.LiveRC, -1)
	}
	q.set(StateError)
	q.obs.Emit(q.clk.Now(), obs.LayerIB, "qp-error", -1, 0)
}

// Destroy tears the QP down and releases its adapter resources.
func (q *QP) Destroy() {
	q.hca.mu.Lock()
	defer q.hca.mu.Unlock()
	st := q.State()
	if st == StateDestroyed {
		return
	}
	if q.typ == RC && st == StateRTS {
		atomic.AddInt64(&q.hca.stats.LiveRC, -1)
	}
	q.set(StateDestroyed)
	q.hca.liveQPs--
	q.hca.stats.QPsDestroyed++
	q.hca.gLiveQPs.Add(q.clk.Now(), -1)
	q.obs.Emit(q.clk.Now(), obs.LayerIB, "qp-destroy", -1, 0)
	if int(q.qpn) <= len(q.hca.qps) {
		q.hca.qps[q.qpn-1] = nil
	}
}

// SendWR is a send-side work request.
type SendWR struct {
	// Op selects the operation.
	Op Opcode
	// WRID is echoed in the send completion.
	WRID uint64
	// Dest addresses the target for UD sends; RC uses the connected remote.
	Dest Dest
	// Data is the send payload or RDMA-write source.
	Data []byte
	// Imm is an immediate value delivered with OpSend.
	Imm uint32
	// RemoteAddr and RKey name remote memory for RDMA/atomic operations.
	RemoteAddr uint64
	RKey       uint32
	// Len is the RDMA-read length.
	Len int
	// Add, Compare and Swap are the atomic operands.
	Add     uint64
	Compare uint64
	Swap    uint64
	// NoSendCompletion suppresses the send-side completion (unsignaled WR).
	NoSendCompletion bool
	// Clk, when non-nil, overrides the QP owner's clock for charging this
	// work request. The conduit's connection-manager thread uses it so that
	// protocol processing does not inflate the application thread's time
	// (the paper's Figure 4 runs the handshake on a separate thread).
	Clk *vclock.Clock
}

// PostSend validates and executes a work request. Local faults (bad state,
// MTU) are returned synchronously; remote faults (bad rkey, bounds) are
// reported asynchronously through the send CQ with an error status, matching
// verbs semantics.
func (q *QP) PostSend(wr SendWR) error {
	if q.State() != StateRTS {
		return ErrBadState
	}
	switch q.typ {
	case UD:
		if wr.Op != OpSend {
			return ErrOpUnsupported
		}
		if len(wr.Data) > UDMTU {
			return ErrMTUExceeded
		}
		if wr.Dest.LID == 0 {
			return ErrBadLID
		}
		return q.hca.f.sendUD(q, wr)
	case RC:
		if q.remote.LID == 0 {
			return ErrNotConnected
		}
		return q.hca.f.sendRC(q, wr)
	}
	return ErrOpUnsupported
}
