// Package ib implements an in-memory simulation of an InfiniBand fabric with
// the verbs object model: host channel adapters (HCAs) addressed by LID,
// queue pairs (QPs) with the Reset->Init->RTR->RTS state machine, completion
// queues, and memory regions with remote keys and bounds/permission checks.
//
// Two transports are provided, matching what the paper's runtime uses:
//
//   - RC (Reliable Connected): connection-oriented, reliable, in-order,
//     supports two-sided sends plus one-sided RDMA read/write and fetching
//     atomics. One QP is required per peer per process.
//   - UD (Unreliable Datagram): connectionless; a single QP can send to any
//     peer given its <lid, qpn> address, but messages are MTU-limited and may
//     be dropped or duplicated (fault injection simulates this).
//
// Data movement is real: RDMA writes copy bytes into the target's registered
// buffer and atomics execute atomically against it. Timing is virtual: every
// operation charges the caller's vclock.Clock using the fabric's CostModel
// and every delivered completion carries the virtual time of its arrival.
package ib

import (
	"errors"
	"fmt"
)

// QPType distinguishes the simulated transports.
type QPType uint8

const (
	// UD is the Unreliable Datagram transport.
	UD QPType = iota
	// RC is the Reliable Connected transport.
	RC
)

func (t QPType) String() string {
	switch t {
	case UD:
		return "UD"
	case RC:
		return "RC"
	}
	return fmt.Sprintf("QPType(%d)", uint8(t))
}

// QPState is the verbs queue-pair state machine.
type QPState uint8

const (
	// StateReset is the state of a freshly created QP.
	StateReset QPState = iota
	// StateInit allows posting receive buffers.
	StateInit
	// StateRTR (ready-to-receive) can accept incoming messages.
	StateRTR
	// StateRTS (ready-to-send) is fully operational.
	StateRTS
	// StateError marks a broken QP.
	StateError
	// StateDestroyed marks a destroyed QP.
	StateDestroyed
)

func (s QPState) String() string {
	switch s {
	case StateReset:
		return "RESET"
	case StateInit:
		return "INIT"
	case StateRTR:
		return "RTR"
	case StateRTS:
		return "RTS"
	case StateError:
		return "ERROR"
	case StateDestroyed:
		return "DESTROYED"
	}
	return fmt.Sprintf("QPState(%d)", uint8(s))
}

// Opcode identifies the work-request operation.
type Opcode uint8

const (
	// OpSend is a two-sided send consuming a receive slot at the target.
	OpSend Opcode = iota
	// OpRDMAWrite writes Data into the target memory region.
	OpRDMAWrite
	// OpRDMARead reads Len bytes from the target memory region.
	OpRDMARead
	// OpFetchAdd atomically adds Add to a remote uint64 and fetches the old value.
	OpFetchAdd
	// OpCmpSwap atomically compares a remote uint64 with Compare and, if
	// equal, stores Swap; the old value is fetched either way.
	OpCmpSwap
	// OpSwap atomically stores Swap and fetches the old value.
	OpSwap
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpRDMAWrite:
		return "RDMA_WRITE"
	case OpRDMARead:
		return "RDMA_READ"
	case OpFetchAdd:
		return "FETCH_ADD"
	case OpCmpSwap:
		return "CMP_SWAP"
	case OpSwap:
		return "SWAP"
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// UDMTU is the maximum UD datagram payload in bytes.
const UDMTU = 4096

// RCMTU is the RC path MTU: the link fragments an RC message into packets of
// at most this many bytes, each carrying its own invariant CRC that the
// receiving adapter verifies before DMA. Packet boundaries are where a torn
// write acts — a packet either lands whole and clean or not at all, so a torn
// write exposes a clean whole-packet prefix, never damaged bytes.
const RCMTU = 4096

// Dest addresses a queue pair on the fabric, the simulated equivalent of the
// <lid, qpn> tuple the paper exchanges out-of-band.
type Dest struct {
	LID uint16
	QPN uint32
}

func (d Dest) String() string { return fmt.Sprintf("%d:%d", d.LID, d.QPN) }

// Errors returned by fabric operations.
var (
	ErrBadState      = errors.New("ib: queue pair in wrong state for operation")
	ErrBadLID        = errors.New("ib: no such lid")
	ErrMTUExceeded   = errors.New("ib: UD payload exceeds MTU")
	ErrNotConnected  = errors.New("ib: RC queue pair has no remote")
	ErrLinkDown      = errors.New("ib: RC link fault (queue pair in Error state)")
	ErrUnaligned     = errors.New("ib: atomic address not 8-byte aligned")
	ErrOpUnsupported = errors.New("ib: operation not supported on this transport")

	// Resource-exhaustion errors (finite adapter budgets, see Limits). They
	// are returned by the Try* allocation paths; upper layers run their
	// degradation ladders (eviction, bounce-buffering, queued connects) and
	// abort only when forward progress is provably impossible.
	ErrQPExhausted = errors.New("ib: queue-pair budget exhausted on adapter")
	ErrMRExhausted = errors.New("ib: pinned-memory budget exhausted on adapter")

	// ErrRNR is the receiver-not-ready NAK: the target queue pair's receive
	// queue is full, so the send is refused before any byte moves (real RC
	// returns an RNR NAK and the sender retries after a backoff). Only armed
	// when Limits.RQDepth is set; an unbudgeted receive queue never NAKs.
	ErrRNR = errors.New("ib: receiver not ready (receive queue full)")

	// ErrPathDown marks an RC operation refused because the connection's
	// primary path (rail) is down while both queue pairs are healthy: the
	// port flapped, the rail's switch died, or a partition window severs the
	// pair. Deliberately NOT wrapped in ErrLinkDown — the queue pair is not
	// torn down and no byte moved, so the connection manager's first response
	// is Automatic Path Migration to the loaded alternate path (QP.Migrate),
	// falling back to a reconnect on another rail, and finally to suspension,
	// only when every rail between the pair is dead.
	ErrPathDown = errors.New("ib: primary path (rail) down")
)

// RC payload-fault errors. Both wrap ErrLinkDown: the sender observes them
// exactly like a link fault (both queue pairs in the Error state, reconnect
// required). The ICRC check runs before DMA, so no damaged byte ever reaches
// target memory — but a torn write's packets delivered before the fault have
// already landed, leaving a clean whole-packet prefix the replay must
// overwrite. errors.Is distinguishes the flavor for accounting.
var (
	// ErrRCCorrupt marks an RC work request whose transmission the receiving
	// adapter's ICRC check dropped RetryCnt times in a row: the requester's
	// retries ran out, nothing of it was delivered, and the link tore down.
	ErrRCCorrupt = fmt.Errorf("ib: RC payload corrupted in flight: %w", ErrLinkDown)
	// ErrTornWrite marks an RDMA write interrupted by a link fault between
	// packets: a clean whole-packet prefix of the payload was applied to the
	// target memory region, and the visible state at the target is torn until
	// a clean replay overwrites it.
	ErrTornWrite = fmt.Errorf("ib: torn RDMA write (link fault mid-transfer): %w", ErrLinkDown)
)

// Status is the completion status.
type Status uint8

const (
	// StatusOK indicates success.
	StatusOK Status = iota
	// StatusRemoteAccessErr indicates an rkey/bounds failure at the target.
	StatusRemoteAccessErr
	// StatusFlushed indicates the QP was destroyed with the WR outstanding.
	StatusFlushed
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusRemoteAccessErr:
		return "REMOTE_ACCESS_ERR"
	case StatusFlushed:
		return "FLUSHED"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}
