package gasnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"goshmem/internal/ib"
)

// Control-message kinds carried over the UD transport. The handshake follows
// the paper's Figure 4 plus the standard ready-to-use third leg (as in RDMA
// CM): REQ -> REP -> RTU. REQ and REP carry the opaque upper-layer payload
// (the OpenSHMEM segment triplets) so that both sides can issue RDMA the
// moment the connection is up — the paper's section IV-C.
const (
	msgConnReq uint8 = 1
	msgConnRep uint8 = 2
	msgConnRTU uint8 = 3

	// Failure-detector datagrams (failure.go). They reuse the connMsg frame:
	// a heartbeat carries only the sender's UD endpoint (for the ack).
	msgHeartbeat    uint8 = 4
	msgHeartbeatAck uint8 = 5
	// Kind 6 is retired: it was the in-band abort notice (aborts go by PMI).

	// msgConnRej is the server's admission-control rejection of a connection
	// request: the target adapter's queue-pair budget is exhausted and idle
	// eviction freed nothing. Payload[0] is a fatality flag — 1 means the
	// server proved forward progress impossible (cap reached with no live
	// connection to ever evict), so the client must abort rather than retry.
	msgConnRej uint8 = 7

	// Data-plane session acknowledgement (integrity.go): the receiver's
	// cumulative in-order sequence for the pair ([seq u64] payload), which
	// lets the sender release every retained frame up to and including seq.
	msgDataAck uint8 = 8
	// Kind 9 is retired: it was the data-plane NAK (no frame arrives damaged,
	// and none goes missing without a teardown, after which the reconnect
	// replays).
)

// connMsg is the UD control datagram for connection establishment.
type connMsg struct {
	Kind    uint8
	SrcRank int32
	Seq     uint32 // connection-attempt sequence for duplicate suppression
	RC      ib.Dest
	UD      ib.Dest // sender's UD endpoint, so the target can reply
	Payload []byte  // opaque upper-layer data (segment info); REQ and REP only
}

// connMsgHdr: [kind u8][src u32][seq u32][RC dest 6][UD dest 6]
// [payload len u32]. It carries no checksum: the adapter's ICRC drops a
// damaged datagram, which reaches the receiver as a loss the sender's
// retransmission timer recovers.
const connMsgHdr = 1 + 4 + 4 + 6 + 6 + 4

// errCorruptFrame marks a control frame whose length does not match its
// framing (short, or a payload length field that disagrees). The receiver
// discards it.
var errCorruptFrame = errors.New("gasnet: corrupt control frame")

func (m *connMsg) encode() []byte {
	b := make([]byte, connMsgHdr+len(m.Payload))
	b[0] = m.Kind
	binary.LittleEndian.PutUint32(b[1:], uint32(m.SrcRank))
	binary.LittleEndian.PutUint32(b[5:], m.Seq)
	binary.LittleEndian.PutUint16(b[9:], m.RC.LID)
	binary.LittleEndian.PutUint32(b[11:], m.RC.QPN)
	binary.LittleEndian.PutUint16(b[15:], m.UD.LID)
	binary.LittleEndian.PutUint32(b[17:], m.UD.QPN)
	binary.LittleEndian.PutUint32(b[21:], uint32(len(m.Payload)))
	copy(b[connMsgHdr:], m.Payload)
	return b
}

func decodeConnMsg(b []byte) (connMsg, error) {
	var m connMsg
	if len(b) < connMsgHdr {
		return m, fmt.Errorf("%w: short (%d bytes)", errCorruptFrame, len(b))
	}
	m.Kind = b[0]
	m.SrcRank = int32(binary.LittleEndian.Uint32(b[1:]))
	m.Seq = binary.LittleEndian.Uint32(b[5:])
	m.RC.LID = binary.LittleEndian.Uint16(b[9:])
	m.RC.QPN = binary.LittleEndian.Uint32(b[11:])
	m.UD.LID = binary.LittleEndian.Uint16(b[15:])
	m.UD.QPN = binary.LittleEndian.Uint32(b[17:])
	n := int(binary.LittleEndian.Uint32(b[21:]))
	if n != len(b)-connMsgHdr {
		return m, fmt.Errorf("%w: payload length mismatch: %d vs %d",
			errCorruptFrame, n, len(b)-connMsgHdr)
	}
	m.Payload = b[connMsgHdr:]
	return m, nil
}

// amHdr frames an active message inside an RC send:
// [handler u8][srcRank u32][args 4*u64][payload].
const amHdrLen = 1 + 4 + 32

func encodeAM(handler uint8, srcRank int, args [4]uint64, payload []byte) []byte {
	b := make([]byte, amHdrLen+len(payload))
	b[0] = handler
	binary.LittleEndian.PutUint32(b[1:], uint32(srcRank))
	for i, a := range args {
		binary.LittleEndian.PutUint64(b[5+8*i:], a)
	}
	copy(b[amHdrLen:], payload)
	return b
}

func decodeAM(b []byte) (handler uint8, srcRank int, args [4]uint64, payload []byte, err error) {
	if len(b) < amHdrLen {
		return 0, 0, args, nil, errors.New("gasnet: short active message")
	}
	handler = b[0]
	srcRank = int(int32(binary.LittleEndian.Uint32(b[1:])))
	for i := range args {
		args[i] = binary.LittleEndian.Uint64(b[5+8*i:])
	}
	return handler, srcRank, args, b[amHdrLen:], nil
}

// Endpoint string form used in the PMI key-value store: "<lid>:<qpn>".
func encodeDest(d ib.Dest) string { return fmt.Sprintf("%d:%d", d.LID, d.QPN) }

// decodeDest parses exactly what encodeDest produces. The string comes out of
// the PMI store, i.e. from outside this process, so anything else — trailing
// bytes, a missing half, a sign, a value past the field's width — is an
// error rather than a silently wrapped or truncated endpoint.
func decodeDest(s string) (ib.Dest, error) {
	lidStr, qpnStr, ok := strings.Cut(s, ":")
	if !ok {
		return ib.Dest{}, fmt.Errorf("gasnet: bad endpoint %q: want <lid>:<qpn>", s)
	}
	lid, err := strconv.ParseUint(lidStr, 10, 16)
	if err != nil {
		return ib.Dest{}, fmt.Errorf("gasnet: bad endpoint %q: lid: %w", s, err)
	}
	qpn, err := strconv.ParseUint(qpnStr, 10, 32)
	if err != nil {
		return ib.Dest{}, fmt.Errorf("gasnet: bad endpoint %q: qpn: %w", s, err)
	}
	return ib.Dest{LID: uint16(lid), QPN: uint32(qpn)}, nil
}
