package gasnet

import "encoding/binary"

// Data-plane session framing. The fabric is InfiniBand RC, which is reliable:
// the receiving adapter's ICRC check drops a damaged packet and the requester
// retransmits it, so no damaged byte reaches a handler and the frames need no
// checksum. What a connection teardown can do is lose or repeat whole frames,
// so every framed RC send carries a trailing sequence number, [seq u64], after
// its encoded active message: a per-pair monotone transfer counter starting at
// 1. The receiver's dedup ledger (session.rxMax) executes exactly the next
// sequence and re-acknowledges anything else without executing it — that
// ledger, carried across reconnects in the handshake payload, is what makes
// non-idempotent operations apply exactly once.

// rcTrailerLen is the size of the RC session trailer: [seq u64].
const rcTrailerLen = 8

// appendRCTrailer frames an RC payload: it returns frame plus the trailer. The
// input slice is never modified in place (the copy is fresh, and retained
// frames are treated as immutable once posted).
func appendRCTrailer(frame []byte, seq uint64) []byte {
	out := make([]byte, len(frame)+rcTrailerLen)
	copy(out, frame)
	binary.LittleEndian.PutUint64(out[len(frame):], seq)
	return out
}

// splitRCTrailer strips the trailer; ok is false when the frame is too short
// to carry one.
func splitRCTrailer(frame []byte) (inner []byte, seq uint64, ok bool) {
	off := len(frame) - rcTrailerLen
	if off < 0 {
		return nil, 0, false
	}
	return frame[:off], binary.LittleEndian.Uint64(frame[off:]), true
}

// encodeSeqPayload/decodeSeqPayload carry a cumulative sequence number in the
// payload of a data-plane ACK control frame.
func encodeSeqPayload(seq uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, seq)
	return b
}

func decodeSeqPayload(b []byte) (uint64, bool) {
	if len(b) != 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b), true
}
