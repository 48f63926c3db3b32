package gasnet

import (
	"encoding/binary"
	"hash/crc32"
)

// Data-plane integrity framing. One checksum helper (frameSum) serves both
// protected channels:
//
//   - UD control frames (wire.go) carry an inline CRC32 over the whole frame
//     with the CRC field zeroed — see connMsgSum below.
//   - RC payload frames carry a trailing integrity trailer
//     [seq u64][epoch u32][crc u32] appended to the encoded active message.
//     The CRC covers the inner frame plus the seq/epoch words, so a flip
//     anywhere — payload, sequence, or epoch — is caught before any byte of
//     the message becomes visible to a handler.
//
// The sequence number is a per-pair monotone transfer counter (starting at
// 1); the epoch is the connection attempt it was first posted under. The
// receiver's dedup ledger (session.rxMax) admits exactly the next sequence,
// re-acknowledges duplicates without re-executing them, and NAKs gaps and
// corrupt frames — that ledger, carried across reconnects in the handshake
// payload, is what makes non-idempotent operations apply exactly once.

// frameSum is the one CRC32 (IEEE) used by every integrity check in the
// conduit. Sections are summed in order, as if concatenated.
func frameSum(sections ...[]byte) uint32 {
	var sum uint32
	for _, s := range sections {
		sum = crc32.Update(sum, crc32.IEEETable, s)
	}
	return sum
}

// connMsgSum computes a UD control frame's checksum with the CRC field
// treated as zero. The zero field is a package variable: a local array would
// escape through frameSum's variadic slice into crc32.Update, costing an
// allocation on every control frame encoded or decoded.
func connMsgSum(b []byte) uint32 {
	return frameSum(b[:connMsgCRCOff], zeroCRC[:], b[connMsgHdr:])
}

var zeroCRC [4]byte

// rcTrailerLen is the size of the RC integrity trailer:
// [seq u64][epoch u32][crc u32].
const rcTrailerLen = 8 + 4 + 4

// appendRCTrailer frames an RC payload: it returns frame plus the integrity
// trailer. The input slice is never modified in place (the append reallocates
// whenever the caller handed over an exact-size buffer, and retained frames
// are treated as immutable once posted).
func appendRCTrailer(frame []byte, seq uint64, epoch uint32) []byte {
	off := len(frame)
	out := make([]byte, off+rcTrailerLen)
	copy(out, frame)
	binary.LittleEndian.PutUint64(out[off:], seq)
	binary.LittleEndian.PutUint32(out[off+8:], epoch)
	binary.LittleEndian.PutUint32(out[off+12:], frameSum(out[:off+12]))
	return out
}

// splitRCTrailer verifies and strips the integrity trailer. ok is false when
// the frame is too short or the checksum does not match — the caller must
// treat the whole frame as garbage (even seq/epoch are untrustworthy).
func splitRCTrailer(frame []byte) (inner []byte, seq uint64, epoch uint32, ok bool) {
	if len(frame) < rcTrailerLen {
		return nil, 0, 0, false
	}
	off := len(frame) - rcTrailerLen
	if binary.LittleEndian.Uint32(frame[off+12:]) != frameSum(frame[:off+12]) {
		return nil, 0, 0, false
	}
	return frame[:off], binary.LittleEndian.Uint64(frame[off:]), binary.LittleEndian.Uint32(frame[off+8:]), true
}

// encodeSeqPayload/decodeSeqPayload carry a cumulative sequence number in the
// payload of a data-plane ACK/NAK control frame.
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
