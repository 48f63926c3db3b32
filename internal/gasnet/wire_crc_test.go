package gasnet

import (
	"errors"
	"testing"

	"goshmem/internal/ib"
)

// Every single-bit flip anywhere in an encoded control frame — header,
// payload, or the CRC field itself — must be caught by decodeConnMsg. This is
// the end-to-end guarantee the checksum exists for: a corrupt REQ/REP must
// never poison the peer's endpoint tables silently.
func TestConnMsgChecksumCatchesBitFlips(t *testing.T) {
	m := connMsg{Kind: msgConnRep, SrcRank: 3, Seq: 41,
		RC: ib.Dest{LID: 9, QPN: 1001}, UD: ib.Dest{LID: 2, QPN: 55},
		Payload: []byte("segment-triplets")}
	frame := m.encode()
	if _, err := decodeConnMsg(frame); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	for bit := 0; bit < len(frame)*8; bit++ {
		b := append([]byte(nil), frame...)
		b[bit/8] ^= 1 << (bit % 8)
		_, err := decodeConnMsg(b)
		if err == nil {
			t.Fatalf("bit flip at %d went undetected", bit)
		}
		if !errors.Is(err, errCorruptFrame) {
			t.Fatalf("bit flip at %d: err = %v, want errCorruptFrame", bit, err)
		}
	}
}

func TestConnMsgChecksumCoversPayloadlessFrames(t *testing.T) {
	// Heartbeats and RTUs carry no payload; the CRC must still protect them.
	m := connMsg{Kind: msgHeartbeat, SrcRank: 7, Seq: 1, UD: ib.Dest{LID: 7, QPN: 70}}
	frame := m.encode()
	if len(frame) != connMsgHdr {
		t.Fatalf("payloadless frame is %d bytes, want %d", len(frame), connMsgHdr)
	}
	if _, err := decodeConnMsg(frame); err != nil {
		t.Fatalf("pristine heartbeat rejected: %v", err)
	}
	frame[0] ^= 0x80
	if _, err := decodeConnMsg(frame); !errors.Is(err, errCorruptFrame) {
		t.Fatalf("corrupted heartbeat: err = %v, want errCorruptFrame", err)
	}
}

func TestConnMsgTruncationIsCorruptFrame(t *testing.T) {
	frame := (&connMsg{Kind: msgConnReq, SrcRank: 1}).encode()
	for _, n := range []int{0, 1, connMsgHdr - 1} {
		if _, err := decodeConnMsg(frame[:n]); !errors.Is(err, errCorruptFrame) {
			t.Fatalf("truncated to %d bytes: err = %v, want errCorruptFrame", n, err)
		}
	}
}

// TestConnMsgChecksumAllocs pins the control frame's allocations: the
// checksum and the decode allocate nothing, the encode only its frame.
func TestConnMsgChecksumAllocs(t *testing.T) {
	m := connMsg{Kind: msgConnReq, SrcRank: 3, Seq: 41, UD: ib.Dest{LID: 2, QPN: 55}, Payload: make([]byte, 20)}
	frame := m.encode()
	for _, tc := range []struct {
		name string
		fn   func()
		want float64
	}{
		{"connMsgSum", func() { connMsgSum(frame) }, 0},
		{"decodeConnMsg", func() { decodeConnMsg(frame) }, 0},
		{"encode", func() { m.encode() }, 1},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != tc.want {
			t.Errorf("%s allocates %.0f times, want %.0f", tc.name, got, tc.want)
		}
	}
}
