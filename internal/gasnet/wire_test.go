package gasnet

import (
	"errors"
	"testing"

	"goshmem/internal/ib"
)

func TestConnMsgTruncationIsCorruptFrame(t *testing.T) {
	frame := (&connMsg{Kind: msgConnReq, SrcRank: 1}).encode()
	for _, n := range []int{0, 1, connMsgHdr - 1} {
		if _, err := decodeConnMsg(frame[:n]); !errors.Is(err, errCorruptFrame) {
			t.Fatalf("truncated to %d bytes: err = %v, want errCorruptFrame", n, err)
		}
	}
}

// TestConnMsgCodecAllocs pins the control frame's allocations: the decode
// allocates nothing, the encode only its frame.
func TestConnMsgCodecAllocs(t *testing.T) {
	m := connMsg{Kind: msgConnReq, SrcRank: 3, Seq: 41, UD: ib.Dest{LID: 2, QPN: 55}, Payload: make([]byte, 20)}
	frame := m.encode()
	for _, tc := range []struct {
		name string
		fn   func()
		want float64
	}{
		{"decodeConnMsg", func() { decodeConnMsg(frame) }, 0},
		{"encode", func() { m.encode() }, 1},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != tc.want {
			t.Errorf("%s allocates %.0f times, want %.0f", tc.name, got, tc.want)
		}
	}
}
