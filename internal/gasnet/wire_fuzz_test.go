package gasnet

import (
	"bytes"
	"testing"

	"goshmem/internal/ib"
)

// Native fuzz targets for every decoder that takes bytes from outside this
// process (the fabric, the PMI store). Each must survive arbitrary input
// without panicking, and on whatever it accepts the matching encoder must
// reproduce the input exactly. The f.Add seeds plus the checked-in corpus
// under testdata/fuzz run as ordinary unit tests under plain `go test`;
// `make fuzz-smoke` mutates from them for ten seconds per target.

func FuzzDecodeConnMsg(f *testing.F) {
	for _, m := range []connMsg{
		{Kind: msgConnReq, SrcRank: 3, Seq: 7, RC: ib.Dest{LID: 2, QPN: 41}, UD: ib.Dest{LID: 2, QPN: 5}, Payload: []byte("seg-of-3")},
		{Kind: msgConnRTU, SrcRank: 1, Seq: 1, UD: ib.Dest{LID: 1, QPN: 1}},
		{Kind: msgConnRej, SrcRank: 0, Seq: 9, Payload: []byte{1}},
		{Kind: msgHeartbeat, SrcRank: 2, UD: ib.Dest{LID: 3, QPN: 9}},
	} {
		f.Add(m.encode())
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeConnMsg(b)
		if err != nil {
			return
		}
		if got := m.encode(); !bytes.Equal(got, b) {
			t.Fatalf("re-encoded frame differs:\n in  %x\n out %x", b, got)
		}
	})
}

func FuzzDecodeAM(f *testing.F) {
	f.Add(encodeAM(7, 3, [4]uint64{1, 2, 3, 4}, []byte("payload")))
	f.Add(encodeAM(amAtomicRep, 0, [4]uint64{}, nil))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		h, src, args, payload, err := decodeAM(b)
		if err != nil {
			return
		}
		if got := encodeAM(h, src, args, payload); !bytes.Equal(got, b) {
			t.Fatalf("re-encoded AM differs:\n in  %x\n out %x", b, got)
		}
	})
}

func FuzzSplitRCTrailer(f *testing.F) {
	f.Add(appendRCTrailer([]byte("inner frame"), 12))
	f.Add(appendRCTrailer(nil, 1))
	f.Add(make([]byte, rcTrailerLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		inner, seq, ok := splitRCTrailer(b)
		if !ok {
			return
		}
		if got := appendRCTrailer(inner, seq); !bytes.Equal(got, b) {
			t.Fatalf("re-framed payload differs:\n in  %x\n out %x", b, got)
		}
	})
}

func FuzzDecodeSeqPayload(f *testing.F) {
	f.Add(encodeSeqPayload(0))
	f.Add(encodeSeqPayload(1 << 40))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		seq, ok := decodeSeqPayload(b)
		if ok && !bytes.Equal(encodeSeqPayload(seq), b) {
			t.Fatalf("re-encoded sequence differs for %x", b)
		}
	})
}

// FuzzDecodeDest: the accepted language is a little wider than what
// encodeDest writes (leading zeros parse), so the identity is checked the
// other way round: what was decoded survives an encode/decode round trip.
func FuzzDecodeDest(f *testing.F) {
	f.Add(encodeDest(ib.Dest{LID: 65535, QPN: 4294967295}))
	f.Add("1:2")
	f.Add("1:2junk")
	f.Add("70000:1")
	f.Fuzz(func(t *testing.T, s string) {
		d, err := decodeDest(s)
		if err != nil {
			return
		}
		if back, err := decodeDest(encodeDest(d)); err != nil || back != d {
			t.Fatalf("%q decoded to %v, which re-decodes as %v (%v)", s, d, back, err)
		}
	})
}
