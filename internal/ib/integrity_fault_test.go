package ib

import (
	"bytes"
	"errors"
	"testing"
)

// TestTornWriteLeavesDeterministicPrefix checks the torn-write contract: the
// injected link fault lands a strict non-empty whole-packet prefix of the
// payload at the target, the sender sees ErrTornWrite (a link fault), both
// queue pairs die, and no completion is generated. The same seed must tear at
// the same packet; a single-packet write must never tear.
func TestTornWriteLeavesDeterministicPrefix(t *testing.T) {
	run := func(seed int64) int {
		fi := NewFaultInjector(seed)
		fi.TornWriteProb = 1.0
		fi.MaxTornWrites = 1
		r := newRig(t, fi)
		q1, q2 := r.connectRC(t)
		heap := make([]byte, 4*RCMTU)
		mr := r.h2.RegisterMR(heap, r.c2)
		payload := bytes.Repeat([]byte{0xAB}, 3*RCMTU)

		err := q1.PostSend(SendWR{Op: OpRDMAWrite, RemoteAddr: mr.Base() + 16,
			RKey: mr.RKey(), Data: payload, WRID: 4})
		if !errors.Is(err, ErrTornWrite) {
			t.Fatalf("torn write error = %v, want ErrTornWrite", err)
		}
		if !errors.Is(err, ErrLinkDown) {
			t.Fatal("ErrTornWrite must be classified as a link fault")
		}
		if q1.State() != StateError || q2.State() != StateError {
			t.Fatalf("states after tear = %v/%v, want Error/Error", q1.State(), q2.State())
		}
		if n := r.cq1.Len(); n != 0 {
			t.Fatalf("completions after synchronous tear = %d, want 0", n)
		}
		if fi.Injected().TornWrites != 1 {
			t.Fatalf("torn writes = %d, want 1", fi.Injected().TornWrites)
		}
		// A strict non-empty whole-packet prefix landed clean; everything
		// past it is untouched.
		torn := 0
		for torn < len(payload) && heap[16+torn] == 0xAB {
			torn++
		}
		if torn == 0 || torn >= len(payload) {
			t.Fatalf("torn prefix = %d bytes, want 0 < n < %d", torn, len(payload))
		}
		if torn%RCMTU != 0 {
			t.Fatalf("torn prefix = %d bytes, want a whole-packet multiple of %d", torn, RCMTU)
		}
		for i := 16 + torn; i < len(heap); i++ {
			if heap[i] != 0 {
				t.Fatalf("byte %d written beyond the torn prefix", i)
			}
		}
		return torn
	}
	if a, b := run(21), run(21); a != b {
		t.Fatalf("same seed tore at different packets: %d vs %d", a, b)
	}

	// A packet is the link's all-or-nothing unit: a single-packet write must
	// land whole even with tearing forced on.
	fi := NewFaultInjector(21)
	fi.TornWriteProb = 1.0
	r := newRig(t, fi)
	q1, _ := r.connectRC(t)
	heap := make([]byte, 64)
	mr := r.h2.RegisterMR(heap, r.c2)
	flag := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := q1.PostSend(SendWR{Op: OpRDMAWrite, RemoteAddr: mr.Base(),
		RKey: mr.RKey(), Data: flag, NoSendCompletion: true}); err != nil {
		t.Fatalf("single-packet write must not tear: %v", err)
	}
	if !bytes.Equal(heap[:8], flag) {
		t.Fatalf("single-packet write landed %v, want %v", heap[:8], flag)
	}
	if fi.Injected().TornWrites != 0 {
		t.Fatalf("single-packet write counted a tear: %d", fi.Injected().TornWrites)
	}
}

// TestRCSendCorruptionIsSilentSingleBitFlip checks the two-sided corruption
// contract: the delivered copy differs from the posted payload in exactly one
// bit, the sender's buffer stays pristine (retained for software replay), and
// the fabric reports success — detection belongs to the conduit's trailer.
func TestRCSendCorruptionIsSilentSingleBitFlip(t *testing.T) {
	fi := NewFaultInjector(5)
	fi.RCCorruptProb = 1.0
	fi.MaxRCCorrupts = 1
	r := newRig(t, fi)
	q1, _ := r.connectRC(t)
	payload := []byte("integrity-trailer-protected")
	orig := append([]byte(nil), payload...)

	if err := q1.PostSend(SendWR{Op: OpSend, Data: payload, NoSendCompletion: true}); err != nil {
		t.Fatalf("corrupted send must not error at the fabric layer: %v", err)
	}
	c, ok := r.cq2.Wait()
	if !ok {
		t.Fatal("cq closed")
	}
	if !bytes.Equal(payload, orig) {
		t.Fatal("sender's buffer was damaged; replay would resend garbage")
	}
	flipped := 0
	for i := range c.Data {
		b := c.Data[i] ^ orig[i]
		for ; b != 0; b &= b - 1 {
			flipped++
		}
	}
	if flipped != 1 {
		t.Fatalf("delivered copy differs in %d bits, want exactly 1", flipped)
	}
	if fi.Injected().RCCorrupts != 1 {
		t.Fatalf("rc corrupts = %d, want 1", fi.Injected().RCCorrupts)
	}

	// Budget exhausted: the next send is clean.
	if err := q1.PostSend(SendWR{Op: OpSend, Data: orig, NoSendCompletion: true}); err != nil {
		t.Fatal(err)
	}
	if c, ok := r.cq2.Wait(); !ok || !bytes.Equal(c.Data, orig) {
		t.Fatalf("post-budget send damaged: %q", c.Data)
	}
}

// TestRDMAWriteCorruptionDropsPacketBeforeDMA checks one-sided write
// corruption: the damaged packet fails the receiving adapter's ICRC check and
// is dropped before DMA, so no garbage ever reaches target memory — at most a
// clean whole-packet prefix lands. The failure then surfaces as ErrRCCorrupt
// and both queue pairs die; recovery is replay-after-reconnect.
func TestRDMAWriteCorruptionDropsPacketBeforeDMA(t *testing.T) {
	// Single-packet write: the one packet is the corrupt one, so nothing at
	// all lands — a corrupted flag put can never show a garbage stamp to a
	// polling waiter.
	fi := NewFaultInjector(13)
	fi.RCCorruptProb = 1.0
	fi.MaxRCCorrupts = 1
	r := newRig(t, fi)
	q1, q2 := r.connectRC(t)
	heap := make([]byte, 128)
	mr := r.h2.RegisterMR(heap, r.c2)
	payload := bytes.Repeat([]byte{0x55}, 32)

	err := q1.PostSend(SendWR{Op: OpRDMAWrite, RemoteAddr: mr.Base(), RKey: mr.RKey(), Data: payload})
	if !errors.Is(err, ErrRCCorrupt) {
		t.Fatalf("corrupted RDMA write: %v, want ErrRCCorrupt", err)
	}
	if !errors.Is(err, ErrLinkDown) {
		t.Fatal("ErrRCCorrupt must be classified as a link fault")
	}
	if q1.State() != StateError || q2.State() != StateError {
		t.Fatalf("states = %v/%v, want Error/Error", q1.State(), q2.State())
	}
	if !bytes.Equal(heap, make([]byte, 128)) {
		t.Fatal("dropped corrupt packet still modified target memory")
	}
	if !bytes.Equal(payload, bytes.Repeat([]byte{0x55}, 32)) {
		t.Fatal("sender's buffer was damaged")
	}

	// Multi-packet write: whatever lands is a clean whole-packet prefix of
	// the payload, never damaged bytes.
	fi2 := NewFaultInjector(99)
	fi2.RCCorruptProb = 1.0
	fi2.MaxRCCorrupts = 1
	r2 := newRig(t, fi2)
	p1, _ := r2.connectRC(t)
	big := make([]byte, 4*RCMTU)
	bigMR := r2.h2.RegisterMR(big, r2.c2)
	bigPayload := bytes.Repeat([]byte{0xA7}, 3*RCMTU)

	err = p1.PostSend(SendWR{Op: OpRDMAWrite, RemoteAddr: bigMR.Base(), RKey: bigMR.RKey(), Data: bigPayload})
	if !errors.Is(err, ErrRCCorrupt) {
		t.Fatalf("corrupted multi-packet write: %v, want ErrRCCorrupt", err)
	}
	landed := 0
	for landed < len(bigPayload) && big[landed] == 0xA7 {
		landed++
	}
	if landed%RCMTU != 0 {
		t.Fatalf("landed prefix = %d bytes, want a whole-packet multiple of %d", landed, RCMTU)
	}
	for i := landed; i < len(big); i++ {
		if big[i] != 0 {
			t.Fatalf("byte %d modified past the clean prefix", i)
		}
	}
}

// TestRDMAReadCorruptionDeliversNothing checks read-response corruption: the
// caller gets ErrRCCorrupt, the link dies, and no data is returned — reads
// have no remote side effect, so replay after reconnect is always safe.
func TestRDMAReadCorruptionDeliversNothing(t *testing.T) {
	fi := NewFaultInjector(17)
	fi.RCCorruptProb = 1.0
	fi.MaxRCCorrupts = 1
	r := newRig(t, fi)
	q1, q2 := r.connectRC(t)
	heap := bytes.Repeat([]byte{0xEE}, 64)
	mr := r.h2.RegisterMR(heap, r.c2)

	err := q1.PostSend(SendWR{Op: OpRDMARead, RemoteAddr: mr.Base(), RKey: mr.RKey(), Len: 32, WRID: 1})
	if !errors.Is(err, ErrRCCorrupt) {
		t.Fatalf("corrupted read: %v, want ErrRCCorrupt", err)
	}
	if q1.State() != StateError || q2.State() != StateError {
		t.Fatalf("states = %v/%v, want Error/Error", q1.State(), q2.State())
	}
	if n := r.cq1.Len(); n != 0 {
		t.Fatalf("completions after failed read = %d, want 0", n)
	}
	if !bytes.Equal(heap, bytes.Repeat([]byte{0xEE}, 64)) {
		t.Fatal("read corruption modified target memory")
	}
}
