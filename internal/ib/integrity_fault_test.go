package ib

import (
	"bytes"
	"errors"
	"testing"

	"goshmem/internal/obs"
	"goshmem/internal/vclock"
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

// TestICRCRetransmission is the hardware contract for corrupted RC
// transmissions, on a send, a write and a read: k < RetryCnt consecutive hits
// deliver exactly the posted bytes, complete exactly k retransmissions later
// (each the payload's occupancy, the one-way latency and the ACK's) and leave
// both queue pairs in RTS, each hit an incident absorbed on the spot;
// RetryCnt hits fail the work request with ErrRCCorrupt, put both queue pairs
// in Error and deliver nothing, leaving one incident open for the reconnect.
func TestICRCRetransmission(t *testing.T) {
	const n = 48
	m := vclock.Default()
	cost := m.RCSendLatency + m.RCAckLatency + m.XferTime(n)
	payload := bytes.Repeat([]byte{0x3C}, n)
	type outcome struct {
		err      error
		vt       int64  // the requester's completion
		got      []byte // what the target received, or the read returned
		up       bool   // both queue pairs still RTS
		absorbed int    // rc-corrupt incidents closed on the spot
		open     int    // ... and left open
	}
	run := func(op Opcode, hits int) outcome {
		fi := NewFaultInjector(1)
		fi.RCCorruptProb, fi.MaxRCCorrupts = 1, hits
		if hits == 0 {
			fi.RCCorruptProb = 0
		}
		r := newRig(t, fi)
		plane := obs.NewPlane(2, obs.Config{Incidents: true})
		r.h1.AttachObs(plane.Gauges(), plane.Ledger())
		q1, q2 := r.connectRC(t)
		q1.SetObs(plane.PE(0))
		heap := make([]byte, 2*n)
		copy(heap[n:], payload)
		mr := r.h2.RegisterMR(heap, r.c2)
		wr := SendWR{Op: op, WRID: 9, Data: payload, RemoteAddr: mr.Base(), RKey: mr.RKey()}
		if op == OpRDMARead {
			wr = SendWR{Op: op, WRID: 9, Len: n, RemoteAddr: mr.Base() + n, RKey: mr.RKey()}
		}
		var o outcome
		o.err = q1.PostSend(wr)
		if c, ok := r.cq1.Poll(); ok {
			o.vt, o.got = c.VTime, c.Data
		}
		switch op {
		case OpSend:
			o.got = nil
			if c, ok := r.cq2.Poll(); ok {
				o.got = c.Data
			}
		case OpRDMAWrite:
			o.got = heap[:n]
		}
		o.up = q1.State() == StateRTS && q2.State() == StateRTS
		for _, in := range plane.Ledger().Snapshot() {
			if in.Class == "rc" && in.Kind == "rc-corrupt" {
				if in.State == obs.IncidentOpen {
					o.open++
				} else if in.MTTR() == 0 {
					o.absorbed++
				}
			}
		}
		return o
	}
	for _, op := range []Opcode{OpSend, OpRDMAWrite, OpRDMARead} {
		clean := run(op, 0)
		if clean.err != nil || !bytes.Equal(clean.got, payload) || !clean.up {
			t.Fatalf("%v: clean run %+v", op, clean)
		}
		for k := 1; k < RetryCnt; k++ {
			o := run(op, k)
			if o.err != nil || !bytes.Equal(o.got, payload) || !o.up {
				t.Errorf("%v, %d hits: err %v, bytes %x, queue pairs up %v; want the exact bytes over a live connection", op, k, o.err, o.got, o.up)
			}
			if want := clean.vt + int64(k)*cost; o.vt != want {
				t.Errorf("%v, %d hits: completes at %d, want %d (%d retransmissions of %d ns)", op, k, o.vt, want, k, cost)
			}
			if o.absorbed != k || o.open != 0 {
				t.Errorf("%v, %d hits: %d incidents absorbed, %d open; want %d and 0", op, k, o.absorbed, o.open, k)
			}
		}
		o := run(op, RetryCnt)
		delivered := o.got != nil && !bytes.Equal(o.got, make([]byte, n))
		if !errors.Is(o.err, ErrRCCorrupt) || !errors.Is(o.err, ErrLinkDown) || o.up || delivered || o.vt != 0 {
			t.Errorf("%v, %d hits: err %v, queue pairs up %v, delivered %x, completion at %d; want ErrRCCorrupt, both in Error, nothing",
				op, RetryCnt, o.err, o.up, o.got, o.vt)
		}
		if o.absorbed != RetryCnt-1 || o.open != 1 {
			t.Errorf("%v, %d hits: %d incidents absorbed, %d open; want %d and 1", op, RetryCnt, o.absorbed, o.open, RetryCnt-1)
		}
	}
}

// TestRDMAWriteCorruptionDropsPacketBeforeDMA: the ICRC check runs before
// DMA, so a multi-packet write whose retries run out lands nothing at all —
// no damaged byte and no partial prefix — and the sender's buffer stays
// pristine for the replay after reconnect.
func TestRDMAWriteCorruptionDropsPacketBeforeDMA(t *testing.T) {
	fi := NewFaultInjector(99)
	fi.RCCorruptProb = 1.0
	r := newRig(t, fi)
	q1, q2 := r.connectRC(t)
	big := make([]byte, 4*RCMTU)
	mr := r.h2.RegisterMR(big, r.c2)
	payload := bytes.Repeat([]byte{0xA7}, 3*RCMTU)

	err := q1.PostSend(SendWR{Op: OpRDMAWrite, RemoteAddr: mr.Base(), RKey: mr.RKey(), Data: payload})
	if !errors.Is(err, ErrRCCorrupt) {
		t.Fatalf("corrupted multi-packet write: %v, want ErrRCCorrupt", err)
	}
	if q1.State() != StateError || q2.State() != StateError {
		t.Fatalf("states = %v/%v, want Error/Error", q1.State(), q2.State())
	}
	if !bytes.Equal(big, make([]byte, 4*RCMTU)) {
		t.Fatal("a write whose retries ran out modified target memory")
	}
	if !bytes.Equal(payload, bytes.Repeat([]byte{0xA7}, 3*RCMTU)) {
		t.Fatal("sender's buffer was damaged")
	}
}

// TestRDMAReadCorruptionDeliversNothing: a read whose retries run out returns
// no completion and no data, leaves target memory untouched, and the re-issue
// over a fresh connection reads the exact bytes.
func TestRDMAReadCorruptionDeliversNothing(t *testing.T) {
	fi := NewFaultInjector(17)
	fi.RCCorruptProb, fi.MaxRCCorrupts = 1.0, RetryCnt
	r := newRig(t, fi)
	q1, q2 := r.connectRC(t)
	heap := bytes.Repeat([]byte{0xEE}, 64)
	mr := r.h2.RegisterMR(heap, r.c2)
	read := SendWR{Op: OpRDMARead, RemoteAddr: mr.Base(), RKey: mr.RKey(), Len: 32, WRID: 1}

	err := q1.PostSend(read)
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
	p1, _ := r.connectRC(t)
	if err := p1.PostSend(read); err != nil {
		t.Fatalf("re-issued read: %v", err)
	}
	if c, ok := r.cq1.Poll(); !ok || !bytes.Equal(c.Data, heap[:32]) {
		t.Fatalf("re-issued read returned %x", c.Data)
	}
}
