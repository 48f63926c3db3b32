package gasnet

import (
	"sync"
	"testing"

	"goshmem/internal/ib"
)

// dropFirstKind returns a UDFilter that drops the first n control datagrams
// of the given kind and delivers everything else untouched.
func dropFirstKind(kind uint8, n int) func([]byte) ib.UDVerdict {
	var mu sync.Mutex
	return func(payload []byte) ib.UDVerdict {
		m, err := decodeConnMsg(payload)
		if err != nil || m.Kind != kind {
			return ib.VerdictDeliver
		}
		mu.Lock()
		defer mu.Unlock()
		if n > 0 {
			n--
			return ib.VerdictDrop
		}
		return ib.VerdictDeliver
	}
}

// TestRepLostServerRetransmits loses the server's first REP: the server must
// retransmit it from the connAccepted state (not wait for a fresh REQ), and
// the handshake must still deliver the payload exactly once per side.
func TestRepLostServerRetransmits(t *testing.T) {
	fi := ib.NewFaultInjector(1)
	// Lose the first REP, and suppress the client's REQ retransmissions so
	// the only possible recovery is the server's own timer resending REP from
	// connAccepted — the leg under test.
	var mu sync.Mutex
	reqs, repDropped := 0, false
	fi.UDFilter = func(payload []byte) ib.UDVerdict {
		m, err := decodeConnMsg(payload)
		if err != nil {
			return ib.VerdictDeliver
		}
		mu.Lock()
		defer mu.Unlock()
		switch m.Kind {
		case msgConnReq:
			reqs++
			if reqs > 1 {
				return ib.VerdictDrop
			}
		case msgConnRep:
			if !repDropped {
				repDropped = true
				return ib.VerdictDrop
			}
		}
		return ib.VerdictDeliver
	}
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand, faults: fi, payloads: true})
	done := make(chan struct{})
	pes[1].C.RegisterHandler(5, func(src int, a [4]uint64, p []byte, at int64) { close(done) })
	if err := pes[0].C.AMRequest(1, 5, [4]uint64{}, nil); err != nil {
		t.Fatal(err)
	}
	drainAll(pes)
	<-done
	// The retransmission came from the server side (rank 1, in connAccepted).
	if pes[1].C.Stats().Retransmits == 0 {
		t.Fatal("server never retransmitted the lost REP")
	}
	if !pes[1].C.Connected(0) {
		t.Fatal("server side of the handshake never completed")
	}
	for _, p := range pes {
		peer := 1 - p.C.Rank()
		p.mu.Lock()
		if p.payCount[peer] != 1 {
			t.Fatalf("rank %d consumed payload %d times", p.C.Rank(), p.payCount[peer])
		}
		p.mu.Unlock()
	}
}

// TestRTULostWhileTrafficFlows loses the client's RTU. The client considers
// the connection ready and streams traffic over it (its RC QP pair is fully
// up), while the server sits in connAccepted retransmitting REP until the
// client's duplicate-reply re-ack closes the handshake. No message may be
// lost or duplicated meanwhile.
func TestRTULostWhileTrafficFlows(t *testing.T) {
	fi := ib.NewFaultInjector(2)
	fi.UDFilter = dropFirstKind(msgConnRTU, 1)
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand, faults: fi, payloads: true})
	const msgs = 16
	var mu sync.Mutex
	got := make(map[uint64]int)
	pes[1].C.RegisterHandler(5, func(src int, a [4]uint64, p []byte, at int64) {
		mu.Lock()
		got[a[0]]++
		mu.Unlock()
	})
	for i := 0; i < msgs; i++ {
		if err := pes[0].C.AMRequest(1, 5, [4]uint64{uint64(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The server's REP retransmission path, answered by the client's
	// duplicate-reply re-ack, must complete the server side too.
	drainAll(pes)
	if !pes[1].C.Connected(0) {
		t.Fatal("server side of the handshake never completed")
	}
	waitUntil(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == msgs
	})
	mu.Lock()
	for i := uint64(0); i < msgs; i++ {
		if got[i] != 1 {
			t.Fatalf("message %d delivered %d times", i, got[i])
		}
	}
	mu.Unlock()
	if pes[1].C.Stats().Retransmits == 0 {
		t.Fatal("server never retransmitted REP after the lost RTU")
	}
}

// TestCollisionUnderDrops runs the simultaneous-connect collision with a
// random drop/duplicate schedule layered on top: DESIGN.md section 6 requires
// exactly one surviving connection per pair and exactly-once payload
// consumption under any such schedule.
func TestCollisionUnderDrops(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		fi := ib.NewFaultInjector(int64(100 + trial))
		fi.DropProb = 0.3
		fi.DupProb = 0.2
		fi.MaxDrops = 20
		pes, run := startJob(t, jobOpts{n: 2, mode: OnDemand, faults: fi, payloads: true})
		var mu sync.Mutex
		recv := make(map[int]int)
		for _, p := range pes {
			rank := p.C.Rank()
			p.C.RegisterHandler(4, func(src int, a [4]uint64, pay []byte, at int64) {
				mu.Lock()
				recv[rank]++
				mu.Unlock()
			})
		}
		run(func(p *pe) {
			peer := 1 - p.C.Rank()
			if err := p.C.AMRequest(peer, 4, [4]uint64{}, nil); err != nil {
				t.Errorf("AM: %v", err)
			}
			p.C.drain()
		})
		waitUntil(t, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return recv[0] >= 1 && recv[1] >= 1
		})
		for _, p := range pes {
			peer := 1 - p.C.Rank()
			if p.C.NumConnected() != 1 {
				t.Fatalf("trial %d: rank %d has %d conns, want 1", trial, p.C.Rank(), p.C.NumConnected())
			}
			p.mu.Lock()
			if p.payCount[peer] != 1 {
				t.Fatalf("trial %d: rank %d consumed payload %d times", trial, p.C.Rank(), p.payCount[peer])
			}
			p.mu.Unlock()
		}
		mu.Lock()
		if recv[0] != 1 || recv[1] != 1 {
			t.Fatalf("trial %d: deliveries %v, want exactly one each", trial, recv)
		}
		mu.Unlock()
		for _, p := range pes {
			p.C.Close()
		}
	}
}

// TestDroppedReqRetransmittedOneTimeoutLater pins the retransmission clock to
// the fabric: the first REQ is lost, the client blocks in EnsureConnected, and
// the one retransmission departs exactly one ConnRetransmitTimeout of virtual
// time after the first transmission — however long the host took to notice.
func TestDroppedReqRetransmittedOneTimeoutLater(t *testing.T) {
	fi := ib.NewFaultInjector(1)
	fi.UDFilter = dropFirstKind(msgConnReq, 1)
	pes, _ := startJob(t, jobOpts{n: 2, ppn: 1, mode: OnDemand, faults: fi, trace: true})
	if err := pes[0].C.EnsureConnected(1); err != nil {
		t.Fatal(err)
	}
	var first, again []int64
	for _, e := range pes[0].plane.Events() {
		if e.Rank != 0 || e.Peer != 1 {
			continue
		}
		switch e.Kind {
		case "conn-initiate":
			first = append(first, e.VT)
		case "conn-retransmit":
			again = append(again, e.VT)
		}
	}
	if len(first) != 1 || len(again) != 1 {
		t.Fatalf("want one initiate and one retransmission, got initiates %v retransmissions %v", first, again)
	}
	if want := first[0] + pes[0].C.model.ConnRetransmitTimeout; again[0] != want {
		t.Fatalf("REQ first sent at VT %d was retransmitted at VT %d, want %d", first[0], again[0], want)
	}
	if n := pes[0].C.Stats().Retransmits; n != 1 {
		t.Fatalf("Retransmits = %d, want exactly 1", n)
	}
}
