package gasnet

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"goshmem/internal/ib"
)

// TestQuietBlocksOnTornWrite is the ordering guarantee for one-sided traffic:
// a put whose RDMA write is torn mid-transfer (a prefix lands, then the link
// dies) must not let Quiet complete until the reconnect has replayed the full
// payload over the torn prefix. After Quiet, the target holds the complete
// put — never the tear. The tear is injected on both ways a put reaches the
// wire: a direct post on a ready connection, and — the first put to every
// peer in on-demand mode — the flush of a put queued behind its handshake.
// Either way the conduit must count exactly the tear the injector made.
func TestQuietBlocksOnTornWrite(t *testing.T) {
	for _, preconnect := range []bool{true, false} {
		t.Run(fmt.Sprintf("preconnect=%v", preconnect), func(t *testing.T) {
			fi := ib.NewFaultInjector(31)
			fi.TornWriteProb = 1.0
			fi.MaxTornWrites = 1
			pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand, faults: fi})
			heap := make([]byte, 4*ib.RCMTU)
			mr := pes[1].HCA.RegisterMR(heap, pes[1].Clk)
			var mu sync.Mutex
			var writes []int // lengths, in arrival order
			mr.SetOnWrite(func(off, n int, vtime int64) {
				mu.Lock()
				writes = append(writes, n)
				mu.Unlock()
			})
			if preconnect {
				if err := pes[0].C.EnsureConnected(1); err != nil {
					t.Fatal(err)
				}
			}
			// Tears act at packet granularity, so the put must span several packets.
			payload := bytes.Repeat([]byte{0xC3}, 3*ib.RCMTU)
			if err := pes[0].C.Put(1, mr.Base()+64, mr.RKey(), payload); err != nil {
				t.Fatal(err)
			}
			pes[0].C.Quiet()

			if !bytes.Equal(heap[64:64+len(payload)], payload) {
				t.Fatal("torn prefix still visible after Quiet — replay did not overwrite it")
			}
			if fi.Injected().TornWrites != 1 {
				t.Fatalf("injected tears = %d, want 1", fi.Injected().TornWrites)
			}
			st := pes[0].C.Stats()
			if st.TornWrites != 1 {
				t.Fatalf("conduit TornWrites = %d, want 1 (the injected tear)", st.TornWrites)
			}
			if st.LinkFaults < 1 || st.Reconnects < 1 {
				t.Fatalf("tear must drive a reconnect: faults=%d reconnects=%d", st.LinkFaults, st.Reconnects)
			}
			// The write log shows the tear (a strict prefix) before the clean replay.
			mu.Lock()
			defer mu.Unlock()
			if len(writes) < 2 {
				t.Fatalf("write log = %v, want torn prefix then replay", writes)
			}
			if writes[0] <= 0 || writes[0] >= len(payload) || writes[0]%ib.RCMTU != 0 {
				t.Fatalf("first landing = %d bytes, want a strict whole-packet prefix of %d", writes[0], len(payload))
			}
			if writes[len(writes)-1] != len(payload) {
				t.Fatalf("final landing = %d bytes, want the full %d", writes[len(writes)-1], len(payload))
			}
		})
	}
}

// TestAtomicExactlyOnceAcrossReconnect forces both recovery paths under a
// stream of non-idempotent FetchAdds: the first RC post hits a link flap
// (teardown, reconnect, replay over a fresh connection), and every data ACK
// for a while is dropped, so the RTO must retransmit already-applied requests
// and the target's dedup ledger must suppress them. The final counter value
// equals the op count exactly — even after the retransmission storm settles —
// and every returned old value is distinct and in order: each add applied
// exactly once.
func TestAtomicExactlyOnceAcrossReconnect(t *testing.T) {
	const ops = 32
	fi := ib.NewFaultInjector(23)
	fi.FlapProb = 1.0
	fi.MaxFlaps = 1
	// ACKs are cumulative, so a single lost ACK heals silently under the next
	// one; dropping a long run forces the RTO to resend applied-but-unacked
	// requests, which the receiver must dedup.
	fi.UDFilter = dropFirstKind(msgDataAck, 100)
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand, faults: fi})
	heap := make([]byte, 64)
	mr := pes[1].HCA.RegisterMR(heap, pes[1].Clk)

	for i := 0; i < ops; i++ {
		old, err := pes[0].C.FetchAdd(1, mr.Base(), mr.RKey(), 1)
		if err != nil {
			t.Fatalf("fetchadd %d: %v", i, err)
		}
		if old != uint64(i) {
			t.Fatalf("fetchadd %d returned old=%d: an add was lost or duplicated", i, old)
		}
	}
	if got := mr.LoadUint64(0); got != ops {
		t.Fatalf("final value = %d, want exactly %d", got, ops)
	}
	if fi.Injected().Flaps != 1 {
		t.Fatalf("injected flaps = %d, want 1", fi.Injected().Flaps)
	}
	if st := pes[0].C.Stats(); st.LinkFaults < 1 || st.Reconnects < 1 {
		t.Fatalf("flap must drive a reconnect: faults=%d reconnects=%d", st.LinkFaults, st.Reconnects)
	}
	// Block on the un-ACKed tail: the timeout fires, the tail is replayed and a
	// duplicate suppressed (either direction: requests at the server, replies
	// at the client — whichever ACKs were the casualty).
	drainAll(pes)
	waitUntil(t, func() bool {
		c, s := pes[0].C.Stats(), pes[1].C.Stats()
		return c.IntegrityRetransmits+s.IntegrityRetransmits >= 1 &&
			c.DupOpsSuppressed+s.DupOpsSuppressed >= 1
	})
	// The retransmitted non-idempotent ops were suppressed, not re-applied.
	if got := mr.LoadUint64(0); got != ops {
		t.Fatalf("value after retransmissions = %d, want still %d", got, ops)
	}
}

// TestRCFrameCorruptionRecovered streams AMs and a put through a fabric that
// corrupts RC transmissions: the first work request loses all RetryCnt of its
// transmissions (the connection dies and is rebuilt), later ones are absorbed
// by the adapter's retransmissions. No damaged byte may reach a handler or
// registered memory, and every message reaches its handler exactly once and
// in order.
func TestRCFrameCorruptionRecovered(t *testing.T) {
	const msgs = 64
	fi := ib.NewFaultInjector(41)
	fi.RCCorruptProb = 1
	fi.MaxRCCorrupts = ib.RetryCnt + 5
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand, faults: fi})
	var mu sync.Mutex
	var got []uint64
	var damaged []string
	body := []byte("body")
	pes[1].C.RegisterHandler(5, func(src int, a [4]uint64, p []byte, at int64) {
		mu.Lock()
		if src != 0 || a[1] != ^a[0] || !bytes.Equal(p, body) {
			damaged = append(damaged, fmt.Sprintf("src %d args %x payload %q", src, a, p))
		}
		got = append(got, a[0])
		mu.Unlock()
	})
	heap := make([]byte, 4*ib.RCMTU)
	mr := pes[1].HCA.RegisterMR(heap, pes[1].Clk)
	put := bytes.Repeat([]byte{0x5A}, 3*ib.RCMTU)
	mr.SetOnWrite(func(off, n int, vtime int64) {
		mu.Lock()
		if !bytes.Equal(heap[off:off+n], put[:n]) {
			damaged = append(damaged, fmt.Sprintf("%d bytes at %d", n, off))
		}
		mu.Unlock()
	})
	for i := 0; i < msgs; i++ {
		if err := pes[0].C.AMRequest(1, 5, [4]uint64{uint64(i), ^uint64(i)}, body); err != nil {
			t.Fatal(err)
		}
	}
	if err := pes[0].C.Put(1, mr.Base(), mr.RKey(), put); err != nil {
		t.Fatal(err)
	}
	pes[0].C.Quiet()
	waitUntil(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= msgs
	})
	mu.Lock()
	if len(got) != msgs || len(damaged) != 0 {
		t.Fatalf("%d deliveries for %d sends; damaged deliveries %v", len(got), msgs, damaged)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("delivery %d carries id %d: lost, duplicated or reordered", i, v)
		}
	}
	mu.Unlock()
	if !bytes.Equal(heap[:len(put)], put) {
		t.Fatal("the put did not land whole")
	}
	if n := fi.Injected().RCCorrupts; n != ib.RetryCnt+5 {
		t.Fatalf("injector corrupted %d transmissions, want %d", n, ib.RetryCnt+5)
	}
	st := pes[0].C.Stats()
	if st.RCCorruptFrames != 1 || st.LinkFaults < 1 || st.Reconnects < 1 {
		t.Fatalf("sender RCCorruptFrames %d, link faults %d, reconnects %d; want 1 exhausted request and its reconnect",
			st.RCCorruptFrames, st.LinkFaults, st.Reconnects)
	}
}

// TestCloseGivesUpOnADeafPeerAfterBoundedReplays: every acknowledgement from
// the peer is lost, so the sender's one retained frame can never be trimmed.
// Close must not wait on time: it replays the frame on each timeout, and after
// closeQuiet timeouts that drew nothing from the peer it presumes the frame
// executed (it did — the peer suppressed every replay as a duplicate) and
// tears down.
func TestCloseGivesUpOnADeafPeerAfterBoundedReplays(t *testing.T) {
	fi := ib.NewFaultInjector(5)
	fi.UDFilter = dropFirstKind(msgDataAck, 1<<30)
	pes, _ := startJob(t, jobOpts{n: 2, ppn: 1, mode: OnDemand, faults: fi})
	got := make(chan struct{}, 1)
	pes[1].C.RegisterHandler(5, func(src int, a [4]uint64, p []byte, at int64) { got <- struct{}{} })
	if err := pes[0].C.EnsureConnected(1); err != nil {
		t.Fatal(err)
	}
	if err := pes[0].C.AMRequest(1, 5, [4]uint64{}, nil); err != nil {
		t.Fatal(err)
	}
	<-got
	pes[0].C.Close()
	if n := pes[0].C.Stats().IntegrityRetransmits; n != closeQuiet {
		t.Fatalf("Close replayed the retained frame %d times, want exactly %d", n, closeQuiet)
	}
	// The last replay may still be on its way to the peer.
	waitUntil(t, func() bool { return pes[1].C.Stats().DupOpsSuppressed == closeQuiet })
}
