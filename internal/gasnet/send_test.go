package gasnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"goshmem/internal/ib"
	"goshmem/internal/vclock"
)

// TestQueuedOpFailsTheWayADirectOneDoes: an atomic on a misaligned address is
// refused by the adapter when it is posted. Posted directly on a ready
// connection, the issuer gets ib.ErrUnaligned back; as the first operation to
// a peer it is queued behind the handshake, and the flush that posts it must
// hand its issuer the same error — not drop the request and leave the issuer
// blocked forever, which would make the same program fail in static mode and
// hang in on-demand mode.
func TestQueuedOpFailsTheWayADirectOneDoes(t *testing.T) {
	ops := map[string]func(c *Conduit, mr *ib.MR) (uint64, error){
		"fetch-add": func(c *Conduit, mr *ib.MR) (uint64, error) { return c.FetchAdd(1, mr.Base()+4, mr.RKey(), 1) },
		"cswap":     func(c *Conduit, mr *ib.MR) (uint64, error) { return c.CompareSwap(1, mr.Base()+4, mr.RKey(), 0, 1) },
	}
	for name, op := range ops {
		for _, preconnect := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/preconnect=%v", name, preconnect), func(t *testing.T) {
				pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand})
				mr := pes[1].HCA.RegisterMR(make([]byte, 64), pes[1].Clk)
				if preconnect {
					if err := pes[0].C.EnsureConnected(1); err != nil {
						t.Fatal(err)
					}
				}
				done := make(chan error, 1)
				go func() {
					_, err := op(pes[0].C, mr)
					done <- err
				}()
				select {
				case err := <-done:
					if !errors.Is(err, ib.ErrUnaligned) {
						t.Fatalf("misaligned atomic: %v, want %v", err, ib.ErrUnaligned)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("misaligned atomic never returned: the queued request was dropped, its waiter never completed")
				}
				pes[0].C.Quiet() // nothing is left outstanding behind the failure
				if got := mr.LoadUint64(0) | mr.LoadUint64(8); got != 0 {
					t.Fatalf("a refused atomic touched the target: %#x", got)
				}
			})
		}
	}
	// The other way a request never reaches the wire is its peer dying, and it
	// ends every kind of entry in the completion table — a blocked issuer, a
	// non-blocking get's buffer and hold, a bare hold — the way the refusal
	// above ends an atomic: directly, the call returns ErrPeerDead; queued
	// behind a handshake (held at a peer that is not ready yet), the request is
	// completed with it when the peer is marked dead. Either way nothing is
	// left for Quiet to wait on.
	var buf [8]byte
	kinds := map[string]func(c *Conduit, mr *ib.MR) error{
		"get":       func(c *Conduit, mr *ib.MR) error { return c.Get(1, mr.Base(), mr.RKey(), buf[:]) },
		"get-nbi":   func(c *Conduit, mr *ib.MR) error { return c.GetNBI(1, mr.Base(), mr.RKey(), buf[:]) },
		"fenced-am": func(c *Conduit, mr *ib.MR) error { return c.AMRequestFenced(1, 5, [4]uint64{}, nil) },
	}
	for name, op := range kinds {
		for _, preconnect := range []bool{true, false} {
			t.Run(fmt.Sprintf("peer-dead/%s/preconnect=%v", name, preconnect), func(t *testing.T) {
				pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand})
				c := pes[0].C
				mr := pes[1].HCA.RegisterMR(make([]byte, 64), pes[1].Clk)
				done := make(chan error, 1)
				if preconnect {
					if err := c.EnsureConnected(1); err != nil {
						t.Fatal(err)
					}
					c.markDead(1, false)
					done <- op(c, mr)
				} else {
					pes[1].C.ready.Store(false) // the REQ is held: the request stays queued
					go func() { done <- op(c, mr) }()
					waitUntil(t, func() bool { return c.HealthSnapshot().PendingWRs == 1 })
					c.markDead(1, false)
				}
				select {
				case err := <-done:
					if queuedNB := !preconnect && name != "get"; queuedNB && err != nil || !queuedNB && !errors.Is(err, ErrPeerDead) {
						t.Fatalf("%s to a dead peer: %v", name, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("the request to a dead peer never returned")
				}
				if left := c.HealthSnapshot().Outstanding; left != 0 {
					t.Fatalf("%d Quiet holds left behind the failure", left)
				}
				c.Quiet()
			})
		}
	}
}

// TestFailedQueuedOpReleasesItsQuietHold: a queued put, non-blocking get or
// fenced AM holds Quiet until it completes; one that fails for good when its
// turn to be posted comes is completed to its issuer instead — the hold is
// dropped, as a direct post's error return drops it — so Quiet does not wait
// for a completion that will never come.
func TestFailedQueuedOpReleasesItsQuietHold(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand})
	c := pes[0].C
	boom := errors.New("refused by the adapter")
	buf := []byte("untouched")
	for _, op := range []pendingOp{{hold: true}, {hold: true, buf: buf}} {
		wrid, err := c.begin(1, 0, 8, op)
		if err != nil {
			t.Fatal(err)
		}
		c.complete(wrid, ib.Completion{VTime: c.clk.Now(), Data: []byte("garbage")}, boom)
		c.complete(wrid, ib.Completion{}, nil) // a finished request's WRID names nothing
	}
	if left := c.HealthSnapshot().Outstanding; left != 0 || string(buf) != "untouched" {
		t.Fatalf("%d Quiet holds left behind two failed requests, get buffer %q", left, buf)
	}
	c.Quiet()
}

// sendAcct is what one trip through the send path leaves behind on the
// sender's slot, besides the message.
type sendAcct struct {
	credits  int    // receive credits in flight
	lastUse  uint64 // LRU stamp
	retained int    // frames awaiting acknowledgement
}

func acctOf(c *Conduit, peer int) sendAcct {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	cn := c.conns.get(peer)
	return sendAcct{len(cn.credit.rel), cn.lastUse, cn.sess.retained()}
}

// TestSendPathParity sends the same active message the three ways a work
// request reaches the wire — posted directly on a ready connection, queued
// behind the handshake and flushed, replayed from the retained window — on a
// lossy fabric with finite receive queues, and checks each trip leaves the
// same accounting on the sender's slot: one receive credit taken, one LRU
// stamp, and the frame retained once (a replay retains nothing new). The
// three used to be three loops that disagreed: replay took no credit, flush
// stamped no use. A connection that dies under a direct post and under a
// replay is counted as one link fault either way, and the message still
// executes exactly once. (Data-fault accounting — torn writes — for direct
// versus flushed is TestQuietBlocksOnTornWrite's.)
func TestSendPathParity(t *testing.T) {
	newJob := func(t *testing.T) ([]*pe, chan uint64) {
		fi := ib.NewFaultInjector(3)
		fi.UDFilter = dropFirstKind(msgDataAck, 1<<30) // frames stay retained: there is something to replay
		pes, _ := startJob(t, jobOpts{n: 2, ppn: 1, mode: OnDemand, faults: fi, limits: ib.Limits{RQDepth: 8}})
		got := make(chan uint64, 8)
		pes[1].C.RegisterHandler(5, func(src int, a [4]uint64, p []byte, at int64) { got <- a[0] })
		return pes, got
	}
	send := func(t *testing.T, p *pe, id uint64) {
		if err := p.C.AMRequest(1, 5, [4]uint64{id}, []byte("body")); err != nil {
			t.Fatal(err)
		}
	}
	replay := func(p *pe) { // as a NAK would, right behind the frame's own post
		p.C.connMu.Lock()
		cn := p.C.conns.get(1)
		p.C.replayLocked(cn, 1, vclock.NewClock(cn.sess.lastData))
		p.C.connMu.Unlock()
	}
	delta := func(a, b sendAcct) sendAcct {
		return sendAcct{b.credits - a.credits, b.lastUse - a.lastUse, b.retained - a.retained}
	}

	t.Run("accounting", func(t *testing.T) {
		pes, got := newJob(t)
		send(t, pes[0], 1) // queued behind the handshake, flushed
		<-got
		flushed := acctOf(pes[0].C, 1)

		pes, got = newJob(t)
		if err := pes[0].C.EnsureConnected(1); err != nil {
			t.Fatal(err)
		}
		before := acctOf(pes[0].C, 1)
		send(t, pes[0], 1) // direct
		<-got
		after := acctOf(pes[0].C, 1)
		replay(pes[0])
		direct, replayed := delta(before, after), delta(after, acctOf(pes[0].C, 1))

		want := sendAcct{credits: 1, lastUse: 1, retained: 1}
		if flushed != want {
			t.Errorf("flushed: %+v, want %+v", flushed, want)
		}
		if direct != want {
			t.Errorf("direct: %+v, want %+v", direct, want)
		}
		want.retained = 0 // a replayed frame is retained already
		if replayed != want {
			t.Errorf("replayed: %+v, want %+v", replayed, want)
		}
		waitUntil(t, func() bool { return pes[1].C.Stats().DupOpsSuppressed == 1 })
	})

	// The peer destroys its half of the connection; the next trip onto the
	// wire finds out.
	killPeerHalf := func(t *testing.T, pes []*pe) {
		waitUntil(t, func() bool { return pes[1].C.Connected(0) })
		pes[1].C.connMu.Lock()
		pes[1].C.evictLocked(pes[1].C.conns.get(0), 0, pes[1].Clk.Now(), "conn-evict")
		pes[1].C.connMu.Unlock()
	}
	for _, tc := range []struct {
		name string
		trip func(*testing.T, []*pe)
	}{
		{"direct", func(t *testing.T, pes []*pe) { send(t, pes[0], 2) }},
		{"replayed", func(t *testing.T, pes []*pe) {
			replay(pes[0])
			send(t, pes[0], 2) // queued behind the handshake the replay's fault restarted
		}},
	} {
		t.Run("link fault/"+tc.name, func(t *testing.T) {
			pes, got := newJob(t)
			send(t, pes[0], 1)
			if id := <-got; id != 1 {
				t.Fatalf("first message carries id %d", id)
			}
			killPeerHalf(t, pes)
			tc.trip(t, pes)
			if id := <-got; id != 2 {
				t.Fatalf("message after the fault carries id %d: message 1 executed twice", id)
			}
			if st := pes[0].C.Stats(); st.LinkFaults != 1 || st.Reconnects != 1 {
				t.Fatalf("link faults %d, reconnects %d, want 1 and 1", st.LinkFaults, st.Reconnects)
			}
		})
	}
}
