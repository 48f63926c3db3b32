package gasnet

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"unsafe"
)

// ---- exhaustive two-endpoint session model ----

// The model: two endpoints, each the sender of its own op stream and the
// receiver of the other's, and one connection between them that can be torn
// and re-established. RC frames arrive intact and in the order they were
// posted (the adapter retransmits a corrupted packet, and a completion queue
// is a FIFO); a tear loses whatever is in flight, or leaves it to straggle in
// behind the reconnect. UD acknowledgements are a multiset: dropped,
// duplicated, delivered in any order. The sessions are the real
// values; the rest mirrors their lock-holding shells (transmit, flushLocked,
// replayLocked, sessionAccept, handleDataAck, the handshake's rxMax prefix).
// Like the handshake model: no fabric, no clocks, no goroutines.

type sframe struct {
	data []byte
	seq  uint8 // for the state key only: the frame is its bytes
}

type sctl struct {
	to  uint8
	seq uint8
}

type sendpoint struct {
	s       session
	issued  uint8 // ops issued so far; op k carries the payload {k}
	queued  uint8 // ... of which the last few wait, unframed, behind a handshake
	applied uint8 // ops executed from the peer
	win     int   // this session's share of Conduit.unackedWin
}

type sworld struct {
	ep  [2]sendpoint
	up  bool
	rc  [2][]sframe // rc[d]: frames on their way to endpoint d, oldest first
	ctl []sctl

	ops, drops, dups, tears, timeouts uint8 // budgets left
}

const (
	maxRC  = 4
	maxCtl = 3
)

func (w *sworld) clone() sworld {
	n := *w
	for i := range n.ep {
		n.ep[i].s.unacked = append([][]byte(nil), w.ep[i].s.unacked...)
		n.rc[i] = append([]sframe(nil), w.rc[i]...)
	}
	n.ctl = append([]sctl(nil), w.ctl...)
	return n
}

// key is the state's identity: sessions by their counters (what is retained
// is always the contiguous run of sequences ending at txSeq), frames by
// sequence.
func (w *sworld) key() string {
	b := []byte{w.ops, w.drops, w.dups, w.tears, w.timeouts, 0}
	if w.up {
		b[5] = 1
	}
	for i, e := range w.ep {
		b = append(b, uint8(e.s.txSeq), uint8(e.s.rxMax), uint8(len(e.s.unacked)), e.issued, e.queued, e.applied, uint8(len(w.rc[i])))
		for _, f := range w.rc[i] {
			b = append(b, f.seq)
		}
	}
	for _, c := range w.ctl {
		b = append(b, c.to, c.seq)
	}
	return string(b)
}

// check holds in every reachable state.
func (w *sworld) check(t *testing.T) {
	for i := range w.ep {
		e, peer := &w.ep[i], &w.ep[1-i]
		if e.win != len(e.s.unacked) {
			t.Fatalf("endpoint %d: unackedWin share %d, %d frames retained", i, e.win, len(e.s.unacked))
		}
		for j, framed := range e.s.unacked {
			want := e.s.txSeq - uint64(len(e.s.unacked)-1-j)
			if _, seq, ok := splitRCTrailer(framed); !ok || seq != want {
				t.Fatalf("endpoint %d: retained frame %d of %d carries sequence %d (intact %v), want %d", i, j, len(e.s.unacked), seq, ok, want)
			}
		}
		if released := e.s.txSeq - uint64(len(e.s.unacked)); released > peer.s.rxMax {
			t.Fatalf("endpoint %d released frame %d, peer executed only up to %d: an op is lost", i, released, peer.s.rxMax)
		}
		if uint64(peer.applied) != peer.s.rxMax || peer.applied > e.issued {
			t.Fatalf("endpoint %d executed %d ops (ledger %d) of %d issued", 1-i, peer.applied, peer.s.rxMax, e.issued)
		}
	}
}

func (w *sworld) toWire(to int, f sframe) bool {
	if len(w.rc[to]) == maxRC {
		return false
	}
	w.rc[to] = append(w.rc[to], f)
	return true
}

// send is transmit for a fresh op: frame, post, commit.
func (w *sworld) send(me int, op uint8) bool {
	e := &w.ep[me]
	f := e.s.frame([]byte{op})
	if !w.toWire(1-me, sframe{data: f, seq: uint8(e.s.txSeq + 1)}) {
		return false
	}
	e.s.sent(f, 0)
	e.win++
	return true
}

// replay is replayLocked: every retained frame again, as it is.
func (w *sworld) replay(me int) bool {
	e := &w.ep[me]
	for i, framed := range e.s.unacked {
		if !w.toWire(1-me, sframe{data: framed, seq: uint8(e.s.txSeq) - uint8(len(e.s.unacked)-1-i)}) {
			return false
		}
	}
	return true
}

// issue is post: onto the wire on a live connection, else queued behind the
// handshake that connect completes.
func (w *sworld) issue(me int) bool {
	e := &w.ep[me]
	e.issued++
	if !w.up {
		e.queued++
		return true
	}
	return w.send(me, e.issued)
}

// acked is trimAckedLocked.
func (w *sworld) acked(me int, seq uint64) {
	n, _ := w.ep[me].s.acked(seq)
	w.ep[me].win -= n
}

// connect is the handshake and the two flushes behind it: each side trims by
// the rxMax prefix the other's REQ/REP carried, replays what it still retains,
// then frames what was queued.
func (w *sworld) connect() bool {
	w.up = true
	for me := range w.ep {
		w.acked(me, w.ep[1-me].s.rxMax)
	}
	for me := range w.ep {
		e := &w.ep[me]
		if !w.replay(me) {
			return false
		}
		for ; e.queued > 0; e.queued-- {
			if !w.send(me, e.issued-e.queued+1) {
				return false
			}
		}
	}
	return true
}

// recv is handleAM's session step plus the handler: the oldest frame in
// flight to endpoint to is deduplicated, executed if it is the next one, and
// answered. Without a lost frame there is never a gap: a sender replays its
// whole retained window, which starts at or below the receiver's next
// sequence, before anything new.
func (w *sworld) recv(t *testing.T, to int) bool {
	f := w.rc[to][0]
	w.rc[to] = w.rc[to][1:]
	e := &w.ep[to]
	inner, seq, _ := splitRCTrailer(f.data)
	v, ack := e.s.accept(seq)
	if v == gap {
		t.Fatalf("endpoint %d received sequence %d after %d: a frame vanished on a live connection", to, seq, e.s.rxMax)
	}
	if v == inOrder {
		if len(inner) != 1 || inner[0] != e.applied+1 {
			t.Fatalf("endpoint %d executed op %v after op %d: lost, duplicated or out of order", to, inner, e.applied)
		}
		e.applied++
	}
	c := sctl{to: uint8(1 - to), seq: uint8(ack)}
	for _, d := range w.ctl {
		if d == c {
			return true // identical datagrams in flight are one state
		}
	}
	if len(w.ctl) == maxCtl {
		return false
	}
	w.ctl = append(w.ctl, c)
	sort.Slice(w.ctl, func(i, j int) bool {
		a, b := w.ctl[i], w.ctl[j]
		if a.to != b.to {
			return a.to < b.to
		}
		return a.seq < b.seq
	})
	return true
}

// ctlRecv is handleDataAck.
func (w *sworld) ctlRecv(c sctl) {
	w.acked(int(c.to), uint64(c.seq))
}

// timeout is retransScan for a slot retaining frames: replay on a live
// connection, reconnect for the replay on a torn-down one.
func (w *sworld) timeout(me int) bool {
	if !w.up {
		return w.connect()
	}
	return w.replay(me)
}

// drain runs one fault-free suffix — deliver everything, reconnect if work
// waits, let the timers fire — and demands that every issued op has executed
// and both retained windows are empty within a fixed number of rounds.
func (from *sworld) drain(t *testing.T) {
	w := from.clone()
	for round := 0; round < 6; round++ {
		for len(w.rc[0])+len(w.rc[1])+len(w.ctl) > 0 {
			for to := range w.rc {
				for len(w.rc[to]) > 0 {
					if !w.recv(t, to) {
						return // left the explored bounds; not a verdict
					}
				}
			}
			if len(w.ctl) > 0 {
				c := w.ctl[0]
				w.ctl = w.ctl[1:]
				w.ctlRecv(c)
			}
			w.check(t)
		}
		done := true
		for me := range w.ep {
			e := &w.ep[me]
			if e.queued > 0 || len(e.s.unacked) > 0 {
				done = false
				if !w.timeout(me) {
					return
				}
			}
		}
		if done {
			for me := range w.ep {
				if w.ep[1-me].applied != w.ep[me].issued || w.ep[me].win != 0 {
					t.Fatalf("drained, yet endpoint %d executed %d of %d ops (unackedWin %d)\n  from %+v",
						1-me, w.ep[1-me].applied, w.ep[me].issued, w.ep[me].win, *from)
				}
			}
			return
		}
	}
	t.Fatalf("retained windows do not drain from %+v\n  stuck at %+v", *from, w)
}

// TestSessionModelExhaustive explores every interleaving of issue / deliver /
// tear / reconnect / timeout and of dropped, duplicated and
// reordered acknowledgements within small budgets, and checks in every
// reachable state that each op executes exactly once and in order (recv), that
// no frame is released before its op executed and the conduit's window count
// matches what is retained (check), and that a fault-free suffix executes
// everything issued and drains both retained windows to zero (drain).
func TestSessionModelExhaustive(t *testing.T) {
	start := sworld{up: true, ops: 3, drops: 1, dups: 1, tears: 2, timeouts: 2}
	seen := map[string]bool{}
	var queue []sworld
	push := func(w sworld, ok bool) {
		if !ok {
			return
		}
		if k := w.key(); !seen[k] {
			seen[k] = true
			queue = append(queue, w)
		}
	}
	push(start, true)
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		w.check(t)
		w.drain(t)
		for me := range w.ep {
			if w.ops > 0 {
				n := w.clone()
				n.ops--
				push(n, n.issue(me))
			}
			if len(w.rc[me]) > 0 {
				n := w.clone()
				push(n, n.recv(t, me))
			}
			if w.timeouts > 0 && (len(w.ep[me].s.unacked) > 0 || w.ep[me].queued > 0) {
				n := w.clone()
				n.timeouts--
				push(n, n.timeout(me))
			}
		}
		for i, c := range w.ctl {
			n := w.clone() // deliver (in any order: reordering is free)
			n.ctl = append(n.ctl[:i], n.ctl[i+1:]...)
			n.ctlRecv(c)
			push(n, true)
			if w.drops > 0 {
				n = w.clone()
				n.drops--
				n.ctl = append(n.ctl[:i], n.ctl[i+1:]...)
				push(n, true)
			}
			if w.dups > 0 {
				n = w.clone()
				n.dups--
				n.ctlRecv(c)
				push(n, true)
			}
		}
		if w.up && w.tears > 0 {
			n := w.clone() // the connection dies, and what was in flight with it
			n.tears--
			n.up, n.rc = false, [2][]sframe{}
			push(n, true)
			n = w.clone() // ... or straggles in ahead of the replacement's traffic
			n.tears--
			n.up = false
			push(n, true)
		}
		if !w.up {
			n := w.clone()
			push(n, n.connect())
		}
	}
	t.Logf("%d ops, %d drops, %d dups, %d tears, %d timeouts: explored %d states",
		start.ops, start.drops, start.dups, start.tears, start.timeouts, len(seen))
	if len(seen) < 100000 {
		t.Fatalf("only %d states reached: the model is not exploring", len(seen))
	}
}

// ---- the values, one rule at a time ----

// TestCreditWindowTake pins the credit window's arithmetic: a message departs
// at once while a slot is free, otherwise one retry delay after the oldest
// message in flight gives its slot back; released slots are pruned as time
// passes them; the window never holds more than depth messages.
func TestCreditWindowTake(t *testing.T) {
	const cost, retry = 100, 10
	type take struct {
		now, depart int64
		stalled     bool
		inFlight    int // after the take
	}
	for _, tc := range []struct {
		name  string
		depth int
		takes []take
	}{
		{"depth 1: every back-to-back send stalls", 1, []take{
			{0, 0, false, 1}, {0, 110, true, 1}, {110, 220, true, 1}, {320, 320, false, 1}, {1000, 1000, false, 1}}},
		{"depth 4: the fifth in a burst stalls on the first", 4, []take{
			{0, 0, false, 1}, {1, 1, false, 2}, {2, 2, false, 3}, {3, 3, false, 4},
			{4, 110, true, 1}, // waits out the oldest (100) + retry, by when all four are back
			{110, 110, false, 2}, {250, 250, false, 1}}},
		{"unbounded in practice: never stalls, prunes as time passes", 1 << 30, []take{
			{0, 0, false, 1}, {0, 0, false, 2}, {50, 50, false, 3}, {100, 100, false, 2}, {149, 149, false, 3}, {1000, 1000, false, 1}}},
	} {
		var w creditWindow
		for i, k := range tc.takes {
			depart, stalled := w.take(k.now, tc.depth, cost, retry)
			if depart != k.depart || stalled != k.stalled || len(w.rel) != k.inFlight {
				t.Errorf("%s: take %d at %d: depart %d stalled %v in flight %d, want %d %v %d",
					tc.name, i, k.now, depart, stalled, len(w.rel), k.depart, k.stalled, k.inFlight)
			}
			if !sort.SliceIsSorted(w.rel, func(i, j int) bool { return w.rel[i] < w.rel[j] }) || len(w.rel) > tc.depth {
				t.Fatalf("%s: window %v after take %d", tc.name, w.rel, i)
			}
		}
	}
}

// TestSessionValuesDoNotAllocate: like step, the session and credit-window
// methods run on every framed send and must not allocate — except the one
// copy that makes a frame.
func TestSessionValuesDoNotAllocate(t *testing.T) {
	var tx, rx session
	var w creditWindow
	payload := make([]byte, 64)
	now := int64(0)
	round := func() {
		f := tx.frame(payload)
		tx.sent(f, now)
		_, seq, _ := splitRCTrailer(f)
		v, ack := rx.accept(seq)
		if n, _ := tx.acked(ack); v != inOrder || n != 1 {
			panic("round trip broke")
		}
		now, _ = w.take(now, 4, 100, 10)
	}
	for i := 0; i < 8; i++ {
		round() // grow the retained and credit slices to their steady-state capacity
	}
	if n := testing.AllocsPerRun(100, round); n != 1 {
		t.Errorf("a framed round trip allocates %v times, want 1 (the frame copy)", n)
	}
}

// TestConnSlotSize: a static job holds np² connection slots, so the slot's
// size class is a startup_static heap_live_mb term. Session, credit and
// detector state hang off it by pointer precisely so that a fault-free slot
// stays in the 160 B class.
func TestConnSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(conn{}); n > 160 {
		t.Errorf("conn is %d bytes, want <= 160 (the next allocator size class is 176)", n)
	}
}

// TestConduitSize: one conduit per PE is the largest part of an on-demand
// PE's fixed heap, so its size class is a startup_ondemand heap_live_mb term;
// the AM handler table has a slot per id the runtime uses, not per byte value.
func TestConduitSize(t *testing.T) {
	if n := unsafe.Sizeof(Conduit{}); n > 1152 {
		t.Errorf("Conduit is %d bytes, want <= 1152 (its allocator size class)", n)
	}
}

// TestConduitLockBudget: locks follow ownership — connMu (slots, handshake,
// timers, counters), the completion table's, and udMu's single flight — and a
// fourth mutex, or a map beside qpPeer and deferredAM, means some state has
// lost its owner. A structural pin, like the slot size; the walk descends into
// the package's own struct-valued fields (the completion table), and leaves
// the connection table, whose sparse map is the paper's point, out.
func TestConduitLockBudget(t *testing.T) {
	var mutexes, maps []string
	var walk func(st reflect.Type, path string)
	walk = func(st reflect.Type, path string) {
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			switch {
			case f.Type == reflect.TypeOf(sync.Mutex{}):
				mutexes = append(mutexes, path+f.Name)
			case f.Type.Kind() == reflect.Map:
				maps = append(maps, path+f.Name)
			case f.Type.Kind() == reflect.Struct && f.Type.PkgPath() == st.PkgPath() && f.Type != reflect.TypeOf(connTable{}):
				walk(f.Type, path+f.Name+".")
			}
		}
	}
	walk(reflect.TypeOf(Conduit{}), "")
	t.Logf("mutexes %v, maps %v", mutexes, maps)
	if len(mutexes) > 3 || len(maps) > 2 {
		t.Errorf("Conduit has mutexes %v and maps %v, want at most 3 and 2", mutexes, maps)
	}
}
