package ib

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"goshmem/internal/vclock"
)

// testRig wires a two-node fabric with one PE per node.
type testRig struct {
	f        *Fabric
	h1, h2   *HCA
	c1, c2   *vclock.Clock
	cq1, cq2 *CQ // shared send+recv CQ per PE, like the conduit uses
}

func newRig(t *testing.T, faults *FaultInjector) *testRig {
	t.Helper()
	f := NewFabric(vclock.Default(), faults)
	return &testRig{
		f: f, h1: f.AddHCA(), h2: f.AddHCA(),
		c1: vclock.NewClock(0), c2: vclock.NewClock(0),
		cq1: NewCQ(), cq2: NewCQ(),
	}
}

// connectRC creates and connects an RC pair between the rig's two PEs.
func (r *testRig) connectRC(t *testing.T) (*QP, *QP) {
	t.Helper()
	q1 := r.h1.CreateQP(RC, r.c1, r.cq1, r.cq1)
	q2 := r.h2.CreateQP(RC, r.c2, r.cq2, r.cq2)
	for _, step := range []struct {
		q      *QP
		remote Dest
	}{{q1, q2.Addr()}, {q2, q1.Addr()}} {
		if err := step.q.ToInit(); err != nil {
			t.Fatalf("ToInit: %v", err)
		}
		if err := step.q.ToRTR(step.remote); err != nil {
			t.Fatalf("ToRTR: %v", err)
		}
		if err := step.q.ToRTS(); err != nil {
			t.Fatalf("ToRTS: %v", err)
		}
	}
	return q1, q2
}

func TestQPStateMachine(t *testing.T) {
	r := newRig(t, nil)
	q := r.h1.CreateQP(RC, r.c1, r.cq1, r.cq1)
	if q.State() != StateReset {
		t.Fatalf("new QP state = %v", q.State())
	}
	if err := q.ToRTR(Dest{1, 1}); err != ErrBadState {
		t.Fatalf("ToRTR from RESET: %v, want ErrBadState", err)
	}
	if err := q.ToRTS(); err != ErrBadState {
		t.Fatalf("ToRTS from RESET: %v, want ErrBadState", err)
	}
	if err := q.ToInit(); err != nil {
		t.Fatal(err)
	}
	if err := q.ToInit(); err != ErrBadState {
		t.Fatalf("double ToInit: %v", err)
	}
	if err := q.ToRTR(Dest{}); err != ErrNotConnected {
		t.Fatalf("RC ToRTR without remote: %v, want ErrNotConnected", err)
	}
	if err := q.ToRTR(Dest{LID: 2, QPN: 9}); err != nil {
		t.Fatal(err)
	}
	if err := q.PostSend(SendWR{Op: OpSend, Data: []byte("x")}); err != ErrBadState {
		t.Fatalf("PostSend in RTR: %v, want ErrBadState", err)
	}
	if err := q.ToRTS(); err != nil {
		t.Fatal(err)
	}
	if q.State() != StateRTS {
		t.Fatalf("state = %v, want RTS", q.State())
	}
	q.Destroy()
	if r.h1.QP(q.QPN()) != nil {
		t.Fatal("destroyed QP still visible")
	}
}

func TestQPCreationChargesClock(t *testing.T) {
	r := newRig(t, nil)
	before := r.c1.Now()
	r.h1.CreateQP(RC, r.c1, nil, r.cq1)
	afterRC := r.c1.Now()
	r.h1.CreateQP(UD, r.c1, nil, r.cq1)
	afterUD := r.c1.Now()
	rcCost, udCost := afterRC-before, afterUD-afterRC
	if rcCost <= 0 || udCost <= 0 {
		t.Fatal("QP creation must charge virtual time")
	}
	if udCost >= rcCost {
		t.Fatalf("UD QP (%d) should be cheaper than RC QP (%d)", udCost, rcCost)
	}
	st := r.h1.Stats()
	if st.QPsCreatedRC != 1 || st.QPsCreatedUD != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func udPair(t *testing.T, r *testRig) (*QP, *QP) {
	t.Helper()
	mk := func(h *HCA, c *vclock.Clock, cq *CQ) *QP {
		q := h.CreateQP(UD, c, nil, cq)
		if err := q.ToInit(); err != nil {
			t.Fatal(err)
		}
		if err := q.ToRTR(Dest{}); err != nil {
			t.Fatal(err)
		}
		if err := q.ToRTS(); err != nil {
			t.Fatal(err)
		}
		return q
	}
	return mk(r.h1, r.c1, r.cq1), mk(r.h2, r.c2, r.cq2)
}

func TestUDRoundtrip(t *testing.T) {
	r := newRig(t, nil)
	u1, u2 := udPair(t, r)
	msg := []byte("connect request")
	if err := u1.PostSend(SendWR{Op: OpSend, Dest: u2.Addr(), Data: msg, Imm: 42}); err != nil {
		t.Fatal(err)
	}
	c, ok := r.cq2.Wait()
	if !ok || !c.Recv {
		t.Fatal("no receive completion")
	}
	if !bytes.Equal(c.Data, msg) || c.Imm != 42 {
		t.Fatalf("got %q imm %d", c.Data, c.Imm)
	}
	if c.Src != u1.Addr() {
		t.Fatalf("src = %v, want %v", c.Src, u1.Addr())
	}
	if c.VTime <= 0 {
		t.Fatal("arrival time not positive")
	}
}

func TestUDMTUAndUnknownTarget(t *testing.T) {
	r := newRig(t, nil)
	u1, _ := udPair(t, r)
	if err := u1.PostSend(SendWR{Op: OpSend, Dest: Dest{2, 1}, Data: make([]byte, UDMTU+1)}); err != ErrMTUExceeded {
		t.Fatalf("MTU: %v", err)
	}
	// Unknown LID/QPN vanish silently, like real UD.
	if err := u1.PostSend(SendWR{Op: OpSend, Dest: Dest{77, 1}, Data: []byte("x")}); err != nil {
		t.Fatalf("unknown lid: %v", err)
	}
	if err := u1.PostSend(SendWR{Op: OpSend, Dest: Dest{2, 999}, Data: []byte("x")}); err != nil {
		t.Fatalf("unknown qpn: %v", err)
	}
	if n := r.cq2.Len(); n != 0 {
		t.Fatalf("unexpected deliveries: %d", n)
	}
	// RDMA on UD is unsupported.
	if err := u1.PostSend(SendWR{Op: OpRDMAWrite, Dest: Dest{2, 1}}); err != ErrOpUnsupported {
		t.Fatalf("RDMA on UD: %v", err)
	}
}

func TestUDDropAndDuplicate(t *testing.T) {
	fi := NewFaultInjector(1)
	fi.DropFirstN = 2
	r := newRig(t, fi)
	u1, u2 := udPair(t, r)
	for i := 0; i < 3; i++ {
		if err := u1.PostSend(SendWR{Op: OpSend, Dest: u2.Addr(), Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	c, ok := r.cq2.Wait()
	if !ok || c.Data[0] != 2 {
		t.Fatalf("expected only third datagram, got %v", c)
	}
	if fi.Injected().Drops != 2 {
		t.Fatalf("drops = %d", fi.Injected().Drops)
	}

	fi2 := NewFaultInjector(2)
	fi2.DupProb = 1.0
	r2 := newRig(t, fi2)
	v1, v2 := udPair(t, r2)
	if err := v1.PostSend(SendWR{Op: OpSend, Dest: v2.Addr(), Data: []byte("d")}); err != nil {
		t.Fatal(err)
	}
	a, _ := r2.cq2.Wait()
	b, _ := r2.cq2.Wait()
	if !bytes.Equal(a.Data, b.Data) {
		t.Fatal("duplicate should match original")
	}
	if b.VTime <= a.VTime {
		t.Fatal("duplicate should arrive later")
	}
}

func TestRCSendOrderedAndTimed(t *testing.T) {
	r := newRig(t, nil)
	q1, _ := r.connectRC(t)
	for i := 0; i < 20; i++ {
		if err := q1.PostSend(SendWR{Op: OpSend, Data: []byte{byte(i)}, NoSendCompletion: true}); err != nil {
			t.Fatal(err)
		}
	}
	last := int64(-1)
	for i := 0; i < 20; i++ {
		c, ok := r.cq2.Wait()
		if !ok {
			t.Fatal("cq closed")
		}
		if int(c.Data[0]) != i {
			t.Fatalf("out of order: got %d want %d", c.Data[0], i)
		}
		if c.VTime <= last {
			t.Fatalf("arrival times not increasing: %d <= %d", c.VTime, last)
		}
		last = c.VTime
	}
}

func TestRDMAWriteReadRoundtrip(t *testing.T) {
	r := newRig(t, nil)
	q1, _ := r.connectRC(t)
	heap := make([]byte, 4096)
	mr := r.h2.RegisterMR(heap, r.c2)

	payload := []byte("symmetric heap payload")
	if err := q1.PostSend(SendWR{Op: OpRDMAWrite, WRID: 7,
		RemoteAddr: mr.Base() + 100, RKey: mr.RKey(), Data: payload}); err != nil {
		t.Fatal(err)
	}
	c, _ := r.cq1.Wait()
	if c.Status != StatusOK || c.WRID != 7 {
		t.Fatalf("write completion: %+v", c)
	}
	if !bytes.Equal(heap[100:100+len(payload)], payload) {
		t.Fatal("RDMA write did not land")
	}

	if err := q1.PostSend(SendWR{Op: OpRDMARead, WRID: 8,
		RemoteAddr: mr.Base() + 100, RKey: mr.RKey(), Len: len(payload)}); err != nil {
		t.Fatal(err)
	}
	c, _ = r.cq1.Wait()
	if c.Status != StatusOK || !bytes.Equal(c.Data, payload) {
		t.Fatalf("read completion: %+v", c)
	}
}

func TestRDMAFaults(t *testing.T) {
	r := newRig(t, nil)
	q1, _ := r.connectRC(t)
	heap := make([]byte, 256)
	mr := r.h2.RegisterMR(heap, r.c2)

	cases := []SendWR{
		{Op: OpRDMAWrite, RemoteAddr: mr.Base() + 250, RKey: mr.RKey(), Data: make([]byte, 16)}, // overrun
		{Op: OpRDMAWrite, RemoteAddr: mr.Base() - 8, RKey: mr.RKey(), Data: make([]byte, 4)},    // underrun
		{Op: OpRDMAWrite, RemoteAddr: mr.Base(), RKey: 0xdeadbeef, Data: make([]byte, 4)},       // bad rkey
		{Op: OpRDMARead, RemoteAddr: mr.Base() + 200, RKey: mr.RKey(), Len: 100},                // read overrun
	}
	for i, wr := range cases {
		if err := q1.PostSend(wr); err != nil {
			t.Fatalf("case %d: sync err %v", i, err)
		}
		c, _ := r.cq1.Wait()
		if c.Status != StatusRemoteAccessErr {
			t.Fatalf("case %d: status %v, want REMOTE_ACCESS_ERR", i, c.Status)
		}
	}
	for _, b := range heap {
		if b != 0 {
			t.Fatal("faulting access corrupted memory")
		}
	}

	// Deregistered MR must fault.
	r.h2.DeregisterMR(mr)
	if err := q1.PostSend(SendWR{Op: OpRDMAWrite, RemoteAddr: mr.Base(), RKey: mr.RKey(), Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	c, _ := r.cq1.Wait()
	if c.Status != StatusRemoteAccessErr {
		t.Fatalf("write to dead MR: %v", c.Status)
	}
}

// TestWindowTable drives remote and local access against a region registered
// by size and backed in windows: A [0,64) and B [64,128) adjacent, C
// [256,320) past an unbacked gap. An access inside one live window works at
// either edge; one that straddles two windows, touches the gap or lands on a
// released window fails exactly like an access outside the region.
func TestWindowTable(t *testing.T) {
	r := newRig(t, nil)
	q1, _ := r.connectRC(t)
	mr, err := r.h2.TryRegisterMR(4096, r.c2)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := make([]byte, 64), make([]byte, 64), make([]byte, 64)
	mr.Back(0, a)
	mr.Back(64, b)
	mr.Back(256, c)
	post := func(wr SendWR) Status {
		t.Helper()
		wr.RemoteAddr += mr.Base()
		wr.RKey = mr.RKey()
		if err := q1.PostSend(wr); err != nil {
			t.Fatal(err)
		}
		comp, _ := r.cq1.Wait()
		return comp.Status
	}
	write := func(off uint64, n int) SendWR {
		return SendWR{Op: OpRDMAWrite, RemoteAddr: off, Data: bytes.Repeat([]byte{0xAB}, n)}
	}
	read := func(off uint64, n int) SendWR { return SendWR{Op: OpRDMARead, RemoteAddr: off, Len: n} }
	fadd := func(off uint64) SendWR { return SendWR{Op: OpFetchAdd, RemoteAddr: off, Add: 1} }
	for _, tc := range []struct {
		name string
		wr   SendWR
		want Status
	}{
		{"first byte of A", write(0, 8), StatusOK},
		{"last word of A", write(56, 8), StatusOK},
		{"first word of B", read(64, 8), StatusOK},
		{"last word of C", fadd(312), StatusOK},
		{"straddles A and B", write(60, 8), StatusRemoteAccessErr},
		{"read straddles A and B", read(32, 64), StatusRemoteAccessErr},
		{"unbacked gap", write(128, 8), StatusRemoteAccessErr},
		{"runs off C into the gap", read(312, 16), StatusRemoteAccessErr},
		{"atomic in the gap", fadd(200), StatusRemoteAccessErr},
	} {
		if got := post(tc.wr); got != tc.want {
			t.Errorf("%s: status %v, want %v", tc.name, got, tc.want)
		}
	}
	if !bytes.Equal(b[:8], make([]byte, 8)) || b[8] != 0 || a[59] != 0xAB || a[60] != 0xAB {
		t.Errorf("a refused access touched memory: A %x B %x", a[56:], b[:16])
	}
	if !mr.Release(256) || mr.Release(256) {
		t.Fatal("Release must drop C once")
	}
	for _, tc := range []struct {
		name string
		wr   SendWR
	}{{"write after release", write(256, 8)}, {"atomic on a released word", fadd(312)}} {
		if got := post(tc.wr); got != StatusRemoteAccessErr {
			t.Errorf("%s: status %v, want %v", tc.name, got, StatusRemoteAccessErr)
		}
	}
	if _, ok := r.h2.AtomicRMW(OpFetchAdd, mr.Base()+312, mr.RKey(), 1, 0, 0, 0); ok {
		t.Error("software atomic on a released word succeeded")
	}
	if _, ok := mr.AddUint64(312, 1); ok {
		t.Error("AddUint64 on a released word succeeded")
	}
	if c[56] != 1 {
		t.Errorf("released window changed after release: last word is %d, want 1", c[56])
	}
	for _, fp := range r.h2.Footprint() {
		if fp.Category == "pinned-bytes" && (fp.Bytes != 128 || fp.Objects != 2) {
			t.Errorf("pinned-bytes = %d B in %d windows, want 128 in 2", fp.Bytes, fp.Objects)
		}
	}
	for name, fn := range map[string]func(){
		"load of a released word": func() { mr.LoadUint64(256) },
		"store in the gap":        func() { mr.StoreUint64(128, 1) },
		"overlapping window":      func() { mr.Back(32, make([]byte, 64)) },
		"window past the region":  func() { mr.Back(4088, make([]byte, 16)) },
		"unaligned word load":     func() { mr.LoadUint64(4) },
		"unaligned word store":    func() { mr.StoreUint64(68, 1) },
		"misaligned window":       func() { mr.Back(1028, make([]byte, 8)) },
		"misaligned storage":      func() { mr.Back(1024, make([]byte, 16)[1:9]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
		served := make(chan struct{})
		go func() { mr.Release(2048); close(served) }()
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: a panicking access left the region locked", name)
		}
	}
	if _, ok := mr.AddUint64(4, 1); ok {
		t.Error("AddUint64 on an unaligned word succeeded")
	}
	if _, ok := mr.View(1024, 8); ok {
		t.Error("a refused Back left a window behind")
	}
}

// TestWordByteOrder pins a window's byte layout: a word stored locally reads
// back little-endian through View and through an 8-byte RDMA read, and a
// little-endian 8-byte RDMA write loads back as its value.
func TestWordByteOrder(t *testing.T) {
	r := newRig(t, nil)
	q1, _ := r.connectRC(t)
	mr := r.h2.RegisterMR(make([]byte, 32), r.c2)
	const v = 0x0102030405060708
	le := binary.LittleEndian.AppendUint64(nil, v)
	mr.StoreUint64(8, v)
	if b, _ := mr.View(8, 8); !bytes.Equal(b, le) {
		t.Errorf("View after StoreUint64 = %x, want %x", b, le)
	}
	post := func(wr SendWR) Completion {
		t.Helper()
		wr.RKey = mr.RKey()
		if err := q1.PostSend(wr); err != nil {
			t.Fatal(err)
		}
		c, _ := r.cq1.Wait()
		if c.Status != StatusOK {
			t.Fatalf("%v: %+v", wr.Op, c)
		}
		return c
	}
	if c := post(SendWR{Op: OpRDMARead, RemoteAddr: mr.Base() + 8, Len: 8}); !bytes.Equal(c.Data, le) {
		t.Errorf("RDMA read after StoreUint64 = %x, want %x", c.Data, le)
	}
	post(SendWR{Op: OpRDMAWrite, RemoteAddr: mr.Base() + 16, Data: le})
	if got := mr.LoadUint64(16); got != v {
		t.Errorf("LoadUint64 after an RDMA write of %x = %#x, want %#x", le, got, uint64(v))
	}
}

func TestAtomics(t *testing.T) {
	r := newRig(t, nil)
	q1, _ := r.connectRC(t)
	heap := make([]byte, 64)
	mr := r.h2.RegisterMR(heap, r.c2)

	post := func(wr SendWR) Completion {
		t.Helper()
		if err := q1.PostSend(wr); err != nil {
			t.Fatal(err)
		}
		c, _ := r.cq1.Wait()
		if c.Status != StatusOK {
			t.Fatalf("atomic failed: %+v", c)
		}
		return c
	}

	addr := mr.Base() + 8
	if old := post(SendWR{Op: OpFetchAdd, RemoteAddr: addr, RKey: mr.RKey(), Add: 5}).Old; old != 0 {
		t.Fatalf("fetch-add old = %d", old)
	}
	if old := post(SendWR{Op: OpFetchAdd, RemoteAddr: addr, RKey: mr.RKey(), Add: 3}).Old; old != 5 {
		t.Fatalf("fetch-add old = %d, want 5", old)
	}
	if got := mr.LoadUint64(8); got != 8 {
		t.Fatalf("value = %d, want 8", got)
	}
	// Failed compare-and-swap leaves the value alone.
	if old := post(SendWR{Op: OpCmpSwap, RemoteAddr: addr, RKey: mr.RKey(), Compare: 99, Swap: 1}).Old; old != 8 {
		t.Fatalf("cswap old = %d", old)
	}
	if got := mr.LoadUint64(8); got != 8 {
		t.Fatal("failed cswap modified value")
	}
	// Successful compare-and-swap.
	post(SendWR{Op: OpCmpSwap, RemoteAddr: addr, RKey: mr.RKey(), Compare: 8, Swap: 77})
	if got := mr.LoadUint64(8); got != 77 {
		t.Fatalf("cswap value = %d", got)
	}
	if old := post(SendWR{Op: OpSwap, RemoteAddr: addr, RKey: mr.RKey(), Swap: 123}).Old; old != 77 {
		t.Fatalf("swap old = %d", old)
	}
	// Unaligned atomics are rejected synchronously.
	if err := q1.PostSend(SendWR{Op: OpFetchAdd, RemoteAddr: mr.Base() + 3, RKey: mr.RKey(), Add: 1}); err != ErrUnaligned {
		t.Fatalf("unaligned: %v", err)
	}
}

// Property: concurrent remote fetch-adds from many QPs, and the owner's own
// AddUint64s on the same word, sum exactly. Then remote compare-and-swap
// increment loops race token passes on the same word: a remote OpSwap or an
// owner AtomicRMW swap takes the value out, leaving held, checks with
// LoadUint64 (owner) or the hand-back's old value (remote) that nobody
// touched the word meanwhile, and hands value+1 back by OpSwap,
// StoreUint64 or AddUint64. Every increment and pass counts exactly once.
func TestAtomicFetchAddConcurrent(t *testing.T) {
	f := NewFabric(vclock.Default(), nil)
	target := f.AddHCA()
	tclk := vclock.NewClock(0)
	heap := make([]byte, 8)
	mr := target.RegisterMR(heap, tclk)
	targetCQ := NewCQ()
	tqps := make([]*QP, 0)

	const workers, adds, ownerAdds = 8, 200, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		h := f.AddHCA()
		clk := vclock.NewClock(0)
		cq := NewCQ()
		q := h.CreateQP(RC, clk, cq, cq)
		tq := target.CreateQP(RC, tclk, nil, targetCQ)
		mustConnect(t, q, tq)
		tqps = append(tqps, tq)
		wg.Add(1)
		go func(q *QP, cq *CQ, id int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				if err := q.PostSend(SendWR{Op: OpFetchAdd, RemoteAddr: mr.Base(), RKey: mr.RKey(), Add: uint64(id + 1)}); err != nil {
					t.Errorf("post: %v", err)
					return
				}
				if c, _ := cq.Wait(); c.Status != StatusOK {
					t.Errorf("completion: %+v", c)
					return
				}
			}
		}(q, cq, w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ownerAdds; i++ {
			if _, ok := mr.AddUint64(0, 1); !ok {
				t.Error("owner AddUint64 found no window")
				return
			}
		}
	}()
	wg.Wait()
	want := uint64(ownerAdds)
	for w := 0; w < workers; w++ {
		want += uint64(w+1) * adds
	}
	if got := mr.LoadUint64(0); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	// A lost or torn update strands the word at held and the passes spin:
	// stop ends them once the deadline below passes.
	const held, casIncs, passes, ownerPasses = 1 << 63, 100, 50, 200
	var stop atomic.Bool
	rmw := func(q *QP, cq *CQ, op Opcode, compare, swap uint64) uint64 {
		if err := q.PostSend(SendWR{Op: op, RemoteAddr: mr.Base(), RKey: mr.RKey(), Compare: compare, Swap: swap}); err != nil {
			t.Errorf("post: %v", err)
		}
		c, _ := cq.Wait()
		if c.Status != StatusOK {
			t.Errorf("completion: %+v", c)
		}
		return c.Old
	}
	for w := 0; w < workers; w++ {
		h := f.AddHCA()
		clk := vclock.NewClock(0)
		cq := NewCQ()
		q := h.CreateQP(RC, clk, cq, cq)
		mustConnect(t, q, target.CreateQP(RC, tclk, nil, targetCQ))
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if id%2 == 0 {
				for n, guess := 0, uint64(0); n < casIncs && !stop.Load(); {
					if old := rmw(q, cq, OpCmpSwap, guess, guess+1); old == guess {
						n, guess = n+1, guess+1
					} else if old != held {
						guess = old
					}
				}
				return
			}
			for n := 0; n < passes && !stop.Load(); {
				if v := rmw(q, cq, OpSwap, 0, held); v != held {
					if back := rmw(q, cq, OpSwap, 0, v+1); back != held {
						t.Errorf("the word changed while worker %d held it: %#x", id, back)
					}
					n++
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < ownerPasses && !stop.Load(); {
			v, ok := target.AtomicRMW(OpSwap, mr.Base(), mr.RKey(), 0, 0, held, 0)
			if !ok {
				t.Error("owner swap found no window")
				return
			}
			if v == held {
				continue
			}
			if got := mr.LoadUint64(0); got != held {
				t.Errorf("the word changed while the owner held it: %#x", got)
			}
			if n%2 == 0 {
				mr.StoreUint64(0, v+1)
			} else {
				mr.AddUint64(0, v+1-held)
			}
			n++
		}
	}()
	passed := make(chan struct{})
	go func() { wg.Wait(); close(passed) }()
	select {
	case <-passed:
	case <-time.After(20 * time.Second):
		stop.Store(true)
		<-passed
		t.Fatalf("token passes stalled: the word is stuck at %#x", mr.LoadUint64(0))
	}
	want += workers/2*casIncs + workers/2*passes + ownerPasses
	if got := mr.LoadUint64(0); got != want {
		t.Fatalf("after token passes: word = %d, want %d", got, want)
	}
	_ = tqps
}

// TestWordPathTakesNoRegionLock pins that no word access takes a region's
// lock: while the region's mu is held, the word helpers, View, a remote
// 8-byte RDMA write and read, and every fetching atomic into it complete.
func TestWordPathTakesNoRegionLock(t *testing.T) {
	r := newRig(t, nil)
	q1, _ := r.connectRC(t)
	heap := make([]byte, 64)
	mr := r.h2.RegisterMR(heap, r.c2)
	mr.mu.Lock()
	defer mr.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		mr.StoreUint64(0, 7)
		if v, ok := mr.AddUint64(0, 3); !ok || v != 10 || mr.LoadUint64(0) != 10 {
			done <- fmt.Errorf("word helpers: add gave %d, %v", v, ok)
			return
		}
		if _, ok := mr.View(0, 64); !ok {
			done <- errors.New("View failed")
			return
		}
		for _, w := range []SendWR{{Op: OpRDMAWrite, Data: []byte("lockfree")}, {Op: OpRDMARead, Len: 8},
			{Op: OpFetchAdd, Add: 5}, {Op: OpCmpSwap, Compare: 99, Swap: 1}, {Op: OpSwap, Swap: 42}} {
			w.RemoteAddr, w.RKey = mr.Base()+8, mr.RKey()
			if err := q1.PostSend(w); err != nil {
				done <- err
				return
			}
			if c, _ := r.cq1.Wait(); c.Status != StatusOK || (w.Op == OpRDMARead && string(c.Data) != "lockfree") {
				done <- fmt.Errorf("%v completion: %+v", w.Op, c)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a word access blocked on the region's lock")
	}
	if binary.LittleEndian.Uint64(heap) != 10 || binary.LittleEndian.Uint64(heap[8:]) != 42 {
		t.Fatalf("region bytes %x, want the stores and the atomics to have landed", heap[:16])
	}
}

func mustConnect(t *testing.T, a, b *QP) {
	t.Helper()
	for _, s := range []struct {
		q *QP
		r Dest
	}{{a, b.Addr()}, {b, a.Addr()}} {
		if err := s.q.ToInit(); err != nil {
			t.Fatal(err)
		}
		if err := s.q.ToRTR(s.r); err != nil {
			t.Fatal(err)
		}
		if err := s.q.ToRTS(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOnWriteNotification(t *testing.T) {
	r := newRig(t, nil)
	q1, _ := r.connectRC(t)
	heap := make([]byte, 128)
	mr := r.h2.RegisterMR(heap, r.c2)
	var mu sync.Mutex
	var got []int
	mr.SetOnWrite(func(off, n int, vtime int64) {
		mu.Lock()
		got = append(got, off, n)
		mu.Unlock()
	})
	if err := q1.PostSend(SendWR{Op: OpRDMAWrite, RemoteAddr: mr.Base() + 16, RKey: mr.RKey(), Data: make([]byte, 4), NoSendCompletion: true}); err != nil {
		t.Fatal(err)
	}
	if err := q1.PostSend(SendWR{Op: OpFetchAdd, RemoteAddr: mr.Base() + 32, RKey: mr.RKey(), Add: 1}); err != nil {
		t.Fatal(err)
	}
	r.cq1.Wait() // atomic completion ensures both writes done
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 4 || got[0] != 16 || got[1] != 4 || got[2] != 32 || got[3] != 8 {
		t.Fatalf("onWrite calls = %v", got)
	}
}

// TestOnWriteReentrant pins that onWrite runs with no lock held: a callback
// that loads the word it was notified for completes, after a landed RDMA
// write, a fabric fetch-add and a software atomic alike.
func TestOnWriteReentrant(t *testing.T) {
	r := newRig(t, nil)
	q1, _ := r.connectRC(t)
	mr := r.h2.RegisterMR(make([]byte, 64), r.c2)
	var seen []uint64
	mr.SetOnWrite(func(off, n int, vtime int64) { seen = append(seen, mr.LoadUint64(off)) })
	done := make(chan error, 1)
	go func() {
		for _, wr := range []SendWR{{Op: OpRDMAWrite, Data: []byte{9, 0, 0, 0, 0, 0, 0, 0}}, {Op: OpFetchAdd, Add: 1}} {
			wr.RemoteAddr, wr.RKey = mr.Base()+8, mr.RKey()
			if err := q1.PostSend(wr); err != nil {
				done <- err
				return
			}
			r.cq1.Wait()
		}
		r.h2.AtomicRMW(OpFetchAdd, mr.Base()+8, mr.RKey(), 1, 0, 0, 0)
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an onWrite callback that loads its own region blocked: it ran under the region lock")
	}
	if fmt.Sprint(seen) != "[9 10 11]" {
		t.Fatalf("words seen by onWrite = %v, want [9 10 11]", seen)
	}
}

func TestMRGuardSpacing(t *testing.T) {
	r := newRig(t, nil)
	a := r.h1.RegisterMR(make([]byte, 100), r.c1)
	b := r.h1.RegisterMR(make([]byte, 100), r.c1)
	if a.Base()+uint64(a.Size()) >= b.Base() {
		t.Fatal("regions not separated by guard space")
	}
	if a.RKey() == b.RKey() {
		t.Fatal("rkeys must be unique")
	}
}

func TestCachePenalty(t *testing.T) {
	model := vclock.Default()
	model.HCACacheQPs = 4
	f := NewFabric(model, nil)
	h1, h2 := f.AddHCA(), f.AddHCA()
	c1, c2 := vclock.NewClock(0), vclock.NewClock(0)
	cq1, cq2 := NewCQ(), NewCQ()

	// First connection: under cache limit.
	q1 := h1.CreateQP(RC, c1, cq1, cq1)
	q2 := h2.CreateQP(RC, c2, nil, cq2)
	mustConnect(t, q1, q2)
	base := c1.Now()
	if err := q1.PostSend(SendWR{Op: OpSend, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	c, _ := cq2.Wait()
	fastLat := c.VTime - base

	// Oversubscribe the target HCA's endpoint cache.
	for i := 0; i < 10; i++ {
		a := h1.CreateQP(RC, c1, nil, cq1)
		b := h2.CreateQP(RC, c2, nil, cq2)
		mustConnect(t, a, b)
	}
	base = c1.Now()
	if err := q1.PostSend(SendWR{Op: OpSend, Data: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	c, _ = cq2.Wait()
	slowLat := c.VTime - base
	if slowLat <= fastLat {
		t.Fatalf("cache thrash should slow messages: fast=%d slow=%d", fastLat, slowLat)
	}
	if h2.Stats().CacheMisses == 0 {
		t.Fatal("no cache misses recorded")
	}
}

func TestIntraNodeCheaperThanInterNode(t *testing.T) {
	f := NewFabric(vclock.Default(), nil)
	h1, h2 := f.AddHCA(), f.AddHCA()
	c1, c2, c3 := vclock.NewClock(0), vclock.NewClock(0), vclock.NewClock(0)
	cqA, cqB, cqC := NewCQ(), NewCQ(), NewCQ()

	// Intra-node pair: both QPs on h1.
	a := h1.CreateQP(RC, c1, nil, cqA)
	b := h1.CreateQP(RC, c2, nil, cqB)
	mustConnect(t, a, b)
	// Inter-node pair: h1 -> h2.
	x := h1.CreateQP(RC, c1, nil, cqA)
	y := h2.CreateQP(RC, c3, nil, cqC)
	mustConnect(t, x, y)

	t0 := c1.Now()
	if err := a.PostSend(SendWR{Op: OpSend, Data: make([]byte, 1024)}); err != nil {
		t.Fatal(err)
	}
	cb, _ := cqB.Wait()
	intra := cb.VTime - t0

	t0 = c1.Now()
	if err := x.PostSend(SendWR{Op: OpSend, Data: make([]byte, 1024)}); err != nil {
		t.Fatal(err)
	}
	cc, _ := cqC.Wait()
	inter := cc.VTime - t0
	if intra >= inter {
		t.Fatalf("intra-node (%d) should beat inter-node (%d)", intra, inter)
	}
}

// Property: for any sequence of in-bounds RDMA writes, a final read of the
// whole region matches a reference buffer maintained locally.
func TestRDMAWriteReadProperty(t *testing.T) {
	r := newRig(t, nil)
	q1, _ := r.connectRC(t)
	const size = 512
	heap := make([]byte, size)
	mr := r.h2.RegisterMR(heap, r.c2)
	ref := make([]byte, size)

	f := func(ops []struct {
		Off  uint16
		Data []byte
	}) bool {
		for _, op := range ops {
			off := int(op.Off) % size
			n := len(op.Data)
			if n > size-off {
				n = size - off
			}
			if n == 0 {
				continue
			}
			if err := q1.PostSend(SendWR{Op: OpRDMAWrite, RemoteAddr: mr.Base() + uint64(off),
				RKey: mr.RKey(), Data: op.Data[:n]}); err != nil {
				return false
			}
			if c, _ := r.cq1.Wait(); c.Status != StatusOK {
				return false
			}
			copy(ref[off:], op.Data[:n])
		}
		if err := q1.PostSend(SendWR{Op: OpRDMARead, RemoteAddr: mr.Base(), RKey: mr.RKey(), Len: size}); err != nil {
			return false
		}
		c, _ := r.cq1.Wait()
		return c.Status == StatusOK && bytes.Equal(c.Data, ref)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCQPollAndClose(t *testing.T) {
	q := NewCQ()
	if _, ok := q.Poll(); ok {
		t.Fatal("empty Poll returned ok")
	}
	for i := 0; i < 10000; i++ {
		q.Push(Completion{WRID: uint64(i)})
	}
	for i := 0; i < 10000; i++ {
		c, ok := q.Poll()
		if !ok || c.WRID != uint64(i) {
			t.Fatalf("poll %d: %v %v", i, c, ok)
		}
	}
	if c := cap(q.buf); c > maxIdleCap {
		t.Fatalf("drained queue keeps %d entries of capacity, want at most %d", c, maxIdleCap)
	}
	done := make(chan struct{})
	go func() {
		if _, ok := q.Wait(); ok {
			t.Error("Wait on closed queue returned ok")
		}
		close(done)
	}()
	q.Close()
	<-done
}

func TestDestroyedTargetSendFails(t *testing.T) {
	r := newRig(t, nil)
	q1, q2 := r.connectRC(t)
	q2.Destroy()
	if err := q1.PostSend(SendWR{Op: OpSend, Data: []byte("x")}); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("send to destroyed QP: %v, want ErrLinkDown", err)
	}
	// The failure is synchronous and both-sided: the local QP errors out and
	// no completion (not even a flush) is generated, so a connection manager
	// can requeue the work request behind a fresh handshake without risking
	// duplicate delivery.
	if st := q1.State(); st != StateError {
		t.Fatalf("local QP state after link fault = %v, want Error", st)
	}
	if n := r.cq1.Len(); n != 0 {
		t.Fatalf("completions after synchronous link fault = %d, want 0", n)
	}
}

// TestCQSteadyStreamAllocatesNothing: a queue drained after every push reuses
// its array, so the steady one-in, one-out stream of a put or a fetch-add
// costs no allocation.
func TestCQSteadyStreamAllocatesNothing(t *testing.T) {
	q := NewCQ()
	if n := testing.AllocsPerRun(1000, func() {
		q.Push(Completion{WRID: 1})
		q.Poll()
	}); n != 0 {
		t.Fatalf("Push+Poll allocates %v per op, want 0", n)
	}
}

// TestDataPathTakesNoAdapterLock pins the adapter's locking rule: once the
// first post has resolved the peer, an RDMA write, a read and a fetch-add on
// an RTS RC pair complete while both adapters' control-plane mutexes are held.
func TestDataPathTakesNoAdapterLock(t *testing.T) {
	r := newRig(t, nil)
	q1, _ := r.connectRC(t)
	heap := make([]byte, 16)
	mr := r.h2.RegisterMR(heap, r.c2)
	wr := func(op Opcode, off uint64) SendWR {
		return SendWR{Op: op, RemoteAddr: mr.Base() + off, RKey: mr.RKey(), Data: []byte("lockfree"), Len: 8, Add: 5}
	}
	if err := q1.PostSend(wr(OpRDMAWrite, 8)); err != nil {
		t.Fatal(err)
	}
	r.cq1.Wait()
	r.h1.mu.Lock()
	r.h2.mu.Lock()
	defer func() { r.h2.mu.Unlock(); r.h1.mu.Unlock() }()
	done := make(chan error, 1)
	go func() {
		for _, w := range []SendWR{wr(OpRDMAWrite, 0), wr(OpRDMARead, 0), wr(OpFetchAdd, 8)} {
			if err := q1.PostSend(w); err != nil {
				done <- err
				return
			}
			if c, _ := r.cq1.Wait(); c.Status != StatusOK || (w.Op == OpRDMARead && string(c.Data) != "lockfree") {
				done <- fmt.Errorf("%v completion: %+v", w.Op, c)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an RDMA write, read or fetch-add blocked on an adapter's mu")
	}
	if string(heap[:8]) != "lockfree" || binary.LittleEndian.Uint64(heap[8:]) != binary.LittleEndian.Uint64([]byte("lockfree"))+5 {
		t.Fatalf("target memory %q, want the write and the fetch-add to have landed", heap)
	}
}

// TestRegionsShareNoLock pins the memory-locking rule: each region guards its
// own bytes, so while one region's lock is held, every local word access,
// window change and remote write, read and fetch-add into another region of
// the same adapter completes.
func TestRegionsShareNoLock(t *testing.T) {
	r := newRig(t, nil)
	q1, _ := r.connectRC(t)
	a := r.h2.RegisterMR(make([]byte, 64), r.c2)
	b, err := r.h2.TryRegisterMR(128, r.c2)
	if err != nil {
		t.Fatal(err)
	}
	heap := make([]byte, 64)
	a.mu.Lock()
	defer a.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		b.Back(0, heap)
		b.Back(64, make([]byte, 64))
		b.StoreUint64(0, 7)
		if v, ok := b.AddUint64(0, 3); !ok || v != 10 || b.LoadUint64(0) != 10 {
			done <- fmt.Errorf("word helpers on B: add gave %d, %v", v, ok)
			return
		}
		if _, ok := b.View(0, 64); !ok || !b.Release(64) {
			done <- errors.New("View or Release on B failed")
			return
		}
		for _, w := range []SendWR{{Op: OpRDMAWrite, Data: []byte("lockfree")}, {Op: OpRDMARead, Len: 8}, {Op: OpFetchAdd, Add: 5}} {
			w.RemoteAddr, w.RKey = b.Base()+8, b.RKey()
			if err := q1.PostSend(w); err != nil {
				done <- err
				return
			}
			if c, _ := r.cq1.Wait(); c.Status != StatusOK || (w.Op == OpRDMARead && string(c.Data) != "lockfree") {
				done <- fmt.Errorf("%v completion: %+v", w.Op, c)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an access to region B blocked on region A's lock")
	}
	if binary.LittleEndian.Uint64(heap) != 10 || binary.LittleEndian.Uint64(heap[8:]) != binary.LittleEndian.Uint64([]byte("lockfree"))+5 {
		t.Fatalf("region B's bytes %q, want the stores, the write and the fetch-add to have landed", heap[:16])
	}
}
