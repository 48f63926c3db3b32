package ib

import (
	"bytes"
	"errors"
	"testing"

	"goshmem/internal/vclock"
)

func TestQPBudgetEnforced(t *testing.T) {
	r := newRig(t, nil)
	r.h1.SetLimits(Limits{MaxQPs: 2}, vclock.NewClock(0))
	q1, err := r.h1.TryCreateQP(RC, r.c1, r.cq1, r.cq1)
	if err != nil {
		t.Fatalf("alloc 1: %v", err)
	}
	if _, err := r.h1.TryCreateQP(RC, r.c1, r.cq1, r.cq1); err != nil {
		t.Fatalf("alloc 2: %v", err)
	}
	if _, err := r.h1.TryCreateQP(RC, r.c1, r.cq1, r.cq1); !errors.Is(err, ErrQPExhausted) {
		t.Fatalf("alloc 3 = %v, want ErrQPExhausted", err)
	}
	if got := r.h1.Stats().AllocFailures; got != 1 {
		t.Fatalf("AllocFailures = %d, want 1", got)
	}
	// Destroying a QP returns its slot to the budget.
	q1.Destroy()
	if _, err := r.h1.TryCreateQP(RC, r.c1, r.cq1, r.cq1); err != nil {
		t.Fatalf("alloc after destroy: %v", err)
	}
}

// TestQPsDestroyedMonotone: the destroy counter is the adapter-wide progress
// signal allocation ladders key their retry budgets to — it must count every
// destroy exactly once, including double-Destroy calls counted once.
func TestQPsDestroyedMonotone(t *testing.T) {
	r := newRig(t, nil)
	if got := r.h1.Stats().QPsDestroyed; got != 0 {
		t.Fatalf("fresh adapter QPsDestroyed = %d", got)
	}
	a := r.h1.CreateQP(RC, r.c1, r.cq1, r.cq1)
	b := r.h1.CreateQP(RC, r.c1, r.cq1, r.cq1)
	a.Destroy()
	a.Destroy() // idempotent: must not double-count
	if got := r.h1.Stats().QPsDestroyed; got != 1 {
		t.Fatalf("QPsDestroyed after one destroy = %d, want 1", got)
	}
	b.Destroy()
	if got := r.h1.Stats().QPsDestroyed; got != 2 {
		t.Fatalf("QPsDestroyed after two destroys = %d, want 2", got)
	}
}

func TestQPBudgetPanicOnInfallibleCreate(t *testing.T) {
	r := newRig(t, nil)
	r.h1.SetLimits(Limits{MaxQPs: 1}, vclock.NewClock(0))
	r.h1.CreateQP(RC, r.c1, r.cq1, r.cq1)
	defer func() {
		if recover() == nil {
			t.Fatal("CreateQP past the budget did not panic")
		}
	}()
	r.h1.CreateQP(RC, r.c1, r.cq1, r.cq1)
}

func TestQPImpossible(t *testing.T) {
	r := newRig(t, nil)
	r.h1.SetLimits(Limits{MaxQPs: 2}, vclock.NewClock(0))
	if r.h1.QPImpossible() {
		t.Fatal("fresh adapter reports impossible")
	}
	ud, _ := r.h1.TryCreateQP(UD, r.c1, nil, r.cq1)
	rc, _ := r.h1.TryCreateQP(RC, r.c1, r.cq1, r.cq1)
	if ud == nil || rc == nil {
		t.Fatal("setup allocations failed")
	}
	// Cap reached, but the RC QP could be evicted: still possible.
	if r.h1.QPImpossible() {
		t.Fatal("cap with a live RC reports impossible")
	}
	rc.Destroy()
	ud2, err := r.h1.TryCreateQP(UD, r.c1, nil, r.cq1)
	if err != nil {
		t.Fatalf("UD alloc after destroy: %v", err)
	}
	_ = ud2
	// Cap reached and every slot is a UD endpoint (never destroyed before
	// job end): provably impossible.
	if !r.h1.QPImpossible() {
		t.Fatal("cap with only UD endpoints not reported impossible")
	}
}

func TestMRBudgetAndBounce(t *testing.T) {
	r := newRig(t, nil)
	clk := vclock.NewClock(0)
	r.h1.SetLimits(Limits{MaxMRBytes: 256 << 10}, clk)
	if r.h1.BounceSlab() == nil {
		t.Fatal("no bounce slab pre-registered")
	}
	slabBytes := int64(r.h1.BounceSlab().Size())
	m1, err := r.h1.TryRegisterMR(make([]byte, 128<<10), r.c1)
	if err != nil {
		t.Fatalf("register under budget: %v", err)
	}
	// 64K slab + 128K = 192K pinned; another 128K would exceed 256K.
	if _, err := r.h1.TryRegisterMR(make([]byte, 128<<10), r.c1); !errors.Is(err, ErrMRExhausted) {
		t.Fatalf("register past budget = %v, want ErrMRExhausted", err)
	}
	bm, err := r.h1.RegisterBounced(make([]byte, 128<<10), r.c1)
	if err != nil {
		t.Fatalf("RegisterBounced: %v", err)
	}
	if !bm.Bounced() {
		t.Fatal("bounced region not flagged")
	}
	st := r.h1.Stats()
	if st.BouncedMRs != 1 {
		t.Fatalf("BouncedMRs = %d, want 1", st.BouncedMRs)
	}
	if want := slabBytes + 128<<10; st.BytesPinned != want {
		t.Fatalf("BytesPinned = %d, want %d (bounced regions must not pin)", st.BytesPinned, want)
	}
	// Deregistering the pinned region frees budget; the bounced one frees none.
	r.h1.DeregisterMR(m1)
	r.h1.DeregisterMR(bm)
	if got := r.h1.Stats().BytesPinned; got != slabBytes {
		t.Fatalf("BytesPinned after dereg = %d, want %d", got, slabBytes)
	}
}

func TestBounceSlabSkippedWhenBudgetTiny(t *testing.T) {
	r := newRig(t, nil)
	r.h1.SetLimits(Limits{MaxMRBytes: 4 << 10}, vclock.NewClock(0))
	if r.h1.BounceSlab() != nil {
		t.Fatal("tiny budget still got a slab")
	}
	if _, err := r.h1.RegisterBounced(make([]byte, 1<<10), r.c1); !errors.Is(err, ErrMRExhausted) {
		t.Fatalf("RegisterBounced without slab = %v, want ErrMRExhausted", err)
	}
}

// TestBouncedMRDataPath: remote writes, reads and atomics against a bounced
// region land in the right bytes (the staging copy is a timing effect, not a
// data-path rewrite), and cost strictly more virtual time than the same
// traffic against a pinned region.
func TestBouncedMRDataPath(t *testing.T) {
	run := func(bounced bool) (payload []byte, elapsed int64) {
		r := newRig(t, nil)
		if bounced {
			r.h2.SetLimits(Limits{MaxMRBytes: 256 << 10}, vclock.NewClock(0))
		}
		q1, _ := r.connectRC(t)
		buf := make([]byte, 8<<10)
		var mr *MR
		if bounced {
			var err error
			mr, err = r.h2.RegisterBounced(buf, r.c2)
			if err != nil {
				t.Fatalf("RegisterBounced: %v", err)
			}
		} else {
			mr = r.h2.RegisterMR(buf, r.c2)
		}
		start := r.c1.Now()
		data := bytes.Repeat([]byte{0xab}, 4<<10)
		if err := q1.PostSend(SendWR{Op: OpRDMAWrite, WRID: 1, Data: data,
			RemoteAddr: mr.Base(), RKey: mr.RKey()}); err != nil {
			t.Fatalf("write: %v", err)
		}
		if comp, ok := r.cq1.Poll(); !ok || comp.Status != StatusOK {
			t.Fatalf("write completion: %+v ok=%v", comp, ok)
		}
		return append([]byte(nil), buf[:4<<10]...), r.c1.Now() - start
	}
	pinned, tPinned := run(false)
	bounced, tBounced := run(true)
	if !bytes.Equal(pinned, bounced) {
		t.Fatal("bounced region delivered different bytes than pinned")
	}
	if tBounced <= tPinned {
		t.Fatalf("bounced write cost %dns, pinned %dns; staging must cost extra", tBounced, tPinned)
	}
}

// TestRNRNak: a receive queue bounded at depth d NAKs the d+1'th in-flight
// send, and the NAK'd send succeeds after the receiver's drain time passes.
func TestRNRNak(t *testing.T) {
	r := newRig(t, nil)
	r.h2.SetLimits(Limits{RQDepth: 2}, vclock.NewClock(0))
	q1, _ := r.connectRC(t)
	post := func() error {
		return q1.PostSend(SendWR{Op: OpSend, WRID: 9, Data: []byte("x"), NoSendCompletion: true})
	}
	if err := post(); err != nil {
		t.Fatalf("send 1: %v", err)
	}
	if err := post(); err != nil {
		t.Fatalf("send 2: %v", err)
	}
	// Same instant, both slots held: receiver not ready.
	if err := post(); !errors.Is(err, ErrRNR) {
		t.Fatalf("send 3 = %v, want ErrRNR", err)
	}
	if got := r.h2.Stats().RNRNaks; got != 1 {
		t.Fatalf("RNRNaks = %d, want 1", got)
	}
	// After the drain interval the slots are reposted and the retry lands.
	r.c1.Advance(vclock.Default().RQDrain * 4)
	if err := post(); err != nil {
		t.Fatalf("retry after drain: %v", err)
	}
}

// TestRNRNakPreservesOrdering: a NAK'd send must not advance the in-order
// arrival clamp; the retry still arrives after everything already delivered.
func TestRNRNakPreservesOrdering(t *testing.T) {
	r := newRig(t, nil)
	r.h2.SetLimits(Limits{RQDepth: 1}, vclock.NewClock(0))
	q1, _ := r.connectRC(t)
	if err := q1.PostSend(SendWR{Op: OpSend, WRID: 1, Data: []byte("a"), NoSendCompletion: true}); err != nil {
		t.Fatalf("send 1: %v", err)
	}
	first, ok := r.cq2.Poll()
	if !ok {
		t.Fatal("first delivery missing")
	}
	if err := q1.PostSend(SendWR{Op: OpSend, WRID: 2, Data: []byte("b"), NoSendCompletion: true}); !errors.Is(err, ErrRNR) {
		t.Fatalf("send 2 = %v, want ErrRNR", err)
	}
	r.c1.Advance(vclock.Default().RQDrain * 4)
	if err := q1.PostSend(SendWR{Op: OpSend, WRID: 2, Data: []byte("b"), NoSendCompletion: true}); err != nil {
		t.Fatalf("retry: %v", err)
	}
	second, ok := r.cq2.Poll()
	if !ok {
		t.Fatal("second delivery missing")
	}
	if second.VTime <= first.VTime {
		t.Fatalf("retried send arrived at %d, before/with first delivery %d", second.VTime, first.VTime)
	}
}

func TestUnbudgetedReceiveQueueNeverNAKs(t *testing.T) {
	r := newRig(t, nil)
	q1, _ := r.connectRC(t)
	for i := 0; i < 64; i++ {
		if err := q1.PostSend(SendWR{Op: OpSend, WRID: uint64(i), Data: []byte("x"), NoSendCompletion: true}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if got := r.h2.Stats().RNRNaks; got != 0 {
		t.Fatalf("RNRNaks = %d on an unbudgeted queue", got)
	}
}

func TestInjectedAllocFaults(t *testing.T) {
	fi := NewFaultInjector(1)
	fi.FailQPAllocOn(2)
	fi.FailMRAllocOn(1)
	r := newRig(t, fi)
	if _, err := r.h1.TryCreateQP(RC, r.c1, r.cq1, r.cq1); err != nil {
		t.Fatalf("alloc 1: %v", err)
	}
	if _, err := r.h1.TryCreateQP(RC, r.c1, r.cq1, r.cq1); !errors.Is(err, ErrQPExhausted) {
		t.Fatalf("alloc 2 = %v, want injected ErrQPExhausted", err)
	}
	if _, err := r.h1.TryCreateQP(RC, r.c1, r.cq1, r.cq1); err != nil {
		t.Fatalf("alloc 3: %v", err)
	}
	if _, err := r.h1.TryRegisterMR(make([]byte, 4096), r.c1); !errors.Is(err, ErrMRExhausted) {
		t.Fatalf("mr alloc 1 = %v, want injected ErrMRExhausted", err)
	}
	if _, err := r.h1.TryRegisterMR(make([]byte, 4096), r.c1); err != nil {
		t.Fatalf("mr alloc 2: %v", err)
	}
	// Schedules are per-adapter: h2's own 2nd QP allocation fails too.
	if _, err := r.h2.TryCreateQP(RC, r.c2, r.cq2, r.cq2); err != nil {
		t.Fatalf("h2 alloc 1: %v", err)
	}
	if _, err := r.h2.TryCreateQP(RC, r.c2, r.cq2, r.cq2); !errors.Is(err, ErrQPExhausted) {
		t.Fatalf("h2 alloc 2 = %v, want injected ErrQPExhausted", err)
	}
	if got := fi.Injected().AllocFails; got != 3 {
		t.Fatalf("AllocFailsInjected = %d, want 3", got)
	}
	// Injected failures are transient, never "impossible": the upper layer
	// must retry, not abort.
	if r.h1.QPImpossible() {
		t.Fatal("injected failure reported as impossible")
	}
}
