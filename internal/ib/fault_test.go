package ib

import (
	"errors"
	"testing"

	"goshmem/internal/vclock"
)

// TestReorderBoundedWindow checks the reordering contract: a held datagram is
// overtaken by later traffic but delivered after at most ReorderWindow
// subsequent sends — the bounded delay the injector documents.
func TestReorderBoundedWindow(t *testing.T) {
	const window = 3
	fi := NewFaultInjector(7)
	fi.ReorderProb = 1.0
	fi.MaxReorders = 1
	fi.ReorderWindow = window
	r := newRig(t, fi)
	u1, u2 := udPair(t, r)

	// Datagram 0 is held; datagrams 1..window age the reorder window and must
	// all be enough to flush it.
	for i := 0; i <= window; i++ {
		if err := u1.PostSend(SendWR{Op: OpSend, Dest: u2.Addr(), Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if fi.Injected().Reorders != 1 {
		t.Fatalf("reorders = %d, want 1", fi.Injected().Reorders)
	}
	var order []byte
	for i := 0; i <= window; i++ {
		c, ok := r.cq2.Wait()
		if !ok {
			t.Fatal("cq closed")
		}
		order = append(order, c.Data[0])
	}
	if order[0] == 0 {
		t.Fatalf("held datagram was not overtaken: order %v", order)
	}
	seen := false
	for _, b := range order {
		seen = seen || b == 0
	}
	if !seen {
		t.Fatalf("held datagram lost within its window: order %v", order)
	}
}

// TestReleaseHeldFlushesWindow checks that a held datagram with no subsequent
// traffic is still deliverable via ReleaseHeld (teardown/test escape hatch).
func TestReleaseHeldFlushesWindow(t *testing.T) {
	fi := NewFaultInjector(11)
	fi.ReorderProb = 1.0
	fi.MaxReorders = 1
	r := newRig(t, fi)
	u1, u2 := udPair(t, r)
	if err := u1.PostSend(SendWR{Op: OpSend, Dest: u2.Addr(), Data: []byte("late")}); err != nil {
		t.Fatal(err)
	}
	if n := r.cq2.Len(); n != 0 {
		t.Fatalf("datagram delivered despite hold: %d completions", n)
	}
	fi.ReleaseHeld()
	c, ok := r.cq2.Wait()
	if !ok || string(c.Data) != "late" {
		t.Fatalf("held datagram not released: %+v", c)
	}
}

// TestRCFlapErrorsBothEndpoints checks the link-flap contract: the sender sees
// a synchronous ErrLinkDown, both queue pairs land in the Error state, no
// completion is generated, and the adapters' live-RC accounting returns to
// zero exactly once even after the errored QPs are destroyed.
func TestRCFlapErrorsBothEndpoints(t *testing.T) {
	fi := NewFaultInjector(3)
	fi.FlapProb = 1.0
	fi.MaxFlaps = 1
	r := newRig(t, fi)
	q1, q2 := r.connectRC(t)
	if got := r.h1.LiveRC() + r.h2.LiveRC(); got != 2 {
		t.Fatalf("live RC before flap = %d, want 2", got)
	}

	err := q1.PostSend(SendWR{Op: OpSend, Data: []byte("x"), WRID: 9})
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("flapped send: %v, want ErrLinkDown", err)
	}
	if q1.State() != StateError || q2.State() != StateError {
		t.Fatalf("states after flap = %v/%v, want Error/Error", q1.State(), q2.State())
	}
	if n := r.cq1.Len() + r.cq2.Len(); n != 0 {
		t.Fatalf("completions after synchronous flap = %d, want 0", n)
	}
	if got := r.h1.LiveRC() + r.h2.LiveRC(); got != 0 {
		t.Fatalf("live RC after flap = %d, want 0", got)
	}
	if fi.Injected().Flaps != 1 {
		t.Fatalf("flaps = %d, want 1", fi.Injected().Flaps)
	}

	// MaxFlaps exhausted: the next post fails on the dead QP, not a new flap.
	if err := q1.PostSend(SendWR{Op: OpSend, Data: []byte("y")}); !errors.Is(err, ErrBadState) {
		t.Fatalf("post on errored QP: %v, want ErrBadState", err)
	}
	// Destroying errored QPs must not double-decrement the live counter.
	q1.Destroy()
	q2.Destroy()
	if got := r.h1.LiveRC() + r.h2.LiveRC(); got != 0 {
		t.Fatalf("live RC after destroy = %d, want 0", got)
	}
}

// TestSlowdownInjectionChargesClock checks PE slowdown injection: the caller's
// virtual clock pays SlowTime on top of the normal operation cost.
func TestSlowdownInjectionChargesClock(t *testing.T) {
	const slow = int64(5_000_000)
	run := func(fi *FaultInjector) int64 {
		f := NewFabric(vclock.Default(), fi)
		h1, h2 := f.AddHCA(), f.AddHCA()
		c1, c2 := vclock.NewClock(0), vclock.NewClock(0)
		cq1, cq2 := NewCQ(), NewCQ()
		q1 := h1.CreateQP(RC, c1, cq1, cq1)
		q2 := h2.CreateQP(RC, c2, cq2, cq2)
		for _, s := range []struct {
			q *QP
			r Dest
		}{{q1, q2.Addr()}, {q2, q1.Addr()}} {
			if s.q.ToInit() != nil || s.q.ToRTR(s.r) != nil || s.q.ToRTS() != nil {
				t.Fatal("qp setup failed")
			}
		}
		before := c1.Now()
		if err := q1.PostSend(SendWR{Op: OpSend, Data: []byte("x"), NoSendCompletion: true}); err != nil {
			t.Fatal(err)
		}
		return c1.Now() - before
	}
	base := run(nil)
	fi := NewFaultInjector(5)
	fi.SlowProb = 1.0
	fi.SlowTime = slow
	slowed := run(fi)
	if slowed != base+slow {
		t.Fatalf("slowdown charge = %d, want %d (+%d over %d)", slowed, base+slow, slow, base)
	}
	if fi.Injected().Slowdowns != 1 {
		t.Fatalf("slowdowns = %d, want 1", fi.Injected().Slowdowns)
	}
}

// TestUDFilterOverridesProbabilisticFate checks that a UDFilter verdict wins
// over the probability knobs in both directions.
func TestUDFilterOverridesProbabilisticFate(t *testing.T) {
	fi := NewFaultInjector(1)
	fi.DropProb = 1.0 // everything the filter does not protect is dropped
	fi.UDFilter = func(payload []byte) UDVerdict {
		switch string(payload) {
		case "keep":
			return VerdictDeliver
		case "lose":
			return VerdictDrop
		}
		return VerdictDefault
	}
	r := newRig(t, fi)
	u1, u2 := udPair(t, r)
	for _, msg := range []string{"lose", "other", "keep"} {
		if err := u1.PostSend(SendWR{Op: OpSend, Dest: u2.Addr(), Data: []byte(msg)}); err != nil {
			t.Fatal(err)
		}
	}
	c, ok := r.cq2.Wait()
	if !ok || string(c.Data) != "keep" {
		t.Fatalf("filtered delivery = %+v, want only %q", c, "keep")
	}
	if n := r.cq2.Len(); n != 0 {
		t.Fatalf("unexpected extra deliveries: %d", n)
	}
	if fi.Injected().Drops != 2 {
		t.Fatalf("drops = %d, want 2", fi.Injected().Drops)
	}
}

// TestInjectorDeterministicForSeed checks that two injectors with the same
// seed make identical decisions for the same call sequence — the property the
// chaos soak's printed seed relies on.
func TestInjectorDeterministicForSeed(t *testing.T) {
	decisions := func(seed int64) []bool {
		fi := NewFaultInjector(seed)
		fi.DropProb = 0.3
		fi.DupProb = 0.2
		fi.ReorderProb = 0.2
		fi.FlapProb = 0.25
		var out []bool
		for i := 0; i < 200; i++ {
			v := fi.admitUD(1, 2, 1, 0, []byte{byte(i)})
			out = append(out, v.kind == kindDrop, v.kind == kindDup, v.kind == kindReorder, fi.admitRC(1, 2, 0, 0).refused == kindFlap)
		}
		fi.ReleaseHeld()
		return out
	}
	a, b := decisions(42), decisions(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged for identical seeds", i)
		}
	}
	diff := decisions(43)
	same := true
	for i := range a {
		if a[i] != diff[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical decision streams (suspicious)")
	}
}
