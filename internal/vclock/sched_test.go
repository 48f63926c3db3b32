package vclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stuck reports the queue's own verdict, for white-box assertions.
func (s *Sched) stuck() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stuckLocked()
}

func (s *Sched) parkedNow() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parked
}

// TestTimersFireInDeadlineRankArmingOrder arms timers scrambled and lets the
// job go stuck once: they must fire by (VT, rank, arming order), one at a
// time, and Now must follow the deadlines.
func TestTimersFireInDeadlineRankArmingOrder(t *testing.T) {
	s := NewSched()
	s.Enter() // this test is the job's one actor
	type key struct {
		vt   int64
		rank int
		n    int
	}
	var mu sync.Mutex
	var got []key
	done := make(chan struct{})
	arm := func(vt int64, rank, n int) {
		s.After(vt, rank, func(at int64) {
			if at != vt {
				t.Errorf("timer armed for %d fired with %d", vt, at)
			}
			if now := s.Now(); now != vt {
				t.Errorf("Now() = %d while the timer for %d fires", now, vt)
			}
			mu.Lock()
			got = append(got, key{vt, rank, n})
			last := len(got) == 6
			mu.Unlock()
			if last {
				s.Unpark(1)
				close(done)
			}
		})
	}
	arm(30, 0, 0)
	arm(10, 2, 1)
	arm(10, 1, 2)
	arm(20, 5, 3)
	arm(10, 1, 4) // same deadline and rank as #2: arming order breaks the tie
	arm(20, 0, 5)
	if s.stuck() {
		t.Fatal("job called stuck while its only actor is running")
	}
	s.Park()
	<-done
	want := []key{{10, 1, 2}, {10, 1, 4}, {10, 2, 1}, {20, 0, 5}, {20, 5, 3}, {30, 0, 0}}
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order %v, want %v", got, want)
		}
	}
}

// TestStopIsExact: a stopped timer never fires and Stop says so; a fired one
// reports false.
func TestStopIsExact(t *testing.T) {
	s := NewSched()
	s.Enter()
	fired := make(chan int64, 2)
	a := s.After(10, 0, func(vt int64) { fired <- vt })
	b := s.After(20, 0, func(vt int64) { s.Unpark(1); fired <- vt })
	if !a.Stop() {
		t.Fatal("Stop on a pending timer reported false")
	}
	if a.Stop() {
		t.Fatal("second Stop on the same timer reported true")
	}
	s.Park()
	if vt := <-fired; vt != 20 {
		t.Fatalf("timer %d fired, want only the one at 20 (the one at 10 was stopped)", vt)
	}
	if b.Stop() {
		t.Fatal("Stop on a fired timer reported true")
	}
	if (*Timer)(nil).Stop() {
		t.Fatal("Stop on a nil timer reported true")
	}
}

// TestNothingFiresWhileTheJobCanMove walks the three things that keep a job
// from being stuck — a running actor, a completion in flight, nobody waiting —
// and checks the queue's verdict after each change; the timer fires only at
// the end.
func TestNothingFiresWhileTheJobCanMove(t *testing.T) {
	s := NewSched()
	fired := make(chan struct{})
	s.After(5, 0, func(int64) { s.Unpark(1); close(fired) })
	notYet := func(why string) {
		t.Helper()
		if s.stuck() {
			t.Fatalf("job called stuck although %s", why)
		}
		select {
		case <-fired:
			t.Fatalf("timer fired although %s", why)
		default:
		}
	}
	notYet("nobody is waiting for anything")
	s.Enter()
	s.Enter()
	s.Park()
	notYet("one of two actors is still running")
	s.Add(1)
	s.Park()
	notYet("a completion is in flight")
	s.Unpark(1)
	s.Done()
	notYet("an actor was woken before the completion was retired")
	s.Exit() // that actor leaves the job; the other is parked: stuck
	<-fired
}

// TestWokenWaiterCountsAsRunningBeforeWakerReturns: Broadcast marks the
// waiters running itself, so between the wake-up and the waiter actually
// being scheduled the job is not mistaken for stuck.
func TestWokenWaiterCountsAsRunningBeforeWakerReturns(t *testing.T) {
	s := NewSched()
	var mu sync.Mutex
	c := NewCond(&mu, s)
	ready := false
	s.Enter() // the waiter
	s.Enter() // this goroutine, the waker
	woke := make(chan struct{})
	go func() {
		mu.Lock()
		for !ready {
			c.Wait()
		}
		mu.Unlock()
		close(woke)
	}()
	for s.parkedNow() == 0 { // until the waiter is parked
		mu.Lock()
		mu.Unlock()
	}
	timer := s.After(1, 0, func(int64) { t.Error("timer fired across a wake-up") })
	mu.Lock()
	ready = true
	mu.Unlock()
	c.Broadcast()
	if n := s.parkedNow(); n != 0 {
		t.Fatalf("%d goroutines still counted parked after Broadcast returned", n)
	}
	s.Park() // the waker blocks at once; the woken waiter may not have run yet
	if s.stuck() {
		t.Fatal("job called stuck while a woken waiter has yet to run")
	}
	<-woke
	s.Unpark(1)
	if !timer.Stop() {
		t.Fatal("timer fired across a wake-up")
	}
}

// TestWakeReachesWaiterBetweenCheckAndWait is the job abort's wake-up: a
// waiter has read the condition (false) under L and not yet waited when the
// condition flips outside L. Wake must still reach it and leave it counted as
// running; a plain Broadcast would land in between and be lost.
func TestWakeReachesWaiterBetweenCheckAndWait(t *testing.T) {
	s := NewSched()
	var mu sync.Mutex
	c := NewCond(&mu, s)
	var flag atomic.Bool
	checked, woke := make(chan struct{}), make(chan struct{})
	s.Enter() // the waiter
	go func() {
		mu.Lock()
		if !flag.Load() {
			close(checked)
			time.Sleep(10 * time.Millisecond) // the flip and the wake-up land here
			c.Wait()
		}
		mu.Unlock()
		close(woke)
	}()
	<-checked
	flag.Store(true)
	c.Wake()
	select {
	case <-woke:
	case <-time.After(10 * time.Second):
		t.Fatal("wake-up lost: the waiter checked before the flip and waited after it")
	}
	if n := s.parkedNow(); n != 0 {
		t.Fatalf("%d goroutines still counted parked after the wake-up", n)
	}
}

// TestNilSchedIsFree: the fault-free configuration. Every method is a no-op
// on a nil queue and a Cond on it is a plain sync.Cond: no allocation, and —
// by construction, the nil check comes first — no atomic or lock.
func TestNilSchedIsFree(t *testing.T) {
	var s *Sched
	var mu sync.Mutex
	c := NewCond(&mu, s)
	allocs := testing.AllocsPerRun(100, func() {
		s.Enter()
		s.Add(1)
		s.Park()
		s.Unpark(1)
		s.Done()
		s.Exit()
		c.Broadcast()
		if s.After(1, 0, nil).Stop() || s.Now() != 0 {
			t.Fatal("nil queue armed a timer")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil queue allocates %.0f times per round of calls", allocs)
	}
	ran := make(chan struct{})
	s.Go(func() { close(ran) })
	<-ran
}
