package vclock

import (
	"container/heap"
	"sync"
	"sync/atomic"
)

// Sched is a job's one clock for everything that waits on virtual time:
// retransmission timeouts, failure-detector ticks, back-offs. Timers wait in
// a min-heap ordered by (deadline, rank, arming order), and the head fires
// only when the job is stuck — nothing else could make progress:
//
//   - no completion is queued or being served on any completion queue,
//   - every goroutine that registered as an actor (Enter, Go) is parked in a
//     wait the queue can see (Park, Cond.Wait), and
//   - at least one goroutine is so parked: somebody is waiting for something.
//
// That is the discrete-event jump: virtual time passes a silence only when
// the silence is conclusive, so a timeout never measures how fast the host
// ran. Timers fire one at a time, on the queue's own goroutine, which counts
// as activity while a callback runs; callbacks must not park.
//
// Goroutines that never registered (unit tests, benchmarks driving a conduit
// directly) are tolerated: they are invisible while they run and counted
// while they are parked, so the queue may call a job stuck a little early
// there — a spurious retransmission, never a missed one.
//
// A nil *Sched is the fault-free configuration: every method is a no-op that
// touches no memory, so a lossless, unbudgeted run pays one nil check per
// blocking wait and nothing per operation.
type Sched struct {
	mu       sync.Mutex
	wake     sync.Cond // the firing goroutine sleeps here until the job is stuck
	timers   timerHeap
	seq      uint64
	now      int64 // latest deadline fired: the job's virtual-time frontier
	inflight int   // completions queued or being served, plus a firing callback
	actors   int   // registered goroutines alive
	parked   int   // goroutines blocked in a wait the queue can see
	running  bool  // the firing goroutine exists
}

// NewSched returns an empty queue. Its firing goroutine starts with the first
// timer and exits when the last one has fired or been stopped.
func NewSched() *Sched {
	s := &Sched{}
	s.wake.L = &s.mu
	return s
}

// Timer is one armed deadline.
type Timer struct {
	s    *Sched
	vt   int64
	rank int
	seq  uint64
	idx  int // heap position, -1 once fired or stopped
	f    func(vt int64)
}

type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.vt != b.vt {
		return a.vt < b.vt
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i]; h[i].idx, h[j].idx = i, j }
func (h *timerHeap) Push(x any)   { t := x.(*Timer); t.idx = len(*h); *h = append(*h, t) }
func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	t.idx = -1
	return t
}

// After arms f to run at virtual time vt on behalf of rank (the tie-break
// between equal deadlines). It returns nil on a nil queue.
func (s *Sched) After(vt int64, rank int, f func(vt int64)) *Timer {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.seq++
	t := &Timer{s: s, vt: vt, rank: rank, seq: s.seq, f: f}
	heap.Push(&s.timers, t)
	if !s.running {
		s.running = true
		go s.run()
	} else {
		s.wake.Signal()
	}
	s.mu.Unlock()
	return t
}

// Stop disarms the timer and reports whether it did: false means the timer
// already fired (or is firing), was stopped before, or is nil.
func (t *Timer) Stop() bool {
	if t == nil {
		return false
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.idx < 0 {
		return false
	}
	heap.Remove(&t.s.timers, t.idx)
	t.s.wake.Signal() // an empty heap retires the firing goroutine
	return true
}

// Now returns the latest deadline fired: how far the queue has carried the
// job's virtual time past its silences.
func (s *Sched) Now() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

func (s *Sched) stuckLocked() bool {
	return s.inflight == 0 && s.parked > 0 && s.parked >= s.actors
}

// run fires timers, one at a time, whenever the job is stuck.
func (s *Sched) run() {
	s.mu.Lock()
	for len(s.timers) > 0 {
		if !s.stuckLocked() {
			s.wake.Wait()
			continue
		}
		t := heap.Pop(&s.timers).(*Timer)
		if t.vt > s.now {
			s.now = t.vt
		}
		s.inflight++
		s.mu.Unlock()
		t.f(t.vt)
		s.mu.Lock()
		s.inflight--
	}
	s.running = false
	s.mu.Unlock()
}

// adjust applies the deltas and wakes the firing goroutine if the job may
// have just become stuck. It is the whole of every method below, and the one
// nil check that makes them free on a fabric without a queue.
func (s *Sched) adjust(inflight, actors, parked int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.inflight += inflight
	s.actors += actors
	s.parked += parked
	if s.running && s.stuckLocked() {
		s.wake.Signal()
	}
	s.mu.Unlock()
}

// Enter registers the calling goroutine as an actor — one whose running means
// the job is not stuck. Exit retires it.
func (s *Sched) Enter() { s.adjust(0, 1, 0) }
func (s *Sched) Exit()  { s.adjust(0, -1, 0) }

// Go runs f on a new goroutine registered as an actor from before it starts
// until it returns.
func (s *Sched) Go(f func()) {
	s.adjust(0, 1, 0)
	go func() {
		defer s.adjust(0, -1, 0)
		f()
	}()
}

// Add counts n completions (or other units of work that will be served
// without any timer's help) as in flight; Done retires one.
func (s *Sched) Add(n int) { s.adjust(n, 0, 0) }
func (s *Sched) Done()     { s.adjust(-1, 0, 0) }

// Park marks the caller blocked, just before it blocks. Whoever wakes it
// calls Unpark first, so the woken goroutine counts as running again before
// its waker moves on and the job is never mistaken for stuck in between.
func (s *Sched) Park()        { s.adjust(0, 0, 1) }
func (s *Sched) Unpark(n int) { s.adjust(0, 0, -n) }

// Cond is a sync.Cond whose waiters the queue can see. With a nil queue it is
// exactly a sync.Cond.
type Cond struct {
	c sync.Cond
	s *Sched
	n atomic.Int32 // parked waiters nobody has unparked yet
}

// NewCond returns a condition variable on l whose waiters count as parked in
// s (nil: plain sync.Cond behaviour).
func NewCond(l sync.Locker, s *Sched) *Cond {
	c := &Cond{s: s}
	c.c.L = l
	return c
}

// Wait is sync.Cond.Wait: call with L held, re-check the condition on return.
func (c *Cond) Wait() {
	if c.s != nil {
		c.n.Add(1)
		c.s.Park()
	}
	c.c.Wait()
}

// Wake is Broadcast for a condition that changed outside L, such as the job's
// abort (an atomic), which waiters read under L before they wait. Taking L
// first means each of them is already waiting: a plain Broadcast could land
// between a waiter's check and its wait, leaving it asleep for good while
// counted as running. Call without L held.
func (c *Cond) Wake() {
	c.c.L.Lock()
	c.c.L.Unlock()
	c.Broadcast()
}

// Broadcast wakes every waiter, counting them as running first.
func (c *Cond) Broadcast() {
	if c.s != nil && c.n.Load() != 0 {
		c.s.Unpark(int(c.n.Swap(0)))
	}
	c.c.Broadcast()
}
