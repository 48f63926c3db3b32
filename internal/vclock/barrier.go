package vclock

import "sync"

// VBarrier is a reusable virtual-time barrier across a fixed number of
// participants. Each participant arrives with its own clock; when the last
// one arrives, everyone is released at
//
//	max(arrival virtual times) + max(extras)
//
// where extra is the modeled cost of the synchronization itself, as each
// participant saw it: both maxima are commutative, so the release time does
// not depend on the order the host ran the arrivals in. VBarrier is the
// building block for PMI Fence and for the conduit's intra-node barrier.
type VBarrier struct {
	mu      sync.Mutex
	cond    *Cond
	n       int
	count   int
	gen     int
	maxT    int64 // latest arrival and largest extra of the generation in progress
	maxX    int64
	release [2]int64 // indexed by generation parity
	aborted bool
}

// NewVBarrier returns a barrier for n participants.
func NewVBarrier(n int) *VBarrier {
	b := &VBarrier{n: n}
	b.cond = NewCond(&b.mu, nil)
	return b
}

// SetSched makes the barrier's waiters visible to the job's timer queue.
// Call it at setup, before any participant arrives.
func (b *VBarrier) SetSched(s *Sched) { b.cond.s = s }

// N returns the number of participants.
func (b *VBarrier) N() int { return b.n }

// Wait blocks until all n participants have arrived, then advances clk to the
// common release time max(arrivals)+max(extras) and returns that time.
//
// A participant of generation g cannot re-enter generation g+2 before every
// waiter of generation g has returned (it is itself one of the n), so the
// two-slot release buffer is race-free.
func (b *VBarrier) Wait(clk *Clock, extra int64) int64 {
	b.mu.Lock()
	if b.aborted {
		b.mu.Unlock()
		return clk.Now()
	}
	gen := b.gen
	b.maxT, b.maxX = max(b.maxT, clk.Now()), max(b.maxX, extra)
	b.count++
	if b.count == b.n {
		r := b.maxT + b.maxX
		b.release[gen&1] = r
		b.count, b.maxT, b.maxX = 0, 0, 0 // the next generation's maxima start over
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		clk.AdvanceTo(r)
		return r
	}
	for gen == b.gen && !b.aborted {
		b.cond.Wait()
	}
	if b.aborted {
		b.mu.Unlock()
		return clk.Now()
	}
	r := b.release[gen&1]
	b.mu.Unlock()
	clk.AdvanceTo(r)
	return r
}

// Abort permanently releases every current and future waiter without
// synchronizing or advancing clocks. The job-abort path uses it so PEs
// blocked in a barrier a dead peer will never reach can terminate.
func (b *VBarrier) Abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Aborted reports whether the barrier has been aborted.
func (b *VBarrier) Aborted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.aborted
}
