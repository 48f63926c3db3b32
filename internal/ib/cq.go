package ib

import (
	"sync"

	"goshmem/internal/vclock"
)

// Completion is a completion-queue entry. For receive-side completions
// (Recv == true) it carries the delivered payload and the source address;
// for send-side completions it reports the outcome of a posted work request
// and, for RDMA reads and atomics, the fetched data.
type Completion struct {
	// WRID echoes SendWR.WRID for send completions; zero for receives.
	WRID uint64
	// QPN is the local queue pair the completion belongs to.
	QPN uint32
	// Src is the remote queue pair (receive completions only).
	Src Dest
	// Op is the operation that completed.
	Op Opcode
	// Recv marks target-side receive completions.
	Recv bool
	// Data holds the received payload (receives) or the fetched bytes
	// (RDMA read completions).
	Data []byte
	// Old is the previous remote value for atomic completions.
	Old uint64
	// Status reports success or failure.
	Status Status
	// VTime is the virtual time at which the completion occurred: the
	// arrival time at the target for receives, or the time the initiator
	// learned of completion (e.g. after the hardware ack) for sends.
	VTime int64
	// Imm is an immediate value carried with sends (used by upper layers
	// for framing).
	Imm uint32
}

// maxIdleCap is the most capacity a drained completion queue keeps.
const maxIdleCap = 256

// CQ is an unbounded completion queue. It is unbounded so that a slow
// consumer can never block a sender inside the fabric, which would distort
// virtual-time accounting; flow control belongs to the layers above.
type CQ struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []Completion
	head   int
	closed bool

	// On a fabric with a timer queue every completion counts as work in
	// flight from Push until its consumer comes back for the next one, so no
	// timer fires while a message is still queued or being served. The queue
	// is bound when the first queue pair is created on it (single consumer).
	sched   *vclock.Sched
	serving bool
}

// NewCQ creates an empty completion queue.
func NewCQ() *CQ {
	q := &CQ{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends a completion and wakes one waiter.
func (q *CQ) Push(c Completion) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	if q.sched != nil {
		q.sched.Add(1)
	}
	q.buf = append(q.buf, c)
	q.mu.Unlock()
	q.cond.Signal()
}

// Poll removes and returns the oldest completion without blocking. ok is
// false when the queue is empty.
func (q *CQ) Poll() (c Completion, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.takeLocked()
}

// Wait blocks until a completion is available or the queue is closed. ok is
// false only when the queue has been closed and drained.
func (q *CQ) Wait() (c Completion, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if c, ok = q.takeLocked(); ok {
			return c, true
		}
		if q.closed {
			return Completion{}, false
		}
		q.cond.Wait()
	}
}

// bind attaches the queue to the fabric's timer queue (nil: none).
func (q *CQ) bind(s *vclock.Sched) {
	if q == nil || s == nil {
		return
	}
	q.mu.Lock()
	q.sched = s
	q.mu.Unlock()
}

// Close wakes all waiters; pending completions can still be drained.
func (q *CQ) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Len reports the number of queued completions.
func (q *CQ) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf) - q.head
}

func (q *CQ) takeLocked() (Completion, bool) {
	if q.serving {
		q.serving = false
		q.sched.Done()
	}
	if q.head >= len(q.buf) {
		return Completion{}, false
	}
	q.serving = q.sched != nil
	c := q.buf[q.head]
	q.buf[q.head] = Completion{} // allow payload GC
	q.head++
	if q.head == len(q.buf) {
		// Drained. A backlog's grown array is dropped rather than kept for
		// the rest of the job; a small one is reused, so a steady
		// one-in, one-out stream allocates nothing.
		if cap(q.buf) > maxIdleCap {
			q.buf = nil
		} else {
			q.buf = q.buf[:0]
		}
		q.head = 0
	} else if q.head > 4096 && q.head*2 > len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return c, true
}
