package pmi

import (
	"fmt"
	"sync"

	"goshmem/internal/obs"
	"goshmem/internal/vclock"
)

// AllgatherOp is an outstanding PMIX_Iallgather. The initiating call returns
// immediately after charging only the launch cost; the exchange completes in
// background virtual time, so a PE that performs enough independent work
// (memory registration, segment setup, application compute) before calling
// Wait observes no additional critical-path cost — the overlap effect the
// paper exploits in section IV-D.
type AllgatherOp struct {
	mu      sync.Mutex
	cond    *vclock.Cond
	n       int
	vals    []string
	got     int
	maxT    int64 // max contribution virtual time
	bytes   int
	cost    int64 // filled when complete
	doneAt  int64
	done    bool
	aborted bool
	lost    bool // exchange failed (server crash / launch exhaustion)
	lostErr error
}

// abort releases every waiter; Wait then returns nil instead of values.
func (op *AllgatherOp) abort() {
	op.mu.Lock()
	op.aborted = true
	op.cond.Broadcast()
	op.mu.Unlock()
}

// fail marks the exchange lost and releases every waiter. The lost state is
// sticky and mutually exclusive with done: either every participant sees the
// gathered values, or every participant sees the same failure — so all of
// them take the same (fallback) branch and no subset diverges. Completed or
// aborted rounds are left untouched.
func (op *AllgatherOp) fail(err error) {
	op.mu.Lock()
	if !op.done && !op.aborted && !op.lost {
		op.lost = true
		op.lostErr = err
		op.cond.Broadcast()
	}
	op.mu.Unlock()
}

// IAllgather contributes this process's value to the job-wide allgather and
// returns the operation handle without blocking. Successive calls by the
// same set of processes form successive rounds; all processes must call the
// same sequence of rounds.
func (c *Client) IAllgather(value string) *AllgatherOp {
	c.clk.Advance(c.s.model.PMINonBlockingLaunch)
	c.obs.Emit(c.clk.Now(), obs.LayerPMI, "iallgather-launch", -1, int64(len(value)))
	launchErr := c.withRetry("iallgather", "")
	c.s.mu.Lock()
	seq := c.agSeq
	c.agSeq++
	op := c.s.ag[seq]
	if op == nil {
		op = &AllgatherOp{n: c.s.n, vals: make([]string, c.s.n)}
		op.cond = vclock.NewCond(&op.mu, c.s.sched)
		if c.s.abort != nil {
			op.aborted = true
		}
		c.s.ag[seq] = op
	}
	c.s.mu.Unlock()
	if launchErr != nil {
		// This participant could not hand its fragment to the launcher, so
		// the collective can complete for no one: fail the SHARED op. Every
		// other participant observes the same lost state via WaitErr and
		// takes the same fallback path.
		op.fail(fmt.Errorf("%w: %v", ErrExchangeLost, launchErr))
		return op
	}

	op.mu.Lock()
	if op.lost {
		// The round already failed (crash, or another participant's launch
		// exhausted its retries): a late contribution cannot revive it.
		op.mu.Unlock()
		return op
	}
	op.vals[c.rank] = value
	op.got++
	op.bytes += len(value)
	if t := c.clk.Now(); t > op.maxT {
		op.maxT = t
	}
	if op.got == op.n {
		// The exchange "runs" from the last contribution; its background
		// completion time models the PM's symmetric distribution.
		perProc := op.bytes / op.n
		op.doneAt = op.maxT + c.s.model.AllgatherCost(op.n, perProc)
		op.done = true
		op.cond.Broadcast()
	}
	op.mu.Unlock()
	return op
}

// Wait blocks until the allgather has completed (PMIX_Wait), advances the
// caller's clock to the completion time, and returns the gathered values
// indexed by rank. Wait may be called by every participant. If the job is
// aborted — or the exchange is lost to an injected fault — before it
// completes, Wait returns nil; WaitErr additionally says why.
func (op *AllgatherOp) Wait(c *Client) []string {
	vals, _ := op.WaitErr(c)
	return vals
}

// WaitErr is Wait with a typed failure: it returns the gathered values, or
// nil plus ErrExchangeLost (the server crashed mid-exchange or a launch
// exhausted its retries — the caller should fall back to Put-Fence-Get) or
// ErrAborted (the job is going down).
func (op *AllgatherOp) WaitErr(c *Client) ([]string, error) {
	start := c.clk.Now()
	op.mu.Lock()
	for !op.done && !op.aborted && !op.lost {
		op.cond.Wait()
	}
	if !op.done {
		lost, lostErr := op.lost, op.lostErr
		op.mu.Unlock()
		if lost {
			return nil, lostErr
		}
		return nil, ErrAborted
	}
	vals, doneAt := op.vals, op.doneAt
	op.mu.Unlock()
	c.clk.AdvanceTo(doneAt)
	end := c.clk.Now()
	c.obs.Span(start, end, obs.LayerPMI, "iallgather-wait", -1, 0)
	c.obs.Observe("pmi.allgather_wait_ns", end-start)
	return vals, nil
}

// Done reports (without blocking) whether the exchange has completed in
// real execution; it does not advance the clock.
func (op *AllgatherOp) Done() bool {
	op.mu.Lock()
	defer op.mu.Unlock()
	return op.done
}

// ringOp collects the n ring contributions.
type ringOp struct {
	mu      sync.Mutex
	cond    *vclock.Cond
	n       int
	vals    []string
	got     int
	maxT    int64
	done    bool
	aborted bool
}

// abort releases every ring waiter; Ring then returns empty neighbours.
func (op *ringOp) abort() {
	op.mu.Lock()
	op.aborted = true
	op.cond.Broadcast()
	op.mu.Unlock()
}

// Ring performs the PMIX_Ring exchange: it blocks until all processes have
// contributed and returns only the left and right neighbours' values
// ((rank-1+n)%n and (rank+1)%n). Its cost is constant per process plus one
// tree hop, independent of N — the scalable startup primitive from the
// authors' EuroMPI'14 paper, included for completeness.
func (c *Client) Ring(value string) (left, right string) {
	c.s.mu.Lock()
	seq := c.ringSeq
	c.ringSeq++
	op := c.s.ring[seq]
	if op == nil {
		op = &ringOp{n: c.s.n, vals: make([]string, c.s.n)}
		op.cond = vclock.NewCond(&op.mu, c.s.sched)
		c.s.ring[seq] = op
	}
	c.s.mu.Unlock()

	op.mu.Lock()
	op.vals[c.rank] = value
	op.got++
	if t := c.clk.Now(); t > op.maxT {
		op.maxT = t
	}
	if op.got == op.n {
		op.done = true
		op.cond.Broadcast()
	}
	for !op.done && !op.aborted {
		op.cond.Wait()
	}
	if !op.done {
		op.mu.Unlock()
		return "", ""
	}
	l := op.vals[(c.rank-1+op.n)%op.n]
	r := op.vals[(c.rank+1)%op.n]
	release := op.maxT + c.s.model.PMIFenceHop + c.s.model.PMIPut
	op.mu.Unlock()
	c.clk.AdvanceTo(release)
	return l, r
}
