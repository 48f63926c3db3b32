package gasnet

import (
	"fmt"
	"sync"

	"goshmem/internal/ib"
	"goshmem/internal/vclock"
)

// The completion table: what this PE has in flight that somebody waits for.
// begin makes an entry for every work request whose completion releases
// something, and the entry's position and generation are the request's WRID —
// so a completion finds its entry without a map, and one for a request that
// is finished already finds nothing. complete is the one place a request
// finishes, for a completion off the queue and for a request that failed on
// its way to the wire alike (a blocked issuer then collects the outcome, and
// its slot, in await). One mutex guards the entries and Quiet's accounting;
// lock order is connMu before it, never the reverse.

// pendingOp is one entry: what completing its work request releases.
type pendingOp struct {
	hold    bool   // a Quiet hold (Put, GetNBI, fenced AM)
	blocked bool   // an issuer parked in await (Get, atomics)
	buf     []byte // an RDMA read's destination (Get, GetNBI)

	gen uint32 // the WRID's upper half; releasing the slot moves it on
	// The outcome a blocked issuer is woken with.
	done bool
	vt   int64
	old  uint64
	err  error
}

type completions struct {
	mu      sync.Mutex
	cond    *vclock.Cond // Quiet and blocked issuers wait here
	ops     []pendingOp
	free    []uint32 // released slots of ops
	holds   int      // live entries with hold set
	unacked int      // framed sends retained but not yet cumulatively ACKed
	lastVT  int64    // latest completion of a held operation: where Quiet leaves the clock
	// onAbort are the upper layers' own blocked waits: callbacks that wake
	// them, run once when the job aborts (Conduit.OnAbort).
	onAbort []func(error)
}

// add enters op and returns the WRID that names it (never zero).
func (t *completions) add(op pendingOp) uint64 {
	t.mu.Lock()
	var i uint32
	if n := len(t.free); n > 0 {
		i, t.free = t.free[n-1], t.free[:n-1]
	} else {
		i = uint32(len(t.ops))
		t.ops = append(t.ops, pendingOp{})
	}
	op.gen = t.ops[i].gen
	t.ops[i] = op
	if op.hold {
		t.holds++
	}
	t.mu.Unlock()
	return uint64(op.gen)<<32 | uint64(i+1)
}

// releaseLocked frees slot i for the next request, dropping what it
// referenced; the WRID that named it names nothing from here on.
func (t *completions) releaseLocked(i uint32) {
	t.ops[i] = pendingOp{gen: t.ops[i].gen + 1}
	t.free = append(t.free, i)
}

// complete finishes work request wrid with comp — or with err, at comp.VTime,
// when it will never reach the wire: its peer died, or the post was refused
// for good (by the issuer's own call or when its turn in the queue came).
// Fetched bytes land in the entry's buffer, its Quiet hold is dropped, its
// blocked issuer is handed the outcome. A WRID that names no entry (an
// unsignaled send; an issuer that stopped waiting when the job aborted)
// releases nothing.
func (c *Conduit) complete(wrid uint64, comp ib.Completion, err error) {
	t := &c.done
	i := uint32(wrid) - 1
	t.mu.Lock()
	if uint64(i) >= uint64(len(t.ops)) || t.ops[i].gen != uint32(wrid>>32) {
		t.mu.Unlock()
		return
	}
	op := &t.ops[i]
	if err == nil && comp.Status != ib.StatusOK {
		err = fmt.Errorf("gasnet: remote operation failed: %v", comp.Status)
	}
	if err == nil {
		copy(op.buf, comp.Data)
	}
	if op.hold {
		t.holds--
		t.lastVT = max(t.lastVT, comp.VTime)
	}
	if op.blocked {
		op.done, op.vt, op.old, op.err = true, comp.VTime, comp.Old, err
	} else {
		t.releaseLocked(i)
	}
	t.mu.Unlock()
	t.cond.Broadcast()
}

// await blocks until the blocked entry wrid names completes, advances the PE
// clock to the completion and returns its outcome (old is an atomic's fetched
// value). Only await releases a blocked entry, so it is there.
func (c *Conduit) await(wrid uint64) (old uint64, err error) {
	t := &c.done
	i := uint32(wrid) - 1
	t.mu.Lock()
	for !t.ops[i].done {
		if err := c.Err(); err != nil {
			// The job aborted while we were blocked; the completion may never
			// arrive (the peer is dead or the fabric is being torn down).
			t.releaseLocked(i)
			t.mu.Unlock()
			return 0, err
		}
		t.cond.Wait()
	}
	vt, old, err := t.ops[i].vt, t.ops[i].old, t.ops[i].err
	t.releaseLocked(i)
	t.mu.Unlock()
	c.clk.AdvanceTo(vt)
	return old, err
}
