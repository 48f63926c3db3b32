// Package pmi simulates the Process Management Interface: the out-of-band
// (TCP, through the job launcher) channel HPC middlewares use to bootstrap
// in-band communication. It provides the PMI2 core operations — a global
// key-value store with Put/Get and a synchronizing Fence — plus the
// extensions the paper builds on:
//
//   - PMIX_Iallgather: a non-blocking allgather that fuses the common
//     Put-Fence-Get sequence into one symmetric exchange (Chakraborty et al.,
//     EuroMPI'14 / CCGrid'15);
//   - PMIX_Wait (AllgatherOp.Wait here): completion of outstanding
//     non-blocking operations;
//   - PMIX_Ring: exchanges values with the left/right neighbours only.
//
// The server is an in-process object; costs are charged in virtual time from
// the shared CostModel, with the cost of blocking operations paid on the
// calling PE's critical path while non-blocking operations complete in
// background virtual time and can be overlapped with other work.
package pmi

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"goshmem/internal/obs"
	"goshmem/internal/vclock"
)

// Server is the process manager's PMI endpoint for one job.
type Server struct {
	n       int
	model   *vclock.CostModel
	clients atomic.Int64 // handed out by Client (the census counts them)

	mu     sync.Mutex
	kvs    map[string]string
	bytes  int // total bytes Put since the last fence epoch; sizes fence cost
	fenced int // clients inside Fence this epoch; the n-th closes it

	// unfenced tracks keys published since the last completed Fence — the
	// epoch an injected server crash discards. lost remembers keys that were
	// discarded that way, so Lookup can tell "never published" from "lost to
	// fault" (PMI2 offers no such distinction; the simulator does, for
	// debuggability of injected-fault runs).
	unfenced map[string]struct{}
	lost     map[string]struct{}

	fence *vclock.VBarrier

	ag     map[int]*AllgatherOp // allgather round -> op
	ring   map[int]*ringOp
	closed bool

	faults *FaultInjector
	sched  *vclock.Sched // the job's timer queue (nil: none); sees who is blocked here

	abort *AbortNotice
	subs  []func(AbortNotice) // OnAbort callbacks not yet run; RaiseAbort takes them
}

// AbortNotice describes a job abort raised through the PMI control channel —
// the out-of-band path a launcher uses to tear down a job whose in-band
// fabric can no longer be trusted (a peer died, a watchdog fired).
type AbortNotice struct {
	Origin int // rank that raised the abort (-1: the launcher/watchdog)
	Dead   int // rank confirmed dead, -1 when the abort is not a PE failure
	Code   int // suggested exit code for surviving PEs
	Reason string
}

// NewServer creates a PMI server for a job of n processes.
func NewServer(n int, model *vclock.CostModel) *Server {
	if model == nil {
		model = vclock.Default()
	}
	return &Server{
		n:        n,
		model:    model,
		kvs:      make(map[string]string),
		unfenced: make(map[string]struct{}),
		lost:     make(map[string]struct{}),
		fence:    vclock.NewVBarrier(n),
		ag:       make(map[int]*AllgatherOp),
		ring:     make(map[int]*ringOp),
	}
}

// NProcs returns the job size.
func (s *Server) NProcs() int { return s.n }

// SetFaults installs the control-plane fault injector. Call before the job
// starts; a nil injector (the default) keeps the server perfectly reliable.
// The abort channel (RaiseAbort/OnAbort) is deliberately NOT fault-injected:
// the launcher's kill path is assumed reliable even when its KVS service
// degrades, which keeps abort semantics simple and bounded.
func (s *Server) SetFaults(fi *FaultInjector) { s.faults = fi }

// SetSched makes PEs blocked in a fence, allgather or ring visible to the
// job's timer queue. Call before the job starts; nil (the default) is the
// fault-free configuration.
func (s *Server) SetSched(q *vclock.Sched) {
	s.sched = q
	s.fence.SetSched(q)
}

// Faults returns the installed control-plane fault injector (nil if none).
func (s *Server) Faults() *FaultInjector { return s.faults }

// Client returns the PMI client handle for the given rank. clk is the PE's
// virtual clock; all blocking PMI costs are charged to it.
func (s *Server) Client(rank int, clk *vclock.Clock) *Client {
	if rank < 0 || rank >= s.n {
		panic(fmt.Sprintf("pmi: rank %d out of range [0,%d)", rank, s.n))
	}
	s.clients.Add(1)
	return &Client{s: s, rank: rank, clk: clk, retry: RetryConfig{}.withDefaults()}
}

// Client is one process's connection to the PMI server.
type Client struct {
	s       *Server
	rank    int
	clk     *vclock.Clock
	obs     *obs.PE
	agSeq   int
	ringSeq int

	retry    RetryConfig
	retries  atomic.Int64 // transient-failure retries performed
	timeouts atomic.Int64 // ops that failed permanently (budget exhausted)
}

// SetObs binds the PE's observability recorder; PMI operations then emit
// pmi-layer spans and feed the pmi.* latency histograms.
func (c *Client) SetObs(rec *obs.PE) { c.obs = rec }

// Rank returns the client's process rank.
func (c *Client) Rank() int { return c.rank }

// Put publishes a key-value pair. Visibility to other processes is only
// guaranteed after a Fence (PMI2 semantics). Under an injected fault plane
// the op is retried with virtual backoff; a non-nil return means the control
// plane is permanently unreachable (the error wraps ErrTimeout).
func (c *Client) Put(key, value string) error {
	c.clk.Advance(c.s.model.PMIPut)
	if err := c.withRetry("put", key); err != nil {
		return err
	}
	c.s.mu.Lock()
	c.s.kvs[key] = value
	c.s.bytes += len(key) + len(value)
	c.s.unfenced[key] = struct{}{}
	delete(c.s.lost, key) // re-publishing resurrects a crash-lost key
	c.s.mu.Unlock()
	return nil
}

// Get retrieves a value from the global KVS. It reports only presence; use
// Lookup when the caller needs to distinguish why a key is missing.
func (c *Client) Get(key string) (string, bool) {
	v, err := c.Lookup(key)
	return v, err == nil
}

// Lookup retrieves a value from the global KVS, returning a typed error on
// a miss: ErrNeverPublished for a key no process ever Put, ErrLostToFault
// for one that was published but discarded (un-fenced) by an injected
// server crash, or an *OpError (wrapping ErrTimeout) when the server itself
// is unreachable.
func (c *Client) Lookup(key string) (string, error) {
	c.clk.Advance(c.s.model.PMIGet)
	if err := c.withRetry("get", key); err != nil {
		return "", err
	}
	c.s.mu.Lock()
	v, ok := c.s.kvs[key]
	_, wasLost := c.s.lost[key]
	c.s.mu.Unlock()
	switch {
	case ok:
		return v, nil
	case wasLost:
		return "", fmt.Errorf("%w: %q", ErrLostToFault, key)
	default:
		return "", fmt.Errorf("%w: %q", ErrNeverPublished, key)
	}
}

// Fence is the blocking synchronizing collective: it blocks until every
// process in the job has called it, and all Puts before the Fence are
// visible to all Gets after it. Its virtual cost models the process
// manager's tree-based all-to-all KVS distribution and grows with both the
// job size and the amount of data published this epoch — the scalability
// problem the paper's Figure 1 attributes to "PMI Exchange".
//
// A non-nil return means the fence could not complete: the server is
// permanently unreachable (error wraps ErrTimeout) or the job was aborted
// while blocked in the barrier (error wraps ErrAborted).
func (c *Client) Fence() error {
	start := c.clk.Now()
	if err := c.withRetry("fence", ""); err != nil {
		return err
	}
	c.s.mu.Lock()
	perProc := c.s.bytes / c.s.n
	if c.s.fenced++; c.s.fenced == c.s.n {
		// The last to arrive sees the whole epoch — its cost is the one the
		// barrier releases on — and closes it here, before the barrier can
		// release anybody: a Put for the next epoch is never wiped by a slower
		// client's reset. Everything published this epoch is now durable: an
		// injected server crash can no longer discard it.
		c.s.fenced, c.s.bytes = 0, 0
		clear(c.s.unfenced)
	}
	c.s.mu.Unlock()
	c.s.fence.Wait(c.clk, c.s.model.FenceCost(c.s.n, perProc))
	if _, aborted := c.s.Aborted(); aborted {
		return fmt.Errorf("%w: fence released by abort", ErrAborted)
	}
	end := c.clk.Now()
	c.obs.Span(start, end, obs.LayerPMI, "fence", -1, 0)
	c.obs.Observe("pmi.fence_ns", end-start)
	return nil
}

// RaiseAbort records a job abort, releases every blocked PMI operation — the
// fence barrier and all outstanding allgather/ring waiters return
// immediately — and then runs every OnAbort callback once, outside the
// server's lock. The first notice wins; later ones are dropped.
func (s *Server) RaiseAbort(n AbortNotice) {
	s.mu.Lock()
	if s.abort != nil {
		s.mu.Unlock()
		return
	}
	s.abort = &n
	subs := s.subs
	s.subs = nil
	ags := make([]*AllgatherOp, 0, len(s.ag))
	for _, op := range s.ag {
		ags = append(ags, op)
	}
	rings := make([]*ringOp, 0, len(s.ring))
	for _, op := range s.ring {
		rings = append(rings, op)
	}
	s.mu.Unlock()
	s.fence.Abort()
	for _, op := range ags {
		op.abort()
	}
	for _, op := range rings {
		op.abort()
	}
	for _, f := range subs {
		f(n)
	}
}

// Aborted returns the job-abort notice, if one has been raised.
func (s *Server) Aborted() (AbortNotice, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.abort == nil {
		return AbortNotice{}, false
	}
	return *s.abort, true
}

// RaiseAbort raises a job abort from this client's rank (PMI2_Abort).
func (c *Client) RaiseAbort(n AbortNotice) { c.s.RaiseAbort(n) }

// OnAbort registers f to run once with the job's abort notice: when the abort
// is raised, or at once if it already has been. It is how the launcher's kill
// reaches the process, wherever the process is blocked.
func (c *Client) OnAbort(f func(AbortNotice)) {
	c.s.mu.Lock()
	n := c.s.abort
	if n == nil {
		c.s.subs = append(c.s.subs, f)
	}
	c.s.mu.Unlock()
	if n != nil {
		f(*n)
	}
}

// KeyFor builds the conventional per-rank KVS key, "<prefix>-<rank>", in one
// allocation: a static job builds one per peer on every PE.
func KeyFor(prefix string, rank int) string {
	var buf [32]byte
	return string(strconv.AppendInt(append(append(buf[:0], prefix...), '-'), int64(rank), 10))
}
