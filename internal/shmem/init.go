package shmem

import (
	"fmt"

	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/pmi"
	"goshmem/internal/vclock"
)

// Env is the per-PE environment the cluster launcher provides.
type Env struct {
	Rank   int
	NProcs int
	Node   int
	PPN    int

	HCA         *ib.HCA
	PMI         *pmi.Client
	Clock       *vclock.Clock
	NodeBarrier *vclock.VBarrier

	// Obs is the PE's observability recorder (nil: disabled). The runtime
	// threads it through the PMI client, the conduit and the verbs layer so
	// every layer's events land in the same per-PE stream.
	Obs *obs.PE
}

// Attach is start_pes: it initializes the OpenSHMEM runtime for one PE and
// records the per-phase time breakdown. The phase structure follows the
// paper:
//
//	static   : UD endpoint; Put+Fence (blocking PMI); register heap; shared
//	           memory; eager all-to-all connect; segment broadcast; global
//	           barriers.
//	on-demand: UD endpoint; PMIX_Iallgather (launch only); register heap
//	           (overlapped with the allgather); shared memory; intra-node
//	           barrier. Connections and segment exchange are deferred.
func Attach(env Env, opts Options) *Ctx {
	c := newCtx(env, opts)
	last := c.clk.Now()
	// mark closes one startup phase and hands it to the obs plane, so the
	// phases tile start_pes exactly (the phase-sum invariant).
	mark := func(ph int) {
		now := c.clk.Now()
		c.phases[ph] = now - last
		c.obs.InitPhase(PhaseNames[ph], last, now)
		last = now
	}

	c.startConduit(env)
	mark(PhaseQPSetup)

	// --- PMI exchange of UD endpoint info ---
	if err := c.conduit.ExchangeEndpoints(); err != nil {
		// Permanent control-plane failure: the conduit has already raised
		// the job abort (ExitPMIFailure); unwind this PE through the same
		// panic path GlobalExit uses so the launcher classifies the code.
		panic(fmt.Errorf("shmem: endpoint exchange: %w", err))
	}
	mark(PhasePMIExchange)

	c.registerHeap()
	mark(PhaseMemReg)

	// --- Shared-memory (intra-node) setup ---
	c.clk.Advance(c.model.SharedMemSetup)
	c.conduit.IntraNodeBarrier()
	mark(PhaseSharedMem)

	c.conduit.SetReady()

	// --- Connection setup & segment exchange ---
	// Both sub-phases are marked in every mode (zero-length when skipped), so
	// the phase names line up across static and on-demand runs.
	static := c.opts.Mode == gasnet.Static
	// The current design's broadcast forces all-to-all connectivity even on an
	// on-demand conduit (the SegBroadcast ablation).
	eager := static || c.opts.SegEx == SegBroadcast
	switch {
	case static:
		if err := c.conduit.ConnectAll(); err != nil {
			panic("shmem: static connect: " + err.Error())
		}
	case !eager && c.opts.GlobalInitBarriers:
		// Section IV-E ablation: a global barrier during on-demand init
		// forces O(log P) connections right here.
		c.BarrierAll()
	}
	mark(PhaseConnSetup)
	if eager {
		c.broadcastSegs()
		c.BarrierAll() // the current design's global synchronization
	}
	mark(PhaseRkeyExchange)

	// --- Remaining constant setup ---
	c.clk.Advance(c.model.InitOther)
	if static || c.opts.GlobalInitBarriers {
		c.BarrierAll()
	} else {
		c.conduit.IntraNodeBarrier() // paper section IV-E replacement
	}
	mark(PhaseOther)
	return c
}

// newCtx fills in the option defaults and builds the context up to the point
// where start_pes' clock starts: no conduit, no heap.
func newCtx(env Env, opts Options) *Ctx {
	if opts.HeapSize <= 0 {
		opts.HeapSize = 1 << 20
	}
	opts.HeapSize = (opts.HeapSize + heapAlign - 1) &^ (heapAlign - 1) // the allocator hands out whole units
	if opts.SegEx == SegAuto {
		if opts.Mode == gasnet.Static {
			opts.SegEx = SegBroadcast
		} else {
			opts.SegEx = SegPiggyback
		}
	}

	c := &Ctx{
		rank:  env.Rank,
		n:     env.NProcs,
		opts:  opts,
		pmiC:  env.PMI,
		clk:   env.Clock,
		model: env.HCA.Fabric().Model(),
	}
	if opts.SegEx == SegBroadcast {
		c.segs.reserve(c.n)
	}
	sched := env.HCA.Fabric().Sched()
	c.segCond = vclock.NewCond(&c.segMu, sched)
	c.watchCond = vclock.NewCond(&c.watchMu, sched)
	c.coll = newCollState(sched)
	c.obs = env.Obs
	c.hPut = c.obs.Hist("shmem.put_ns")
	c.hGet = c.obs.Hist("shmem.get_ns")
	c.hAtomic = c.obs.Hist("shmem.atomic_ns")
	c.hBarrier = c.obs.Hist("shmem.barrier_ns")
	c.hColl = c.obs.Hist("shmem.collective_ns")
	env.PMI.SetObs(c.obs)
	return c
}

// startConduit creates the PE's conduit (UD endpoint) and registers the
// runtime's active-message handlers and its abort wake-up.
func (c *Ctx) startConduit(env Env) {
	cfg := gasnet.Config{
		Rank: env.Rank, NProcs: env.NProcs, Node: env.Node, PPN: env.PPN,
		HCA: env.HCA, PMI: env.PMI, Clock: env.Clock,
		Mode: c.opts.Mode, BlockingPMI: c.opts.BlockingPMI,
		NodeBarrier: env.NodeBarrier,
		Obs:         env.Obs,
		MaxLiveRC:   c.opts.MaxLiveRC,
		Heartbeat:   c.opts.Heartbeat,
	}
	if c.opts.SegEx == SegPiggyback {
		cfg.ConnectPayload, cfg.OnConnectPayload = c.encodeOwnSeg, c.storeSeg
	}
	c.conduit = gasnet.New(cfg)
	c.coll.liveness = c.conduit.LivenessErr
	// On a job abort, wake every blocked wait loop in the runtime so it can
	// observe the error instead of sleeping forever on a condvar.
	c.conduit.OnAbort(func(error) {
		c.coll.cond.Broadcast()
		c.segCond.Broadcast()
		c.watchCond.Broadcast()
	})
	c.conduit.RegisterHandler(amColl, c.coll.handle)
	c.conduit.RegisterHandler(amSegInfo, func(src int, _ [4]uint64, payload []byte, at int64) { c.storeSeg(src, payload, at) })
	// An explicit segment-info request (SegAMOnDemand ablation) is answered.
	c.conduit.RegisterHandler(amSegReq, func(src int, _ [4]uint64, _ []byte, _ int64) {
		_ = c.conduit.AMRequest(src, amSegInfo, [4]uint64{}, c.encodeOwnSeg())
	})
	c.conduit.RegisterHandler(amSignal, func(_ int, args [4]uint64, _ []byte, at int64) {
		c.applySignal(int64(args[0]), args[1], at)
	})
}

// registerHeap registers the symmetric heap with the HCA by size, paying
// the registration cost of all of it; Malloc backs each block it hands out.
func (c *Ctx) registerHeap() {
	c.heap = newHeap(c.opts.HeapSize)
	// Registration goes through the conduit's degradation ladder: a refused
	// pinning (budget or injected fault) falls back to a bounce-buffered
	// region, and only a PE with no registered heap at all aborts.
	c.mr = c.conduit.RegisterHeapSize(c.opts.HeapSize)
	c.mr.SetOnWrite(func(off, n int, vt int64) {
		c.watchMu.Lock()
		if vt > c.lastWrite {
			c.lastWrite = vt
		}
		c.watchMu.Unlock()
		c.watchCond.Broadcast()
	})
	c.storeSeg(c.rank, c.encodeOwnSeg(), 0) // self put/get are legal
	c.obs.Emit(c.clk.Now(), obs.LayerIB, "mr-register", -1, int64(c.opts.HeapSize))
}

// Finalize synchronizes all PEs for teardown. Even the on-demand design
// needs a true global barrier here (the paper notes Hello World still pays
// for completing the PMI exchange and a few connections at finalize).
func (c *Ctx) Finalize() {
	if c.finalized {
		return
	}
	c.finalized = true
	// Close even when the teardown barrier aborts or panics mid-way: a dead
	// peer must not leave the conduit's progress loop running.
	defer c.conduit.Close()
	if c.conduit.Err() == nil {
		c.BarrierAll()
	}
}

// Err returns the job-abort error if this PE's conduit has been aborted
// (a peer died, the watchdog fired, or GlobalExit was called), else nil.
func (c *Ctx) Err() error { return c.conduit.Err() }

// GlobalExit is shmem_global_exit: it aborts the whole job with the given
// exit code, propagating the abort to every live PE through the conduit and
// the process manager, then unwinds this PE.
func (c *Ctx) GlobalExit(code int) {
	ae := &gasnet.AbortError{
		Origin: c.rank, Dead: -1, Code: code,
		Reason: fmt.Sprintf("shmem_global_exit(%d) on PE %d", code, c.rank),
	}
	c.conduit.Abort(ae)
	panic(fmt.Errorf("shmem: global exit: %w", ae))
}

// Stats returns the conduit's resource/traffic counters for this PE.
func (c *Ctx) Stats() gasnet.Stats { return c.conduit.Stats() }
