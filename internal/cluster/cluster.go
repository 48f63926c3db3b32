// Package cluster launches simulated OpenSHMEM (and hybrid MPI+OpenSHMEM)
// jobs: it builds the fabric (one HCA per node), the PMI server, and one
// goroutine per PE, each with its own virtual clock starting at the modeled
// process-manager fan-out time. It aggregates per-PE results — start_pes
// breakdowns, job wall time (virtual), endpoint counts, communicating-peer
// counts — which are exactly the quantities the paper's figures plot.
package cluster

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/pmi"
	"goshmem/internal/shmem"
	"goshmem/internal/vclock"
)

// Config describes a job.
type Config struct {
	// NP is the number of PEs; PPN the PEs per simulated node (default 16,
	// the paper's Cluster-B fill).
	NP  int
	PPN int

	// Mode selects static or on-demand connection management.
	Mode gasnet.Mode
	// BlockingPMI forces blocking PMI even in on-demand mode (ablation).
	BlockingPMI bool
	// SegEx overrides the segment exchange strategy (default follows Mode).
	SegEx shmem.SegExchange
	// GlobalInitBarriers forces global barriers during on-demand init
	// (section IV-E ablation).
	GlobalInitBarriers bool

	// HeapSize is the actual symmetric heap per PE (default 256 KiB);
	// DeclaredHeapSize the size used by the registration cost model
	// (default: HeapSize).
	HeapSize         int
	DeclaredHeapSize int

	// Model overrides the cost model; Faults injects UD and RC faults
	// (drops, duplicates, bounded reordering, link flaps, PE slowdowns,
	// control-frame bit flips).
	Model  *vclock.CostModel
	Faults *ib.FaultInjector

	// PMIFaults injects control-plane faults into the PMI server (slow
	// launcher, dropped/duplicated ops, unavailability windows, a crash
	// that loses un-fenced KVS entries); the client's retry/timeout/backoff
	// loop recovers from them.
	PMIFaults *pmi.FaultInjector

	// MaxLiveRC caps the live RC queue pairs per HCA: each PE evicts its
	// least-recently-used idle connection before exceeding the cap, and the
	// evicted peer reconnects on demand. Zero means unbounded; on-demand
	// mode only (the fully connected baseline ignores it).
	MaxLiveRC int

	// Resource-exhaustion plane: finite per-adapter budgets. Unlike
	// MaxLiveRC (a soft cap the connection manager polices), these are hard
	// verbs-level limits the adapter itself enforces; the runtimes respond
	// with their degradation ladders (eviction+retry, bounce-buffering,
	// admission rejection) and abort with ExitResourceExhausted only when
	// forward progress is provably impossible. Zero fields are unbounded.
	//
	// QPBudget caps live queue pairs (UD and RC) per HCA; MRBudget caps
	// pinned bytes per HCA; RQDepth bounds each RC queue pair's receive
	// queue (arming receiver-not-ready NAKs and sender credit windows).
	QPBudget int
	MRBudget int64
	RQDepth  int
	// FailQPAllocs / FailMRAllocs schedule injected allocation faults: the
	// Nth (1-based, per adapter) QP or MR allocation attempt fails as if the
	// budget were exhausted. Exercises the degradation ladders without
	// needing a budget tight enough to trip organically.
	FailQPAllocs []int
	FailMRAllocs []int

	// KillPEs and WedgePEs schedule PE-level faults: a killed PE crashes
	// (fail-stop) at the given virtual time; a wedged PE stops making
	// software progress while its HCA still ACKs at the fabric level.
	KillPEs  []PEFault
	WedgePEs []PEFault

	// Rails is the number of independent network rails (ports per HCA, each
	// on its own switch plane — an independent fault domain). Default 1.
	// Multi-rail enables automatic path migration: RC queue pairs carry a
	// primary and an alternate path, and the connection manager migrates on
	// path error without tearing the connection down.
	Rails int
	// FailPorts, FailRails and Partitions schedule rail-scoped network
	// faults: one HCA port going dark, a whole switch plane dying, and a
	// partition window severing two rank sets on every rail (both sides
	// stay alive but cannot talk until the window heals). All three are
	// virtual-time-scheduled and deterministic, so each injection opens
	// exactly one ledger incident at setup.
	FailPorts  []PortFault
	FailRails  []RailFault
	Partitions []PartitionFault
	// Heartbeat forces the conduit's UD failure detector on or off (zero
	// value: armed automatically only when PE or network faults are
	// scheduled).
	Heartbeat gasnet.HeartbeatConfig

	// MemstatsEvery, when positive, samples the runtime (live heap bytes,
	// goroutine count) into the engine.* gauge series at that real-time
	// period — the long-soak companion to the boundary census. It requires
	// Obs.Footprint (the census owns the series) and, to be visible, Obs.
	// Gauges.
	MemstatsEvery time.Duration

	// Deadline, when positive, is the job's virtual-time budget; the
	// watchdog terminates the job with exit code 124 when any PE's clock
	// exceeds it. StallTimeout, when positive, terminates the job when no
	// PE makes progress (virtual clocks and fabric deliveries frozen) for
	// that much real time. WatchdogPoll is the check interval (default
	// 20ms real time).
	Deadline     int64
	StallTimeout time.Duration
	WatchdogPoll time.Duration

	// SkipLaunchCost starts clocks at zero instead of the modeled
	// fork/exec fan-out (useful for latency microbenchmarks).
	SkipLaunchCost bool

	// Trace records connection-lifecycle events into Result.Trace
	// (virtual-time-ordered across all PEs). It implies Obs.Events: the
	// trace is a filtered view of the observability plane.
	Trace bool

	// Obs configures the structured observability plane (per-PE multi-layer
	// events, job-wide metric registry). When enabled, Result.Obs exposes
	// the plane for Perfetto export, latency histograms and the startup
	// phase breakdown.
	Obs obs.Config
}

// TraceEvent is one connection-lifecycle event from a traced run.
type TraceEvent struct {
	VT   int64 // virtual time (ns)
	Rank int   // the PE the event occurred on
	Kind string
	Peer int
}

// PEResult is one PE's outcome.
type PEResult struct {
	Rank      int
	Breakdown shmem.InitBreakdown
	InitVT    int64 // start_pes duration (virtual ns)
	FinalVT   int64 // clock when the PE finished Finalize
	Stats     gasnet.Stats
	Peers     int // distinct communicating peers, excluding self

	// ExitCode is the PE's simulated process exit status: 0 on success,
	// 137 crashed, 134 wedged (killed by the launcher), 124 watchdog,
	// otherwise the job-abort code.
	ExitCode int
}

// Result aggregates a job run.
type Result struct {
	Cfg  Config
	PEs  []PEResult
	Wall time.Duration // real time the simulation took

	// JobVT is the modeled job wall clock: launch fan-out through the last
	// PE's finalize plus teardown — what "time ./hello_world" reports.
	JobVT int64

	// Trace holds connection-lifecycle events when Config.Trace was set,
	// deterministically ordered by (virtual time, rank, kind, peer) so two
	// runs of the same causally-serialized job produce identical traces
	// regardless of goroutine scheduling.
	Trace []TraceEvent

	// Obs is the observability plane when Config.Trace or Config.Obs
	// enabled it, else nil.
	Obs *obs.Plane

	// Footprint is the engine self-observability report — census snapshots
	// at every startup boundary and job end, reconciled against measured
	// heap deltas — when Config.Obs.Footprint was set, else nil.
	Footprint *obs.FootprintReport

	// InitAvg and InitMax summarize start_pes across PEs (the paper's
	// initialization-time metric averages over PEs).
	InitAvg int64
	InitMax int64

	HCA []ib.HCAStats

	// Aborted is set when the job terminated abnormally (PE failure,
	// global exit, or watchdog); AbortReason describes why and Dump holds
	// the watchdog's diagnostic state dump when it fired.
	Aborted     bool
	AbortReason string
	Dump        string
}

// AvgPeers returns the mean communicating-peer count (Table I metric).
func (r *Result) AvgPeers() float64 {
	if len(r.PEs) == 0 {
		return 0
	}
	sum := 0
	for _, p := range r.PEs {
		sum += p.Peers
	}
	return float64(sum) / float64(len(r.PEs))
}

// AvgEndpoints returns the mean number of RC endpoints created per PE
// (Figure 9 metric).
func (r *Result) AvgEndpoints() float64 {
	if len(r.PEs) == 0 {
		return 0
	}
	sum := 0
	for _, p := range r.PEs {
		sum += p.Stats.RCQPsCreated
	}
	return float64(sum) / float64(len(r.PEs))
}

// AvgConns returns the mean number of established connections per PE.
func (r *Result) AvgConns() float64 {
	if len(r.PEs) == 0 {
		return 0
	}
	sum := 0
	for _, p := range r.PEs {
		sum += p.Stats.ConnsEstablished
	}
	return float64(sum) / float64(len(r.PEs))
}

// Counters sums the per-PE conduit counters over the job. PeersContacted and
// Flows are per-PE values, not counters, and stay zero in the sum.
func (r *Result) Counters() gasnet.Stats {
	var t gasnet.Stats
	for i := range r.PEs {
		obs.AddCounters(&t, &r.PEs[i].Stats)
	}
	return t
}

// substrate is what every job stands on: the fabric with one adapter and one
// shared-memory barrier per node, the PMI server, and — on a fabric where
// something can go missing — the timer queue they all share.
type substrate struct {
	model    *vclock.CostModel
	fab      *ib.Fabric
	srv      *pmi.Server
	hcas     []*ib.HCA
	bars     []*vclock.VBarrier
	sched    *vclock.Sched
	launchVT int64
}

// prepare validates the job's shape and folds its scheduled faults into the
// injector (creating one if needed).
func (cfg *Config) prepare() error {
	if cfg.NP <= 0 {
		return fmt.Errorf("cluster: NP must be positive, got %d", cfg.NP)
	}
	if cfg.PPN <= 0 {
		cfg.PPN = 16
	}
	applyPEFaults(cfg)
	applyAllocFaults(cfg)
	applyRailFaults(cfg)
	return nil
}

// newSubstrate builds the job's substrate from a prepared config. plane may
// be nil. The blocking waits outside the conduit — PMI fences and exchanges,
// the intra-node barriers — are made visible to the fabric's timer queue, with
// which the launcher registers its PE goroutines: a timer fires only when
// every one of them is parked.
func newSubstrate(cfg *Config, plane *obs.Plane) *substrate {
	s := &substrate{model: cfg.Model}
	if s.model == nil {
		s.model = vclock.Default()
	}
	s.fab = ib.NewFabric(s.model, cfg.Faults)
	s.fab.SetRails(cfg.railCount())
	s.srv = pmi.NewServer(cfg.NP, s.model)
	s.srv.SetFaults(cfg.PMIFaults)
	nodes := (cfg.NP + cfg.PPN - 1) / cfg.PPN
	s.hcas = make([]*ib.HCA, nodes)
	s.bars = make([]*vclock.VBarrier, nodes)
	limits := cfg.limits()
	for i := 0; i < nodes; i++ {
		s.hcas[i] = s.fab.AddHCA()
		// Attach the adapter's gauge/ledger hooks before arming budgets so
		// the slab pre-registration is visible to the pinned-bytes gauge.
		s.hcas[i].AttachObs(plane.Gauges(), plane.Ledger())
		if limits != (ib.Limits{}) {
			// Budgets are armed at setup time on a throwaway clock: the slab
			// pre-registration is node bring-up, not any PE's critical path.
			s.hcas[i].SetLimits(limits, vclock.NewClock(0))
		}
		ppn := cfg.PPN
		if i == nodes-1 {
			ppn = cfg.NP - i*cfg.PPN
		}
		s.bars[i] = vclock.NewVBarrier(ppn)
	}
	s.sched = s.fab.Sched() // after SetLimits: a budget arms it too
	s.srv.SetSched(s.sched)
	for _, b := range s.bars {
		b.SetSched(s.sched)
	}
	if !cfg.SkipLaunchCost {
		s.launchVT = s.model.LaunchCost(cfg.NP, nodes)
	}
	for r := 0; r < cfg.NP; r++ {
		s.sched.Enter() // every PE counts before the first one runs: it may block on one not yet started
	}
	return s
}

// RunEnvs launches a job but hands each PE its raw substrate environment
// instead of an initialized OpenSHMEM context. Alternative PGAS clients of
// the conduit (the mini-UPC layer, custom runtimes, tests) use it; the body
// is responsible for its own attach/finalize.
func RunEnvs(cfg Config, body func(env shmem.Env)) error {
	if err := cfg.prepare(); err != nil {
		return err
	}
	sub := newSubstrate(&cfg, nil)
	var wg sync.WaitGroup
	errs := make(chan error, cfg.NP)
	for r := 0; r < cfg.NP; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer sub.sched.Exit()
			defer func() {
				if p := recover(); p != nil {
					errs <- fmt.Errorf("cluster: PE %d panicked: %v\n%s", rank, p, debug.Stack())
				}
			}()
			node := rank / cfg.PPN
			clk := vclock.NewClock(sub.launchVT)
			pmiC := sub.srv.Client(rank, clk)
			body(shmem.Env{
				Rank: rank, NProcs: cfg.NP, Node: node, PPN: cfg.PPN,
				HCA: sub.hcas[node], PMI: pmiC, Clock: clk,
				NodeBarrier: sub.bars[node],
			})
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// Run launches the job and executes app on every PE concurrently. It
// returns when every PE has finished and finalized.
func Run(cfg Config, app func(ctx *shmem.Ctx)) (*Result, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	if cfg.HeapSize <= 0 {
		cfg.HeapSize = 256 << 10
	}

	obsCfg := cfg.Obs
	if cfg.Trace {
		obsCfg.Events = true
	}
	var plane *obs.Plane
	if obsCfg.Enabled() {
		plane = obs.NewPlane(cfg.NP, obsCfg)
	}
	// The engine census baseline is taken before any job object exists, so
	// later snapshots measure job-owned heap growth only. Every census call
	// below is nil-safe: a disabled footprint plane costs one pointer check.
	census := plane.Census()
	census.Snapshot("baseline", 0)
	// Scheduled PE faults open their incidents at setup: the injection time
	// is the scheduled trigger, known before any PE runs. The failure
	// detector's suspicion/confirmation stamps detection later; the sweep
	// marks them aborted (detection + job abort IS the designed outcome).
	for _, f := range cfg.KillPEs {
		plane.Ledger().Open("pe", "kill", f.Rank, obs.InstJob, f.At)
	}
	for _, f := range cfg.WedgePEs {
		plane.Ledger().Open("pe", "wedge", f.Rank, obs.InstJob, f.At)
	}
	seedRailTelemetry(plane, &cfg)

	sub := newSubstrate(&cfg, plane)
	model, fab, srv, hcas, bars, launchVT := sub.model, sub.fab, sub.srv, sub.hcas, sub.bars, sub.launchVT

	res := &Result{Cfg: cfg, PEs: make([]PEResult, cfg.NP), Obs: plane}
	clks := make([]*vclock.Clock, cfg.NP)
	for r := 0; r < cfg.NP; r++ {
		clks[r] = vclock.NewClock(launchVT)
	}
	for _, h := range hcas {
		census.Register(h)
	}
	census.Register(srv)
	census.Register(vclockReporter{clks: clks, bars: bars})
	census.Register(engineReporter{res: res})
	census.Snapshot("setup", 0)

	// The init-done census waits for every PE to finish shmem.Attach — the
	// point Fig. 5(a)'s per-PE memory is defined at. Each PE goroutine
	// arrives exactly once (a deferred arrive covers panic paths, so a
	// crashed PE can never strand the barrier), the last arrival triggers
	// the snapshot, and only then are the PEs released into the app: the
	// snapshot must see post-init state, not the first application puts.
	var initWG sync.WaitGroup
	var censusReady chan struct{}
	if census != nil {
		initWG.Add(cfg.NP)
		censusReady = make(chan struct{})
		go func() {
			initWG.Wait()
			census.Snapshot("init-done", maxClockVT(clks))
			close(censusReady)
		}()
	}

	// The -memstats-every soak sampler: wall-clock runtime observations
	// stamped at the engine's current virtual frontier.
	var samplerStop chan struct{}
	if census != nil && cfg.MemstatsEvery > 0 {
		samplerStop = make(chan struct{})
		go func() {
			t := time.NewTicker(cfg.MemstatsEvery)
			defer t.Stop()
			for {
				select {
				case <-samplerStop:
					return
				case <-t.C:
					census.ObserveRuntime(maxClockVT(clks))
				}
			}
		}()
	}

	wd := newWatchdog(cfg, clks, fab, srv, bars)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, cfg.NP)
	runPE := func(rank int) {
		defer sub.sched.Exit()
		clk := clks[rank]
		var ctx *shmem.Ctx
		arrived := false
		arrive := func() {
			if censusReady != nil && !arrived {
				arrived = true
				initWG.Done()
			}
		}
		defer func() {
			if p := recover(); p != nil {
				if code, ok := exitCodeForPanic(p); ok {
					// Controlled job abort: record the PE's exit status
					// instead of treating it as a launcher bug.
					pr := PEResult{Rank: rank, ExitCode: code, FinalVT: clk.Now()}
					if ctx != nil {
						pr.Breakdown = ctx.Breakdown()
						pr.InitVT = ctx.InitTime()
						pr.Stats = ctx.Stats()
					}
					res.PEs[rank] = pr
				} else {
					errs <- fmt.Errorf("cluster: PE %d panicked: %v\n%s", rank, p, debug.Stack())
				}
				if ctx != nil {
					// Best-effort finalize so surviving PEs are not
					// stranded in the teardown barrier. A panic inside a
					// collective can still leave peers blocked; the
					// launcher only guarantees recovery for application
					// level panics between collectives.
					func() {
						defer func() { _ = recover() }()
						ctx.Finalize()
					}()
				}
			}
		}()
		// Registered after the recover handler so it runs first on a
		// panic unwind (LIFO): the init barrier is released before the
		// handler's best-effort Finalize can block on peers that are
		// themselves parked on the census gate.
		defer arrive()
		node := rank / cfg.PPN
		pe := plane.PE(rank)
		pe.Span(0, launchVT, obs.LayerCluster, "launch", -1, 0)
		attachVT := clk.Now()
		pmiC := srv.Client(rank, clk)
		ctx = shmem.Attach(shmem.Env{
			Rank: rank, NProcs: cfg.NP, Node: node, PPN: cfg.PPN,
			HCA: hcas[node], PMI: pmiC, Clock: clk,
			NodeBarrier: bars[node],
			Obs:         pe,
		}, shmem.Options{
			Mode: cfg.Mode, BlockingPMI: cfg.BlockingPMI, SegEx: cfg.SegEx,
			HeapSize: cfg.HeapSize, DeclaredHeapSize: cfg.DeclaredHeapSize,
			GlobalInitBarriers: cfg.GlobalInitBarriers,
			MaxLiveRC:          cfg.MaxLiveRC,
			Heartbeat:          cfg.Heartbeat,
		})
		pe.Span(attachVT, clk.Now(), obs.LayerCluster, "init", -1, 0)
		wd.register(rank, ctx.Conduit())
		census.Register(ctx.Conduit())
		census.Register(ctx)
		arrive()
		if censusReady != nil {
			// Hold every PE at the init boundary until the census has
			// read post-attach state. Pure real-time synchronization: no
			// clock advances, so virtual-time results are unchanged.
			<-censusReady
		}
		appVT := clk.Now()
		app(ctx)
		pe.Span(appVT, clk.Now(), obs.LayerCluster, "app", -1, 0)
		// Snapshot resource counters before finalize so Table I / Fig. 9
		// metrics reflect the application, not the teardown barrier.
		stats := ctx.Stats()
		finVT := clk.Now()
		ctx.Finalize()
		pe.Span(finVT, clk.Now(), obs.LayerCluster, "finalize", -1, 0)
		exit := 0
		if err := ctx.Err(); err != nil {
			// The job aborted but this PE was never blocked on the dead
			// peer; it still exits nonzero, like a process killed by the
			// launcher during teardown.
			if code, ok := exitCodeForErr(err); ok {
				exit = code
			} else {
				exit = 1
			}
		}
		res.PEs[rank] = PEResult{
			Rank:      rank,
			Breakdown: ctx.Breakdown(),
			InitVT:    ctx.InitTime(),
			FinalVT:   clk.Now(),
			Stats:     stats,
			Peers:     stats.PeersContacted,
			ExitCode:  exit,
		}
	}
	for r := 0; r < cfg.NP; r++ {
		wg.Add(1)
		// The PE runs a frame below the goroutine's own, so that a goroutine
		// the host descheduled between Done and its exit holds no reference
		// to the job: Run's caller may measure the heap the moment it returns.
		go func(rank int) { defer wg.Done(); runPE(rank) }(r)
	}
	wg.Wait()
	wd.stop()
	if samplerStop != nil {
		close(samplerStop)
	}
	res.Wall = time.Since(start)
	select {
	case err := <-errs:
		return nil, err
	default:
	}

	if n, ok := srv.Aborted(); ok {
		res.Aborted = true
		res.AbortReason = n.Reason
	}
	if fired, reason, dump := wd.result(); fired {
		res.Aborted = true
		res.AbortReason = reason
		res.Dump = dump
	}
	for _, p := range res.PEs {
		if p.ExitCode != 0 {
			res.Aborted = true
		}
	}

	var initSum, initMax, finalMax int64
	for _, p := range res.PEs {
		initSum += p.InitVT
		if p.InitVT > initMax {
			initMax = p.InitVT
		}
		if p.FinalVT > finalMax {
			finalMax = p.FinalVT
		}
	}
	res.InitAvg = initSum / int64(cfg.NP)
	res.InitMax = initMax
	res.JobVT = finalMax + model.TeardownBase
	for _, h := range fab.HCAs() {
		res.HCA = append(res.HCA, h.Stats())
	}
	if cfg.Trace {
		// The trace is the connection-lifecycle slice of the plane's event
		// stream. Events() returns it under the full deterministic sort key
		// (VT, rank, layer, kind, peer), fixing the old VT-only ordering that
		// left same-VT events in schedule-dependent order.
		for _, e := range plane.Events() {
			if isConnLifecycle(e) {
				res.Trace = append(res.Trace, TraceEvent{VT: e.VT, Rank: e.Rank, Kind: e.Kind, Peer: e.Peer})
			}
		}
	}
	// Resolve incidents still open at job end before any report is built:
	// the sweep is what turns leftover-open into closed/aborted/unresolved,
	// and the registry mirror below wants final timestamps.
	plane.Ledger().Sweep(res.JobVT, res.Aborted)
	// The job-end census is taken before the registry mirrors below so the
	// mirrored counters cannot perturb the measured heap. Its forced
	// collection also subsumes the old unconditional post-job runtime.GC():
	// with engine telemetry off, plain runs no longer pay a forced
	// collection at all — O(NP^2) dead protocol objects after large static
	// jobs are left to the normal GC pacer (and sweep callers that care run
	// with the census on, where the collection doubles as measurement).
	census.Snapshot("job-end", res.JobVT)
	res.Footprint = census.BuildReport()
	mirrorCounters(plane, res)
	mirrorIncidents(plane)
	return res, nil
}
