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
	"slices"
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

	// HeapSize is the symmetric heap per PE (default 256 KiB): registered
	// and paid for at start_pes, backed only by what the program allocates.
	HeapSize int

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
	// that much real time.
	Deadline     int64
	StallTimeout time.Duration

	// SkipLaunchCost starts clocks at zero instead of the modeled
	// fork/exec fan-out (useful for latency microbenchmarks).
	SkipLaunchCost bool

	// Obs configures the structured observability plane (per-PE multi-layer
	// events, job-wide metric registry). When enabled, Result.Obs exposes
	// the plane for Perfetto export, latency histograms and the startup
	// phase breakdown.
	Obs obs.Config
}

// PEResult is one PE's outcome.
type PEResult struct {
	Rank    int
	Phases  shmem.Phases // start_pes duration per startup phase (virtual ns); Total() is start_pes
	FinalVT int64        // clock when the PE finished Finalize
	Stats   gasnet.Stats // PeersContacted is the PE's Table I peer count

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
	JobVT    int64
	LaunchVT int64 // where the fan-out leaves every clock: each start_pes begins here

	// Obs is the observability plane when Config.Obs enabled it, else nil.
	// Its Events() are the job's connection trace (and every other layer's
	// events), in a deterministic order.
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

	// Incidents is the causal-incident summary and the reconciliation of the
	// ledger against the fault injectors' own counts, built at job end
	// whenever Config.Obs.Incidents was set, else nil. Run audits it.
	Incidents *IncidentReport

	// Aborted is set when the job terminated abnormally (PE failure,
	// global exit, or watchdog); AbortReason describes why and Dump holds
	// the watchdog's diagnostic state dump when it fired.
	Aborted     bool
	AbortReason string
	Dump        string
}

// PhaseTotals sums each startup phase over the PEs and finds its longest
// single-PE duration (virtual ns).
func (r *Result) PhaseTotals() (sum, worst shmem.Phases) {
	for _, p := range r.PEs {
		for i, d := range p.Phases {
			sum[i] += d
			worst[i] = max(worst[i], d)
		}
	}
	return sum, worst
}

// avg is the per-PE mean of one PEResult quantity.
func (r *Result) avg(of func(*PEResult) int) float64 {
	if len(r.PEs) == 0 {
		return 0
	}
	sum := 0
	for i := range r.PEs {
		sum += of(&r.PEs[i])
	}
	return float64(sum) / float64(len(r.PEs))
}

// AvgPeers returns the mean communicating-peer count (Table I metric).
func (r *Result) AvgPeers() float64 {
	return r.avg(func(p *PEResult) int { return p.Stats.PeersContacted })
}

// AvgEndpoints returns the mean number of RC endpoints created per PE
// (Figure 9 metric).
func (r *Result) AvgEndpoints() float64 {
	return r.avg(func(p *PEResult) int { return p.Stats.RCQPsCreated })
}

// AvgConns returns the mean number of established connections per PE.
func (r *Result) AvgConns() float64 {
	return r.avg(func(p *PEResult) int { return p.Stats.ConnsEstablished })
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
// shared-memory barrier per node, the PMI server, one virtual clock per PE
// and — on a fabric where something can go missing — the timer queue they all
// share.
type substrate struct {
	model    *vclock.CostModel
	fab      *ib.Fabric
	srv      *pmi.Server
	hcas     []*ib.HCA
	bars     []*vclock.VBarrier
	clks     []*vclock.Clock
	sched    *vclock.Sched
	launchVT int64
}

// prepare validates the job's shape and folds its scheduled faults — PE kills
// and wedges, Nth-allocation failures, port, rail and partition schedules —
// into the fabric injector, creating one if the config has none.
func (cfg *Config) prepare() error {
	if cfg.NP <= 0 {
		return fmt.Errorf("cluster: NP must be positive, got %d", cfg.NP)
	}
	if cfg.PPN <= 0 {
		cfg.PPN = 16
	}
	// A fault naming a PE, adapter or rail the job lacks would count as
	// injected, and the ledger would reconcile a fault that never happened.
	var err error
	in := func(what string, v, lo, hi int) {
		if err == nil && (v < lo || v >= hi) {
			err = fmt.Errorf("cluster: %s %d outside [%d, %d)", what, v, lo, hi)
		}
	}
	for _, f := range slices.Concat(cfg.KillPEs, cfg.WedgePEs) {
		in("PE fault rank", f.Rank, 0, cfg.NP)
	}
	for _, f := range cfg.FailPorts {
		in("port fault LID", int(f.LID), 1, (cfg.NP+cfg.PPN-1)/cfg.PPN+1)
		in("port fault rail", f.Rail, 0, cfg.railCount())
	}
	for _, f := range cfg.FailRails {
		in("rail fault rail", f.Rail, 0, cfg.railCount())
	}
	for _, p := range cfg.Partitions {
		for _, r := range slices.Concat(p.A, p.B) {
			in("partition rank", r, 0, cfg.NP)
		}
	}
	if err != nil || len(cfg.KillPEs)+len(cfg.WedgePEs)+len(cfg.FailQPAllocs)+len(cfg.FailMRAllocs) == 0 && !cfg.netFaulted() {
		return err
	}
	if cfg.Faults == nil {
		cfg.Faults = ib.NewFaultInjector(1)
	}
	fi := cfg.Faults
	for _, f := range cfg.KillPEs {
		fi.KillPE(f.Rank, f.At)
	}
	for _, f := range cfg.WedgePEs {
		fi.WedgePE(f.Rank, f.At)
	}
	fi.FailQPAllocOn(cfg.FailQPAllocs...)
	fi.FailMRAllocOn(cfg.FailMRAllocs...)
	for _, f := range cfg.FailPorts {
		fi.FailPort(f.LID, f.Rail, f.At)
	}
	for _, f := range cfg.FailRails {
		fi.FailRail(f.Rail, f.At)
	}
	for _, p := range cfg.Partitions {
		fi.Partition(cfg.lids(p.A), cfg.lids(p.B), p.At, p.Heal)
	}
	return nil
}

// newSubstrate builds the job's substrate from a prepared config. plane may
// be nil. The blocking waits outside the conduit — PMI fences and exchanges,
// the intra-node barriers — are made visible to the fabric's timer queue, with
// which every PE is registered before launch starts the first one: a timer
// fires only when every one of them is parked.
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
	limits := ib.Limits{MaxQPs: cfg.QPBudget, MaxMRBytes: cfg.MRBudget, RQDepth: cfg.RQDepth}
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
	s.clks = make([]*vclock.Clock, cfg.NP)
	for r := range s.clks {
		s.clks[r] = vclock.NewClock(s.launchVT)
		s.sched.Enter() // every PE counts before the first one runs: it may block on one not yet started
	}
	return s
}

// launch starts one goroutine per PE, hands each its substrate environment and
// returns when the last has exited. It is the only place a PE goroutine
// starts: a panic that escapes body is a launcher bug and comes back as the
// job's error, with the stack of the PE that raised it.
func (s *substrate) launch(cfg *Config, body func(env shmem.Env)) error {
	var wg sync.WaitGroup
	errs := make(chan error, cfg.NP)
	runPE := func(rank int) {
		defer s.sched.Exit()
		defer func() {
			if p := recover(); p != nil {
				errs <- fmt.Errorf("cluster: PE %d panicked: %v\n%s", rank, p, debug.Stack())
			}
		}()
		node, clk := rank/cfg.PPN, s.clks[rank]
		body(shmem.Env{
			Rank: rank, NProcs: cfg.NP, Node: node, PPN: cfg.PPN,
			HCA: s.hcas[node], PMI: s.srv.Client(rank, clk), Clock: clk,
			NodeBarrier: s.bars[node],
		})
	}
	for r := 0; r < cfg.NP; r++ {
		wg.Add(1)
		// The PE runs a frame below the goroutine's own, so that a goroutine
		// the host descheduled between Done and its exit holds no reference
		// to the job: the caller may measure the heap the moment we return.
		go func(rank int) { defer wg.Done(); runPE(rank) }(r)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// RunEnvs launches a job but hands each PE its raw substrate environment
// instead of an initialized OpenSHMEM context. The benchmark ladder and tests
// use it to run the conduit or an attach of their own. The body owns whatever
// it attaches, its conduit's Close included: a body that dies before calling
// Close (a killed PE) leaves that conduit's progress loop and timers running
// after RunEnvs returns.
func RunEnvs(cfg Config, body func(env shmem.Env)) error {
	if err := cfg.prepare(); err != nil {
		return err
	}
	return newSubstrate(&cfg, nil).launch(&cfg, body)
}

// Run launches the job and executes app on every PE concurrently. It
// returns when every PE has finished and finalized; a completed job whose
// incident ledger does not reconcile returns its Result and an error too.
func Run(cfg Config, app func(ctx *shmem.Ctx)) (*Result, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	j := setup(cfg, app)
	start := time.Now()
	err := j.sub.launch(&j.res.Cfg, j.runPE)
	j.wd.stop()
	j.stopSampler()
	j.res.Wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	res := j.collect()
	return res, res.audit()
}

// job is one Run in flight: the substrate it stands on, the planes that watch
// it, and the result its PEs fill in.
type job struct {
	app    func(ctx *shmem.Ctx)
	sub    *substrate
	plane  *obs.Plane  // nil when no observability was asked for
	census *obs.Census // nil unless Obs.Footprint; every call on it is nil-safe
	res    *Result
	wd     *watchdog

	// The init-done census gate (census != nil only): every PE arrives once
	// after shmem.Attach, the last arrival triggers the snapshot, and only
	// then are the PEs released into the app.
	initWG      sync.WaitGroup
	censusReady chan struct{}

	stopSampler func()
}

// setup builds everything a job needs before its first PE runs: the
// observability plane with the census baseline and the scheduled faults'
// incidents, the substrate, the result, the init-done gate, the runtime
// sampler and the watchdog.
func setup(cfg Config, app func(ctx *shmem.Ctx)) *job {
	if cfg.HeapSize <= 0 {
		cfg.HeapSize = 256 << 10
	}
	j := &job{app: app, stopSampler: func() {}}
	if cfg.Obs.Enabled() {
		j.plane = obs.NewPlane(cfg.NP, cfg.Obs)
	}
	// The engine census baseline is taken before any job object exists, so
	// later snapshots measure job-owned heap growth only.
	j.census = j.plane.Census()
	baseHW := noteGoroutines()
	j.census.Snapshot("baseline", 0)
	// Scheduled PE faults open their incidents at setup: the injection time
	// is the scheduled trigger, known before any PE runs. The failure
	// detector's suspicion/confirmation stamps detection later; the sweep
	// marks them aborted (detection + job abort IS the designed outcome).
	for _, f := range cfg.KillPEs {
		j.plane.Ledger().Open("pe", "kill", f.Rank, obs.InstJob, f.At)
	}
	for _, f := range cfg.WedgePEs {
		j.plane.Ledger().Open("pe", "wedge", f.Rank, obs.InstJob, f.At)
	}
	seedRailTelemetry(j.plane, &cfg)

	j.sub = newSubstrate(&cfg, j.plane)
	j.res = &Result{Cfg: cfg, PEs: make([]PEResult, cfg.NP), Obs: j.plane, LaunchVT: j.sub.launchVT}
	for _, h := range j.sub.hcas {
		j.census.Register(h)
	}
	j.census.Register(j.sub.srv)
	j.census.Register(vclockReporter{clks: j.sub.clks, bars: j.sub.bars})
	j.census.Register(engineReporter{res: j.res, baseHW: baseHW})
	j.census.Snapshot("setup", 0)

	if j.census != nil {
		// The init-done census is the point Fig. 5(a)'s per-PE memory is
		// defined at: it must see post-init state, not the first application
		// puts, so the PEs wait for it.
		j.initWG.Add(cfg.NP)
		j.censusReady = make(chan struct{})
		go func() {
			j.initWG.Wait()
			j.census.Snapshot("init-done", maxClockVT(j.sub.clks))
			close(j.censusReady)
		}()
		if cfg.MemstatsEvery > 0 {
			j.stopSampler = startSampler(j.census, j.sub.clks, cfg.MemstatsEvery)
		}
	}
	j.wd = newWatchdog(cfg, j.sub)
	return j
}

// startSampler is the -memstats-every soak sampler: wall-clock runtime
// observations stamped at the engine's current virtual frontier. The returned
// stop joins it — its stack references the job, which it must not outlive.
func startSampler(census *obs.Census, clks []*vclock.Clock, every time.Duration) (stop func()) {
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				census.ObserveRuntime(maxClockVT(clks))
			}
		}
	}()
	return func() { close(done); <-stopped }
}

// runPE is one PE's life under launch: start_pes, the init-done gate, the
// application, finalize, and its slot of the result.
func (j *job) runPE(env shmem.Env) {
	rank, clk := env.Rank, env.Clock
	env.Obs = j.plane.PE(rank)
	var ctx *shmem.Ctx
	defer func() {
		if p := recover(); p != nil {
			j.peDied(rank, clk, ctx, p)
		}
	}()
	ctx = j.attachPE(env)
	if j.censusReady != nil {
		// Hold every PE at the init boundary until the census has read
		// post-attach state. Pure real-time synchronization: no clock
		// advances, so virtual-time results are unchanged.
		<-j.censusReady
	}
	appVT := clk.Now()
	j.app(ctx)
	env.Obs.Span(appVT, clk.Now(), obs.LayerCluster, "app", -1, 0)
	// Snapshot resource counters before finalize so Table I / Fig. 9
	// metrics reflect the application, not the teardown barrier.
	stats := ctx.Stats()
	finVT := clk.Now()
	ctx.Finalize()
	env.Obs.Span(finVT, clk.Now(), obs.LayerCluster, "finalize", -1, 0)
	exit := 0
	if err := ctx.Err(); err != nil {
		// The job aborted but this PE was never blocked on the dead peer; it
		// still exits nonzero, like a process killed by the launcher during
		// teardown.
		if code, ok := exitCodeForErr(err); ok {
			exit = code
		} else {
			exit = 1
		}
	}
	j.res.PEs[rank] = PEResult{
		Rank:     rank,
		Phases:   ctx.Phases(),
		FinalVT:  clk.Now(),
		Stats:    stats,
		ExitCode: exit,
	}
}

// attachPE runs start_pes on one PE, hands its conduit to the watchdog and the
// census, raises the goroutine high-water mark, and arrives at the init-done
// gate — exactly once, on a panic unwind too, so a crashed PE can never
// strand the gate, and before runPE's handler runs: its best-effort Finalize
// may block on peers that are themselves parked on the gate.
func (j *job) attachPE(env shmem.Env) *shmem.Ctx {
	if j.censusReady != nil {
		defer j.initWG.Done()
	}
	cfg, clk := &j.res.Cfg, env.Clock
	env.Obs.Span(0, j.sub.launchVT, obs.LayerCluster, "launch", -1, 0)
	attachVT := clk.Now()
	ctx := shmem.Attach(env, shmem.Options{
		Mode: cfg.Mode, BlockingPMI: cfg.BlockingPMI, SegEx: cfg.SegEx, HeapSize: cfg.HeapSize,
		GlobalInitBarriers: cfg.GlobalInitBarriers,
		MaxLiveRC:          cfg.MaxLiveRC,
		Heartbeat:          cfg.Heartbeat,
	})
	env.Obs.Span(attachVT, clk.Now(), obs.LayerCluster, "init", -1, 0)
	j.wd.register(env.Rank, ctx.Conduit())
	j.census.Register(ctx.Conduit())
	j.census.Register(ctx)
	noteGoroutines()
	return ctx
}

// peDied handles a panic out of one PE. A controlled job abort (the runtime
// layers panic with wrapped liveness errors) becomes the PE's exit status;
// anything else is a launcher bug and is re-raised into launch's handler.
// ctx is nil when the PE died inside start_pes.
func (j *job) peDied(rank int, clk *vclock.Clock, ctx *shmem.Ctx, p any) {
	code, controlled := exitCodeForPanic(p)
	if controlled {
		pr := PEResult{Rank: rank, ExitCode: code, FinalVT: clk.Now()}
		if ctx != nil {
			pr.Phases = ctx.Phases()
			pr.Stats = ctx.Stats()
		}
		j.res.PEs[rank] = pr
	}
	if ctx != nil {
		// Best-effort finalize so surviving PEs are not stranded in the
		// teardown barrier. A panic inside a collective can still leave
		// peers blocked; the launcher only guarantees recovery for
		// application level panics between collectives.
		func() {
			defer func() { _ = recover() }()
			ctx.Finalize()
		}()
	}
	if !controlled {
		panic(p)
	}
}

// collect turns the PEs' slots into the job's result once every PE has
// exited: abort state, the start_pes and job-time aggregates, adapter
// counters, and the end-of-job accounting of every observability plane.
func (j *job) collect() *Result {
	res, plane := j.res, j.plane
	if n, ok := j.sub.srv.Aborted(); ok {
		res.Aborted = true
		res.AbortReason = n.Reason
	}
	if fired, reason, dump := j.wd.result(); fired {
		res.Aborted = true
		res.AbortReason = reason
		res.Dump = dump
	}
	var initSum, finalMax int64
	for _, p := range res.PEs {
		if p.ExitCode != 0 {
			res.Aborted = true
		}
		init := p.Phases.Total()
		initSum += init
		res.InitMax = max(res.InitMax, init)
		finalMax = max(finalMax, p.FinalVT)
	}
	res.InitAvg = initSum / int64(len(res.PEs))
	res.JobVT = finalMax + j.sub.model.TeardownBase
	for _, h := range j.sub.fab.HCAs() {
		res.HCA = append(res.HCA, h.Stats())
	}
	// Resolve incidents still open at job end before any report is built:
	// the sweep is what turns leftover-open into closed/aborted/unresolved,
	// and the registry mirror below wants final timestamps.
	plane.Ledger().Sweep(res.JobVT, res.Aborted)
	// The job-end census is taken before the reconciliation and the registry
	// mirrors below so neither can perturb the measured heap. Its forced
	// collection is the only one a job pays: with engine telemetry off,
	// O(NP^2) dead protocol objects after large static jobs are left to the
	// normal GC pacer.
	j.census.Snapshot("job-end", res.JobVT)
	res.Footprint = j.census.BuildReport()
	res.Incidents = buildIncidentReport(res)
	mirrorCounters(plane, res)
	mirrorIncidents(plane)
	return res
}
