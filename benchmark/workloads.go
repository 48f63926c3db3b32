package main

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"goshmem/internal/apps/heat2d"
	"goshmem/internal/apps/traffic"
	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
)

// A workload is a closed loop of identical simulated jobs, one
// cluster.Run(cfg, body) call at a time from this one process. The table
// below is the catalogue; README.md repeats it with the reasons at length.
type workload struct {
	name   string
	why    string // BENCHMARK.json's one-line reason
	opUnit string // what ops_per_s counts
	// exactStart marks workloads whose start_pes virtual time must be
	// bit-identical across jobs: fault-free on-demand startup exchanges no
	// message with another node, so nothing in it depends on the schedule.
	exactStart bool
	// wholeJob makes ops_per_s divide by the whole job's wall, not the body
	// phase: the startup workloads, whose body is empty.
	wholeJob bool
	// faulted marks the workload that arms the fault injector; the others
	// must repeat their application op counts exactly.
	faulted bool
	// plan generates the inputs from the seed and runs the oracle job.
	plan func(seed int64, toy bool) (*plan, error)
}

// plan is a workload with its inputs generated and its oracle known.
type plan struct {
	newJob func() *job
}

// job is one cluster.Run of a plan. Every job of a plan is identical; the
// state its closures share (result slots, a fresh fault injector) is per job.
type job struct {
	cfg  cluster.Config
	body func(c *shmem.Ctx)
	// export, when set, runs inside the timed window after cluster.Run.
	export func(res *cluster.Result) error
	// ops is the application operations the job performed; verify checks the
	// job's output against the oracle. Both are called after the job.
	ops    func() int64
	verify func(res *cluster.Result) error
}

const stallTimeout = 30 * time.Second

var workloads = []workload{
	{
		name:       "startup_ondemand",
		why:        "np 4096 hello, on-demand: launch, PMI allgather, attach and seg-dir do the work; connection code idles",
		opUnit:     "PE started and finalized",
		exactStart: true,
		wholeJob:   true,
		plan: func(_ int64, toy bool) (*plan, error) {
			return startupPlan(pick(toy, 16, 4096), pick(toy, 4, 16), gasnet.OnDemand), nil
		},
	},
	{
		name:     "startup_static",
		why:      "np 512 hello, static: eager all-pairs connect, so gasnet handshakes and ib QP and CQ code do the work",
		opUnit:   "PE started and finalized",
		wholeJob: true,
		plan: func(_ int64, toy bool) (*plan, error) {
			return startupPlan(pick(toy, 16, 512), pick(toy, 4, 16), gasnet.Static), nil
		},
	},
	{
		name:       "rma_small",
		why:        "np 4, a million 8-byte put/get/atomic/signal ops on live connections: the steady-state data plane",
		opUnit:     "SHMEM put/get/fetch-add/put-signal call",
		exactStart: true,
		plan:       rmaPlan,
	},
	{
		name:       "app_heat2d",
		why:        "np 64 BSP stencil: halo puts, WaitUntil wake-ups and a reduce; stresses sync, collectives, vclock barriers",
		opUnit:     "PE-iteration",
		exactStart: true,
		plan:       heatPlan,
	},
	{
		name:       "app_traffic",
		why:        "np 64 zipf mix over ~55 peers per PE: on-demand handshakes mid-run under puts, gets, atomics, bulk puts",
		opUnit:     "SHMEM put/get/fetch-add call",
		exactStart: true,
		plan: func(seed int64, toy bool) (*plan, error) {
			return trafficPlan(seed, toy, false, false)
		},
	},
	{
		name:       "app_traffic_obs",
		why:        "app_traffic with every obs plane on and the four exporters inside the job: the enabled-path budget",
		opUnit:     "SHMEM put/get/fetch-add call",
		exactStart: true,
		plan: func(seed int64, toy bool) (*plan, error) {
			return trafficPlan(seed, toy, true, false)
		},
	},
	{
		name:    "chaos_traffic",
		why:     "np 32 traffic under drops, dups, flaps, corruption and torn writes: recovery paths and their wall-clock timers",
		opUnit:  "SHMEM put/get/fetch-add call",
		faulted: true,
		plan: func(seed int64, toy bool) (*plan, error) {
			return trafficPlan(seed, toy, false, true)
		},
	},
}

func pick(toy bool, small, full int) int {
	if toy {
		return small
	}
	return full
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// allObs is every plane app_traffic_obs and the obs-pair job switch on.
var allObs = obs.Config{Events: true, Metrics: true, Flows: true, Gauges: true, Incidents: true}

// exportAll runs the four exporters a telemetry user would, to io.Discard.
func exportAll(res *cluster.Result) error {
	if err := cluster.BuildReport(res).WriteJSON(io.Discard); err != nil {
		return err
	}
	if err := res.Obs.WritePerfetto(io.Discard); err != nil {
		return err
	}
	cluster.BuildTopology(res)
	return obs.WriteGaugeCSV(io.Discard, res.Obs.Gauges().Series(obs.DefaultGaugeTick))
}

// runClean runs an oracle job: same watchdog as a timed job, no deadline.
func runClean(cfg cluster.Config, body func(c *shmem.Ctx)) error {
	cfg.StallTimeout = stallTimeout
	res, err := cluster.Run(cfg, body)
	if err != nil {
		return err
	}
	return jobFault(res)
}

// jobFault reports why a finished job may not contribute a sample.
func jobFault(res *cluster.Result) error {
	if res.Aborted {
		return fmt.Errorf("job aborted: %s", res.AbortReason)
	}
	for _, pe := range res.PEs {
		if pe.ExitCode != 0 {
			return fmt.Errorf("PE %d exited with code %d", pe.Rank, pe.ExitCode)
		}
	}
	return nil
}

// startupPlan is hello world: the body only counts the PEs that reached it.
func startupPlan(np, ppn int, mode gasnet.Mode) *plan {
	cfg := cluster.Config{NP: np, PPN: ppn, Mode: mode, HeapSize: 64 << 10}
	return &plan{newJob: func() *job {
		var reached atomic.Int64
		return &job{
			cfg:  cfg,
			body: func(*shmem.Ctx) { reached.Add(1) },
			ops:  func() int64 { return int64(np) },
			verify: func(*cluster.Result) error {
				if n := reached.Load(); n != int64(np) {
					return fmt.Errorf("%d of %d PEs reached the body", n, np)
				}
				return nil
			},
		}
	}}
}

func rmaPlan(seed int64, toy bool) (*plan, error) {
	opsPerPE := pick(toy, 500, 250_000)
	in := genRMA(seed, opsPerPE)
	cfg := cluster.Config{NP: rmaNP, PPN: rmaNP / 2, Mode: gasnet.OnDemand, HeapSize: 1 << 20}
	return &plan{newJob: func() *job {
		var bad atomic.Int64
		return &job{
			cfg:    cfg,
			body:   func(c *shmem.Ctx) { rmaBody(c, in, &bad) },
			ops:    func() int64 { return int64(rmaNP * opsPerPE) },
			verify: func(*cluster.Result) error { return rmaVerdict(bad.Load()) },
		}
	}}, nil
}

func heatPlan(_ int64, toy bool) (*plan, error) {
	np := pick(toy, 8, 64)
	p := heat2d.Params{NX: pick(toy, 32, 256), NY: pick(toy, 64, 1024),
		MaxIters: pick(toy, 20, 1000), CheckEvery: 10, Tol: 0}
	cfg := cluster.Config{NP: np, PPN: pick(toy, 4, 16), Mode: gasnet.OnDemand, HeapSize: 1 << 20}

	// Rank 0's checksum is the job's output; the oracle is the same solve
	// over the fully connected transport, which may never change a result.
	run := func(sum *uint64) func(c *shmem.Ctx) {
		return func(c *shmem.Ctx) {
			r := heat2d.Run(c, p)
			if c.Me() == 0 {
				atomic.StoreUint64(sum, math.Float64bits(r.Checksum))
			}
		}
	}
	var want uint64
	oracle := cfg
	oracle.Mode = gasnet.Static
	if err := runClean(oracle, run(&want)); err != nil {
		return nil, fmt.Errorf("app_heat2d oracle: %w", err)
	}
	return &plan{newJob: func() *job {
		var got uint64
		return &job{
			cfg:  cfg,
			body: run(&got),
			ops:  func() int64 { return int64(np * p.MaxIters) },
			verify: func(*cluster.Result) error {
				if g := atomic.LoadUint64(&got); g != want {
					return fmt.Errorf("app_heat2d: checksum bits %#x, static-mode oracle %#x", g, want)
				}
				return nil
			},
		}
	}}, nil
}

// trafficPlan covers the three traffic workloads: plain, with the obs planes
// and exporters on, and with the fault injector armed.
func trafficPlan(seed int64, toy, withObs, chaos bool) (*plan, error) {
	np, ppn, ops := pick(toy, 16, 64), pick(toy, 4, 16), pick(toy, 125, 2000)
	if chaos {
		np, ppn, ops = pick(toy, 8, 32), pick(toy, 4, 8), pick(toy, 100, 1000)
	}
	p := traffic.Params{SlotsPerPE: 6, Ops: ops, Epochs: 3, Pattern: "zipf", ZipfS: 1.3,
		GetFrac: 0.2, AddFrac: 0.3, QuietEvery: 32, BulkEvery: 25, Seed: seed}
	cfg := cluster.Config{NP: np, PPN: ppn, Mode: gasnet.OnDemand, HeapSize: 2 << 20}
	if withObs {
		cfg.Obs = allObs
	}

	type out struct {
		digest []uint64
		ops    []int64
	}
	run := func(o *out) func(c *shmem.Ctx) {
		o.digest, o.ops = make([]uint64, np), make([]int64, np)
		return func(c *shmem.Ctx) {
			r := traffic.Run(c, p)
			o.digest[c.Me()], o.ops[c.Me()] = r.Digest, r.Puts+r.Gets+r.Adds
		}
	}
	var want out
	oracle := cluster.Config{NP: np, PPN: ppn, Mode: gasnet.Static, HeapSize: cfg.HeapSize}
	if err := runClean(oracle, run(&want)); err != nil {
		return nil, fmt.Errorf("traffic oracle: %w", err)
	}
	return &plan{newJob: func() *job {
		var got out
		j := &job{cfg: cfg, body: run(&got)}
		if withObs {
			j.export = exportAll
		}
		if chaos {
			// Each class is capped at about half of what the uncapped job
			// injects (≈2800 drops, 1300 flaps, 3300 corruptions, 86 tears), so
			// the second half of the job is clean and teardown drains. Without
			// the caps the job's wall is Close's 3.2 s patience sleep, or, one
			// time in six, a 32 s retry ladder against a peer already gone.
			fi := ib.NewFaultInjector(seed)
			fi.DropProb, fi.DupProb, fi.FlapProb = 0.05, 0.05, 0.02
			fi.RCCorruptProb, fi.TornWriteProb = 0.05, 0.05
			fi.MaxDrops, fi.MaxFlaps = pick(toy, 35, 1400), pick(toy, 16, 660)
			fi.MaxRCCorrupts, fi.MaxTornWrites = pick(toy, 40, 1650), pick(toy, 1, 43)
			j.cfg.Faults = fi
		}
		j.ops = func() int64 {
			var n int64
			for _, v := range got.ops {
				n += v
			}
			return n
		}
		j.verify = func(res *cluster.Result) error {
			for r := range want.digest {
				if got.digest[r] != want.digest[r] {
					return fmt.Errorf("rank %d digest %#x, clean static-mode oracle %#x", r, got.digest[r], want.digest[r])
				}
			}
			if chaos {
				c := readCounters(res)
				if c["gasnet.retransmits"]+c["gasnet.reconnects"]+c["gasnet.integrity_retransmits"] == 0 {
					return fmt.Errorf("chaos_traffic: no retransmit, reconnect or replay recorded; the injector is disarmed")
				}
			}
			return nil
		}
		return j
	}}, nil
}
