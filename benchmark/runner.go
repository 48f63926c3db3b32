package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"goshmem/internal/cluster"
	"goshmem/internal/shmem"
)

// Every layer is measured from outside: the runner times calls into
// cluster.Run and wraps the application body with two clock reads per PE.
// Nothing under internal/ knows it is being benchmarked.

const (
	minTimedJobs = 3 // a median of three absorbs one outlier job
	setupRepeats = 3 // setup_s and heap_live_mb are medians over this many set-ups
	mb           = 1 << 20
)

// jobResult is what one successful job contributes.
type jobResult struct {
	wall, cpu              float64   // seconds, cluster.Run call → return, exports included
	toBody, body, teardown float64   // tile wall: first PE enters the body, last PE leaves it
	pe                     []float64 // per-PE body seconds
	export                 float64   // seconds inside the exporters
	ops                    int64
	jobVT                  int64
	counters               map[string]float64 // section D

	traced                                bool // the rest is read only when tracing
	allocMB, mallocs, gcCycles, gcPauseMS float64
	heapPeakMB                            float64
	heapBytesPerPE                        map[string]float64 // footprint job: census bytes by subsystem
	goroutinesPerPE, heapMB               float64            // warm-up job: read at the parked point
}

// parkPoint is the host-level barrier of the warm-up job: PEs that have left
// the body wait here, outside virtual time and outside SHMEM, until every PE
// has, and one of them reads the live heap before any enters Finalize.
type parkPoint struct {
	left sync.WaitGroup
	once sync.Once
	read func()
}

func (p *parkPoint) wait() {
	p.left.Wait()
	p.once.Do(p.read)
}

type jobOpts struct {
	deadline int64 // virtual ns; 0 for the warm-up job, which calibrates it
	park     bool  // the warm-up job: park the PEs after the body and read the live heap
	traced   bool
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapSampler polls the heap's object bytes every 10 ms and keeps the peak.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > s.peak {
				s.peak = v
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *heapSampler) finish() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// runJob runs one job and measures it. A job that errors, aborts, trips a
// watchdog, leaves a PE with a non-zero exit code or fails its oracle is
// returned as an error and contributes no sample.
func runJob(j *job, o jobOpts) (*jobResult, error) {
	np := j.cfg.NP
	cfg := j.cfg
	cfg.StallTimeout = stallTimeout
	cfg.Deadline = o.deadline

	jr := &jobResult{traced: o.traced}
	enter := make([]time.Time, np)
	leave := make([]time.Time, np)
	var park *parkPoint
	if o.park {
		base := liveHeap() // before anything of the job is built
		park = &parkPoint{read: func() {
			jr.goroutinesPerPE = float64(runtime.NumGoroutine()) / float64(np)
			jr.heapMB = (float64(liveHeap()) - float64(base)) / mb
		}}
		park.left.Add(np)
	}
	body := func(c *shmem.Ctx) {
		me := c.Me()
		enter[me] = time.Now()
		if park == nil {
			j.body(c)
			leave[me] = time.Now()
			return
		}
		func() {
			// Deferred so a PE that unwinds out of an aborted job still
			// counts as having left, and the PEs already parked are released.
			defer park.left.Done()
			j.body(c)
			leave[me] = time.Now()
		}()
		park.wait()
	}

	var before, after runtime.MemStats
	var sampler *heapSampler
	if o.traced {
		runtime.ReadMemStats(&before)
		sampler = startHeapSampler()
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	res, err := cluster.Run(cfg, body)
	if err == nil && j.export != nil {
		te := time.Now()
		err = j.export(res)
		jr.export = time.Since(te).Seconds()
	}
	t1 := time.Now()
	jr.cpu = cpuSeconds() - cpu0
	if o.traced {
		jr.heapPeakMB = float64(sampler.finish()) / mb
		runtime.ReadMemStats(&after)
		jr.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / mb
		jr.mallocs = float64(after.Mallocs - before.Mallocs)
		jr.gcCycles = float64(after.NumGC - before.NumGC)
		jr.gcPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	}
	if err != nil {
		return nil, err
	}
	if err := jobFault(res); err != nil {
		return nil, err
	}
	if err := j.verify(res); err != nil {
		return nil, err
	}

	first, last := enter[0], leave[0]
	jr.pe = make([]float64, np)
	for r := 0; r < np; r++ {
		if leave[r].IsZero() {
			return nil, fmt.Errorf("PE %d never left the body", r)
		}
		if enter[r].Before(first) {
			first = enter[r]
		}
		if leave[r].After(last) {
			last = leave[r]
		}
		jr.pe[r] = leave[r].Sub(enter[r]).Seconds()
	}
	jr.wall = t1.Sub(t0).Seconds()
	jr.toBody = first.Sub(t0).Seconds()
	jr.body = last.Sub(first).Seconds()
	jr.teardown = t1.Sub(last).Seconds()
	jr.ops = j.ops()
	jr.jobVT = res.JobVT
	jr.counters = readCounters(res)
	if fp := res.Footprint; fp != nil && len(fp.Snapshots) > 0 {
		jr.heapBytesPerPE = make(map[string]float64)
		for sub, b := range fp.Snapshots[len(fp.Snapshots)-1].SubsystemHeapBytes() {
			jr.heapBytesPerPE[sub] = float64(b) / float64(np)
		}
	}
	return jr, nil
}

// readCounters reads section D: the work counts the program already
// exports. This is the only place the benchmark touches the counter structs,
// so a change to how they are declared has one function to follow here.
func readCounters(res *cluster.Result) map[string]float64 {
	var conns, rcQPs, ams, puts int64
	c := map[string]float64{
		"cluster.vt_job_s":     float64(res.JobVT) / 1e9,
		"shmem.vt_start_pes_s": float64(res.InitAvg) / 1e9,
	}
	for _, pe := range res.PEs {
		s := pe.Stats
		conns += int64(s.ConnsEstablished)
		rcQPs += int64(s.RCQPsCreated)
		ams += s.AMsSent
		puts += s.PutsIssued
		c["gasnet.retransmits"] += float64(s.Retransmits)
		c["gasnet.reconnects"] += float64(s.Reconnects)
		c["gasnet.link_faults"] += float64(s.LinkFaults)
		c["gasnet.integrity_retransmits"] += float64(s.IntegrityRetransmits)
		c["gasnet.dup_ops_suppressed"] += float64(s.DupOpsSuppressed)
		c["gasnet.corrupt_frames"] += float64(s.CorruptFrames + s.RCCorruptFrames)
	}
	np := float64(len(res.PEs))
	c["gasnet.conns_per_pe"] = float64(conns) / np
	c["gasnet.rc_qps_per_pe"] = float64(rcQPs) / np
	c["gasnet.ams_per_pe"] = float64(ams) / np
	c["gasnet.puts_per_pe"] = float64(puts) / np
	for _, h := range res.HCA {
		c["ib.msgs_delivered"] += float64(h.MsgsDelivered)
		c["ib.bytes_delivered"] += float64(h.BytesDelivered)
		c["ib.qps_created"] += float64(h.QPsCreatedUD + h.QPsCreatedRC)
		c["ib.cache_misses"] += float64(h.CacheMisses)
	}
	return c
}

// warmUp is one set-up: inputs, oracle job, and a warm-up job of the exact
// workload shape whose parked point gives the live-heap reading.
type warmUp struct {
	plan     *plan
	seconds  float64
	job      *jobResult
	deadline int64
}

func setUp(w *workload, seed int64, toy bool) (*warmUp, error) {
	t0 := time.Now()
	pl, err := w.plan(seed, toy)
	if err != nil {
		return nil, err
	}
	jr, err := runJob(pl.newJob(), jobOpts{park: true})
	if err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return &warmUp{plan: pl, seconds: time.Since(t0).Seconds(), job: jr, deadline: 20 * jr.jobVT}, nil
}

// check is one oracle or exactness verdict, reported under "checks".
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// value is one reported metric: the median of its samples.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`
	Bound   float64   `json:"bound,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is one run of one workload.
type workloadResult struct {
	Name          string           `json:"name"`
	OpUnit        string           `json:"op_unit"`
	Seed          int64            `json:"seed"`
	Seconds       float64          `json:"seconds"`
	Traced        bool             `json:"traced"`
	JobsAttempted int              `json:"jobs_attempted"`
	JobsFailed    int              `json:"jobs_failed"`
	Metrics       map[string]value `json:"metrics,omitempty"` // end-to-end, untraced runs only
	Layers        map[string]value `json:"layers"`            // per-layer
	Checks        []check          `json:"checks"`
	Ladder        string           `json:"ladder,omitempty"` // "unavailable: <error>" when it is
}

func (r *workloadResult) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.JobsAttempted > r.JobsFailed
}

type runOpts struct {
	seed    int64
	seconds float64
	toy     bool
	traced  bool
	ladder  string // command that runs the ladder program
	// rungs carries section A when -all has already climbed the ladder once;
	// ladderErr is why it could not.
	rungs     map[string]float64
	ladderErr error
	log       io.Writer
}

// timedLoop runs jobs back to back for o.seconds (at least minTimedJobs),
// forcing a collection between jobs outside every timed window. In a traced
// run every other job is traced, so both kinds see the same machine.
func timedLoop(w *workload, wu *warmUp, o runOpts, r *workloadResult) []*jobResult {
	var jobs []*jobResult
	start := time.Now()
	for k := 0; k < minTimedJobs || time.Since(start).Seconds() < o.seconds; k++ {
		if r.JobsFailed >= minTimedJobs && len(jobs) == 0 {
			break // nothing but failures: do not spin for the whole window
		}
		runtime.GC()
		r.JobsAttempted++
		jr, err := runJob(wu.plan.newJob(), jobOpts{deadline: wu.deadline, traced: o.traced && k%2 == 1})
		if err != nil {
			r.JobsFailed++
			r.Checks = append(r.Checks, check{Name: fmt.Sprintf("job %d", k), Detail: err.Error()})
			fmt.Fprintf(o.log, "%s: job %d failed: %v\n", w.name, k, err)
			continue
		}
		jobs = append(jobs, jr)
	}
	return jobs
}

// exactness checks what must repeat exactly across the jobs of one run. A
// mismatch is a changed behaviour, not noise: it marks the run's jobs failed.
func exactness(w *workload, jobs []*jobResult, r *workloadResult) {
	var names []string
	if w.exactStart {
		names = append(names, "shmem.vt_start_pes_s")
	}
	if !w.faulted {
		// Application-issued op counts are a pure function of the seed.
		names = append(names, "gasnet.puts_per_pe", "gasnet.ams_per_pe")
	}
	for _, name := range names {
		c := check{Name: "exact." + name, OK: true}
		for _, j := range jobs[1:] {
			if a, b := jobs[0].counters[name], j.counters[name]; math.Float64bits(a) != math.Float64bits(b) {
				c.OK = false
				c.Detail = fmt.Sprintf("%v in one job, %v in another", a, b)
				break
			}
		}
		if !c.OK {
			r.JobsFailed = r.JobsAttempted
		}
		r.Checks = append(r.Checks, c)
	}
}

// runWorkload is one run: set-up, timed loop, checks, medians.
func runWorkload(w *workload, o runOpts) (*workloadResult, error) {
	r := &workloadResult{Name: w.name, OpUnit: w.opUnit, Seed: o.seed, Seconds: o.seconds,
		Traced: o.traced, Layers: map[string]value{}}

	repeats := setupRepeats
	if o.traced || o.toy {
		repeats = 1 // a traced run reports no set-up time
	}
	var wu *warmUp
	var setupS, heapMB []float64
	for i := 0; i < repeats; i++ {
		wu = nil // let the previous set-up's job be collected before the next baseline
		var err error
		if wu, err = setUp(w, o.seed, o.toy); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, wu.seconds)
		heapMB = append(heapMB, wu.job.heapMB)
	}

	jobs := timedLoop(w, wu, o, r)
	if len(jobs) == 0 {
		return r, nil
	}
	r.Checks = append(r.Checks, check{Name: "oracle.timed-jobs", OK: r.JobsFailed == 0,
		Detail: fmt.Sprintf("%d of %d jobs matched", len(jobs), r.JobsAttempted)})
	exactness(w, jobs, r)

	for _, m := range counterMetrics {
		name := m.Name
		report(r.Layers, name, median(m.Unit, column(jobs, func(j *jobResult) float64 { return j.counters[name] })))
	}
	if o.traced {
		tracedLayers(w, wu, o, r, jobs)
		return r, nil
	}
	opsPerS := func(j *jobResult) float64 { return float64(j.ops) / j.body }
	if w.wholeJob {
		opsPerS = func(j *jobResult) float64 { return float64(j.ops) / j.wall }
	}
	samples := map[string][]float64{
		"setup_s":      setupS,
		"heap_live_mb": heapMB,
		"job_wall_s":   column(jobs, func(j *jobResult) float64 { return j.wall }),
		"job_cpu_s":    column(jobs, func(j *jobResult) float64 { return j.cpu }),
		"ops_per_s":    column(jobs, opsPerS),
	}
	r.Metrics = map[string]value{}
	for _, m := range endToEnd {
		v := median(m.Unit, samples[m.Name])
		v.Bound = m.Bound
		report(r.Metrics, m.Name, v)
	}
	return r, nil
}

func column(jobs []*jobResult, f func(*jobResult) float64) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = f(j)
	}
	return out
}

// median summarises samples as their median, keeping the samples so that
// -compare can take quartiles. Non-finite samples (a ratio over a count that
// was zero) are dropped; with none left the value is NaN and N is 0, and
// report leaves the metric out.
func median(unit string, samples []float64) value {
	v := value{Unit: unit, Value: math.NaN()}
	for _, x := range samples {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			v.Samples = append(v.Samples, x)
		}
	}
	v.N = len(v.Samples)
	if v.N == 0 {
		return v
	}
	s := append([]float64(nil), v.Samples...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		v.Value = s[n/2]
	} else {
		v.Value = (s[n/2-1] + s[n/2]) / 2
	}
	return v
}

// report stores a metric that has at least one sample.
func report(into map[string]value, name string, v value) {
	if v.N > 0 {
		into[name] = v
	}
}
