package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// A traced run switches on what the end-to-end numbers are measured without:
// per-job MemStats reads, a 10 ms heap sampler, one job under the program's
// own footprint census, the app_traffic / app_traffic_obs pair, and the layer
// ladder. Half of its timed jobs stay untraced, so the difference between
// the two halves on the same machine is the tracing overhead.

func tracedLayers(w *workload, wu *warmUp, o runOpts, r *workloadResult, jobs []*jobResult) {
	var plain, traced []*jobResult
	for _, j := range jobs {
		if j.traced {
			traced = append(traced, j)
		} else {
			plain = append(plain, j)
		}
	}
	set := func(name string, samples []float64) {
		report(r.Layers, name, median(unitOf(name), samples))
	}
	plainWall := median("s", column(plain, func(j *jobResult) float64 { return j.wall })).Value

	// C. Job spans and runtime counters.
	set("cluster.to_body_s", column(traced, func(j *jobResult) float64 { return j.toBody }))
	set("cluster.body_s", column(traced, func(j *jobResult) float64 { return j.body }))
	set("cluster.teardown_s", column(traced, func(j *jobResult) float64 { return j.teardown }))
	set("apps.body_pe_p50_s", column(traced, func(j *jobResult) float64 { return median("s", j.pe).Value }))
	set("apps.body_pe_max_s", column(traced, func(j *jobResult) float64 { return slices.Max(j.pe) }))
	tracedWall := median("s", column(traced, func(j *jobResult) float64 { return j.wall })).Value
	set("cluster.trace_overhead_frac", []float64{tracedWall/plainWall - 1})
	set("cluster.alloc_mb_per_job", column(traced, func(j *jobResult) float64 { return j.allocMB }))
	set("cluster.mallocs_per_job", column(traced, func(j *jobResult) float64 { return j.mallocs }))
	set("cluster.gc_cycles_per_job", column(traced, func(j *jobResult) float64 { return j.gcCycles }))
	set("cluster.gc_pause_ms_per_job", column(traced, func(j *jobResult) float64 { return j.gcPauseMS }))
	set("cluster.heap_peak_mb", column(traced, func(j *jobResult) float64 { return j.heapPeakMB }))
	set("cluster.goroutines_per_pe", []float64{wu.job.goroutinesPerPE})
	set("cluster.wall_ns_per_msg", column(jobs, func(j *jobResult) float64 {
		return j.wall * 1e9 / j.counters["ib.msgs_delivered"]
	}))

	extra := func(what string, j *job, deadline int64) *jobResult {
		r.JobsAttempted++
		jr, err := runJob(j, jobOpts{deadline: deadline})
		if err != nil {
			r.JobsFailed++
			r.Checks = append(r.Checks, check{Name: what + " job", Detail: err.Error()})
			fmt.Fprintf(o.log, "%s: %s job failed: %v\n", w.name, what, err)
		}
		return jr
	}

	// E. Per-layer bytes, from the program's own job-end census.
	j := wu.plan.newJob()
	j.cfg.Obs.Footprint = true
	if jr := extra("footprint", j, wu.deadline); jr != nil {
		for _, m := range censusMetrics {
			set(m.Name, []float64{jr.heapBytesPerPE[strings.TrimSuffix(m.Name, ".heap_bytes_per_pe")]})
		}
	}

	// F. The obs pair: one app_traffic job and one app_traffic_obs job of this
	// seed, whatever the workload. (The startup shapes cannot stand in: with
	// events on, exporting a 512-PE static start-up takes 100 s.)
	var pair [2]*jobResult
	for i, withObs := range []bool{false, true} {
		pl, err := trafficPlan(o.seed, o.toy, withObs, false)
		if err != nil {
			r.Checks = append(r.Checks, check{Name: "obs pair", Detail: err.Error()})
			break
		}
		pair[i] = extra("obs pair", pl.newJob(), 0)
	}
	if off, on := pair[0], pair[1]; off != nil && on != nil {
		set("obs.enabled_overhead_frac", []float64{on.wall/off.wall - 1})
		set("obs.export_s", []float64{on.export})
	}

	// A and B. The ladder drives each layer's constructors directly, so it
	// lives in its own program: if a refactor breaks it, everything above
	// still measures and the gap is reported, not hidden.
	shape := wu.plan.newJob().cfg
	split := fmt.Sprintf("%d,%d,%s,%d", shape.NP, shape.PPN, shape.Mode, shape.HeapSize)
	args := []string{"-split", split}
	if o.rungs == nil {
		args = append(args, "-rungs")
	}
	if o.toy {
		args = append(args, "-iters", "100")
	}
	got, err := o.rungs, o.ladderErr
	if err == nil {
		got, err = runLadder(o.ladder, args)
	}
	if err != nil {
		r.Ladder = "unavailable: " + err.Error()
		fmt.Fprintf(o.log, "%s: ladder %s\n", w.name, r.Ladder)
		return
	}
	for name, v := range o.rungs {
		got[name] = v
	}
	for _, m := range slices.Concat(ladderMetrics, splitMetrics) {
		if v, ok := got[m.Name]; ok {
			set(m.Name, []float64{v})
		}
	}
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("benchmark: metric " + name + " is not in the registry")
}

// runLadder executes the ladder program and parses the JSON object of
// metric values it prints as its last line.
func runLadder(command string, args []string) (map[string]float64, error) {
	argv := append(strings.Fields(command), args...)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if i := strings.LastIndexByte(msg, '\n'); i >= 0 {
			msg = msg[i+1:]
		}
		return nil, fmt.Errorf("%s: %v: %s", argv[0], err, msg)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var got map[string]float64
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		return nil, fmt.Errorf("ladder output: %v", err)
	}
	return got, nil
}
