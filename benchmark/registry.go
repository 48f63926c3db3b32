package main

import (
	"encoding/json"
	"slices"
	"strings"
)

// The registry is the one declaration of every name the benchmark prints:
// BENCHMARK.json is generated from it (-manifest) and the smoke test fails
// when the committed file and this table disagree.

// runSeconds is how long one run measures; BENCHMARK.json's run_seconds.
const runSeconds = 8

// e2eMetric is an end-to-end metric: measured with tracing off, reported as
// the median over a run's timed jobs, and held to a regression bound (the
// share of the parent's median by which it may worsen).
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerMetric is a per-layer metric: the module prefix of its name is the
// layer it measures. Per-layer metrics carry no bound.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the end-to-end metrics in print order. All are host
// quantities; the job's virtual time is the per-layer cluster.vt_job_s.
//
// The bounds are what a 2-vCPU shared VM resolves, not what one would wish:
// ten runs of one commit spread (interquartile, over the median) by up to 14%
// on the memory-bound workloads, and a bound must stay clear of that.
var endToEnd = []e2eMetric{
	{"setup_s", "s", lower, 0.25},
	{"job_wall_s", "s", lower, 0.25},
	{"job_cpu_s", "s", lower, 0.25},
	{"ops_per_s", "op/s", higher, 0.25},
	{"heap_live_mb", "MB", lower, 0.10},
}

// The sections of perLayer, by what produces them.
var (
	ladderMetrics = layerSection(`
vclock.advance_ns ns lower
vclock.barrier16_ns ns lower
ib.ud_send_64_ns ns lower
ib.ud_send_64_allocs count lower
ib.rc_send_64_ns ns lower
ib.rc_send_64_allocs count lower
ib.qp_create_rts_ns ns lower
ib.qp_create_rts_allocs count lower
ib.qp_create_rts_bytes B lower
ib.mr_register_64k_ns ns lower
ib.rdma_write_8_ns ns lower
ib.rdma_write_8_allocs count lower
ib.rdma_write_64k_ns ns lower
ib.rdma_read_8_ns ns lower
ib.rdma_read_8_allocs count lower
ib.atomic_fadd_ns ns lower
pmi.put_fence_get_64_ns ns lower
pmi.iallgather_64_ns ns lower
gasnet.new_512_ns ns lower
gasnet.new_512_allocs count lower
gasnet.new_512_bytes B lower
gasnet.handshake_ns ns lower
gasnet.handshake_allocs count lower
gasnet.handshake_bytes B lower
gasnet.put_8_ns ns lower
gasnet.put_8_allocs count lower
gasnet.put_64k_ns ns lower
gasnet.get_8_ns ns lower
gasnet.get_8_allocs count lower
gasnet.fadd_ns ns lower
gasnet.fadd_allocs count lower
gasnet.am_rtt_ns ns lower
gasnet.am_rtt_allocs count lower
gasnet.put_8_armed_ns ns lower
gasnet.put_8_armed_allocs count lower
gasnet.am_rtt_armed_ns ns lower
gasnet.am_rtt_armed_allocs count lower
shmem.put_8_ns ns lower
shmem.put_8_allocs count lower
shmem.put_64k_ns ns lower
shmem.get_8_ns ns lower
shmem.get_8_allocs count lower
shmem.fadd_ns ns lower
shmem.fadd_allocs count lower
shmem.put_signal_ns ns lower
shmem.put_signal_allocs count lower
shmem.wait_until_rtt_ns ns lower
shmem.barrier_all_16_ns ns lower
shmem.barrier_all_16_allocs count lower
shmem.reduce_16_ns ns lower
shmem.reduce_16_allocs count lower
gasnet.put_8_self_ns ns lower
shmem.put_8_self_ns ns lower
gasnet.get_8_self_ns ns lower
shmem.get_8_self_ns ns lower
gasnet.fadd_self_ns ns lower
shmem.fadd_self_ns ns lower
obs.nop_emit_ns ns lower
obs.emit_ns ns lower`)

	splitMetrics = layerSection(`
cluster.startup_launch_s s lower
gasnet.startup_new_s s lower
gasnet.startup_exchange_s s lower
gasnet.startup_register_heap_s s lower
gasnet.startup_connect_all_s s lower
shmem.startup_attach_s s lower
shmem.startup_attach_self_s s lower`)

	spanMetrics = layerSection(`
cluster.to_body_s s lower
cluster.body_s s lower
cluster.teardown_s s lower
apps.body_pe_p50_s s lower
apps.body_pe_max_s s lower
cluster.trace_overhead_frac ratio lower
cluster.alloc_mb_per_job MB lower
cluster.mallocs_per_job count lower
cluster.gc_cycles_per_job count lower
cluster.gc_pause_ms_per_job ms lower
cluster.heap_peak_mb MB lower
cluster.goroutines_per_pe count lower
cluster.wall_ns_per_msg ns lower`)

	// The program's own exports, read from cluster.Result after every job.
	// Virtual times carry the unit virtual_s: cost-model output, which a
	// change that only speeds the engine up must leave where it is.
	counterMetrics = layerSection(`
cluster.vt_job_s virtual_s lower
shmem.vt_start_pes_s virtual_s lower
gasnet.conns_per_pe count lower
gasnet.rc_qps_per_pe count lower
gasnet.ams_per_pe count lower
gasnet.puts_per_pe count lower
ib.msgs_delivered count lower
ib.bytes_delivered B lower
ib.qps_created count lower
ib.cache_misses count lower
gasnet.retransmits count lower
gasnet.reconnects count lower
gasnet.link_faults count lower
gasnet.integrity_retransmits count lower
gasnet.dup_ops_suppressed count lower
gasnet.corrupt_frames count lower`)

	censusMetrics = layerSection(`
ib.heap_bytes_per_pe B lower
gasnet.heap_bytes_per_pe B lower
shmem.heap_bytes_per_pe B lower
pmi.heap_bytes_per_pe B lower
vclock.heap_bytes_per_pe B lower
obs.heap_bytes_per_pe B lower
cluster.heap_bytes_per_pe B lower`)

	obsPairMetrics = layerSection(`
obs.enabled_overhead_frac ratio lower
obs.export_s s lower`)
)

// perLayer is every per-layer metric in print order, sections A to F.
var perLayer = slices.Concat(ladderMetrics, splitMetrics, spanMetrics, counterMetrics, censusMetrics, obsPairMetrics)

// layerSection parses "name unit better" lines into metrics.
func layerSection(table string) []layerMetric {
	var out []layerMetric
	for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
		f := strings.Fields(line)
		out = append(out, layerMetric{Name: f[0], Unit: f[1], Better: f[2]})
	}
	return out
}

// manifest renders BENCHMARK.json from the registry and the workload table.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []wl          `json:"workloads"`
		EndToEnd   []e2eMetric   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
