package cluster

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/obs"
)

var updateDocs = flag.Bool("update", false, "rewrite the generated Counters section of TELEMETRY.md")

const (
	telemetryDoc  = "../../TELEMETRY.md"
	countersBegin = "<!-- counters:begin (generated from the struct tags of gasnet.Stats, ib.HCAStats and ib.Injected; regenerate with `go test ./internal/cluster -run TestTelemetryCountersDoc -update`) -->\n"
	countersEnd   = "<!-- counters:end -->\n"
)

// renderCounterRows is the TELEMETRY.md Counters table: one row per counter
// def, in declaration order, conduit first.
func renderCounterRows() string {
	var b strings.Builder
	b.WriteString("| Counter | Meaning |\n|---|---|\n")
	row := func(d obs.CounterDef, _ int64) {
		mark := ""
		if d.FaultFreeNonzero {
			mark = " •"
		}
		fmt.Fprintf(&b, "| `%s`%s | %s |\n", d.Name, mark, d.Help)
	}
	obs.EachCounter(gasnet.Stats{}, row)
	obs.EachCounter(ib.HCAStats{}, row)
	obs.EachCounter(ib.Injected{}, row)
	return b.String()
}

// TestTelemetryCountersDoc keeps the doc and the code from disagreeing: the
// Counters table in TELEMETRY.md must be exactly the rendered counter defs.
func TestTelemetryCountersDoc(t *testing.T) {
	raw, err := os.ReadFile(telemetryDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	i, j := strings.Index(doc, countersBegin), strings.Index(doc, countersEnd)
	if i < 0 || j < i {
		t.Fatalf("%s lacks the counters:begin / counters:end markers", telemetryDoc)
	}
	i += len(countersBegin)
	want := renderCounterRows()
	if doc[i:j] == want {
		return
	}
	if *updateDocs {
		if err := os.WriteFile(telemetryDoc, []byte(doc[:i]+want+doc[j:]), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote the Counters section of %s", telemetryDoc)
		return
	}
	t.Errorf("TELEMETRY.md Counters table is not what the struct tags declare (rerun with -update):\n%s",
		lineDiff(doc[i:j], want))
}

// lineDiff lists the lines only one of the two texts has, in text order.
func lineDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	set := func(lines []string) map[string]bool {
		m := make(map[string]bool, len(lines))
		for _, l := range lines {
			m[l] = true
		}
		return m
	}
	g, w := set(gl), set(wl)
	var b strings.Builder
	for _, l := range gl {
		if !w[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range wl {
		if !g[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}

// TestExportedCounterNamesPinned pins the exported surface: a fault-free
// metrics-enabled run registers exactly these counters (the list is the
// -metrics-all table as it stood before the names moved into struct tags), so
// a tag typo shows up as a named missing/extra row, not as a silent rename.
// The ib.fault.* counters (ib.Injected) are published only when the fabric
// has an injector.
func TestExportedCounterNamesPinned(t *testing.T) {
	want := []string{
		"gasnet.admission_rejects", "gasnet.alloc_failures",
		"gasnet.ams_sent", "gasnet.atomics_issued", "gasnet.bounce_fallbacks",
		"gasnet.bytes_got", "gasnet.bytes_put", "gasnet.conns_established",
		"gasnet.corrupt_frames", "gasnet.credit_stalls", "gasnet.dup_ops_suppressed",
		"gasnet.evictions", "gasnet.fallback_exchanges", "gasnet.false_suspicions",
		"gasnet.gets_issued", "gasnet.heartbeats_sent", "gasnet.integrity_retransmits",
		"gasnet.link_faults", "gasnet.partition_heals", "gasnet.partition_suspensions",
		"gasnet.path_migrations", "gasnet.pe_failures", "gasnet.puts_issued",
		"gasnet.qps_created", "gasnet.rail_failovers", "gasnet.rc_corrupt_frames",
		"gasnet.rc_qps_created", "gasnet.reconnects", "gasnet.retransmits",
		"gasnet.rnr_naks", "gasnet.torn_writes",
		"ib.alloc_failures", "ib.bounced_mrs", "ib.bytes_delivered", "ib.bytes_pinned",
		"ib.cache_misses", "ib.live_rc", "ib.mrs_registered", "ib.msgs_delivered",
		"ib.qps_created_rc", "ib.qps_created_ud", "ib.rc_established", "ib.rnr_naks",
		"pmi.retries", "pmi.timeouts",
	}
	res, err := Run(Config{NP: 8, PPN: 4, Mode: gasnet.OnDemand, HeapSize: 1 << 16,
		Obs: obs.Config{Metrics: true}}, ringApp(2, 64))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range res.Obs.Registry().Counters() {
		got = append(got, c.Name)
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("exported counter names changed:\n%s", lineDiff(g, w))
	}
}
