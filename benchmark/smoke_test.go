package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The smoke test asserts that the benchmark terminates and says what it
// declares. It asserts no timing.

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestIsTheRegistry fails when BENCHMARK.json and registry.go
// disagree: regenerate the file with `go run . -manifest > ../BENCHMARK.json`.
func TestManifestIsTheRegistry(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is not what the registry declares; run `go run . -manifest > ../BENCHMARK.json`")
	}
}

func TestRegistryObeysTheContract(t *testing.T) {
	seen := map[string]bool{}
	name := func(n, unit string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is declared twice", n)
		}
		seen[n] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is not [A-Za-z0-9_/%%.-]{1,16}", n, unit)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		name(w.name, "")
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\r\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	setup := false
	for _, m := range endToEnd {
		name(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range perLayer {
		name(m.Name, m.Unit)
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1 to 60", runSeconds)
	}
}

func finite(t *testing.T, what, name string, got map[string]value) {
	t.Helper()
	v, ok := got[name]
	if !ok {
		t.Errorf("%s: %s is declared and was not emitted", what, name)
	} else if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
		t.Errorf("%s: %s = %v", what, name, v.Value)
	}
}

// TestEveryWorkloadAtToyShape runs all seven workloads untraced at np ≤ 16
// with a few thousand ops and checks that each emits every end-to-end metric.
func TestEveryWorkloadAtToyShape(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		r, err := runWorkload(w, runOpts{seed: 1, toy: true, log: io.Discard})
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		if !r.correct() {
			if w.faulted {
				// Recovery there runs on wall-clock timers; a slow host can
				// fail a job without the benchmark being wrong.
				t.Logf("%s: reported, not fatal: %+v", w.name, r.Checks)
				continue
			}
			t.Errorf("%s: checks failed: %+v", w.name, r.Checks)
		}
		for _, m := range endToEnd {
			finite(t, w.name, m.Name, r.Metrics)
		}
		for _, m := range counterMetrics {
			finite(t, w.name, m.Name, r.Layers)
		}
		if _, err := json.Marshal(resultLine(r)); err != nil {
			t.Errorf("%s: result line: %v", w.name, err)
		}
	}
}

// TestTracedRunEmitsEveryLayerMetric runs one workload traced, ladder
// included (100 iterations per rung), and checks all per-layer names.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	r, err := runWorkload(findWorkload("rma_small"), runOpts{seed: 1, toy: true, traced: true,
		ladder: "go run ./ladder", log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ladder != "" {
		t.Fatalf("ladder %s", r.Ladder)
	}
	if !r.correct() {
		t.Errorf("checks failed: %+v", r.Checks)
	}
	for _, m := range perLayer {
		finite(t, "rma_small traced", m.Name, r.Layers)
	}
	for name := range r.Layers {
		if !nameRE.MatchString(name) {
			t.Errorf("emitted name %q", name)
		}
	}
}

func TestLadderFailureIsReportedNotFatal(t *testing.T) {
	r, err := runWorkload(findWorkload("rma_small"), runOpts{seed: 1, toy: true, traced: true,
		ladder: "false", log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(r.Ladder, "unavailable: ") {
		t.Errorf("ladder = %q, want an unavailable line", r.Ladder)
	}
	if !r.correct() {
		t.Errorf("a broken ladder must not fail the workload: %+v", r.Checks)
	}
	finite(t, "without ladder", "cluster.body_s", r.Layers)
}

func TestCompareVerdicts(t *testing.T) {
	set := func(wall []float64, failed int) *resultSet {
		v := median("s", wall)
		return &resultSet{Workloads: []*workloadResult{{Name: "w", JobsAttempted: len(wall), JobsFailed: failed,
			Metrics: map[string]value{"job_wall_s": v}}}}
	}
	base := set([]float64{1.00, 1.01, 0.99, 1.02, 0.98}, 0)
	for _, c := range []struct {
		name    string
		b       *resultSet
		verdict string
		code    int
	}{
		{"same", set([]float64{1.01, 1.00, 1.02, 0.99, 1.00}, 0), " ok ", 0},
		{"slower", set([]float64{1.31, 1.30, 1.32, 1.29, 1.30}, 0), " worse ", 1},
		{"noisy", set([]float64{0.7, 1.0, 1.3, 0.8, 1.2}, 0), " unresolved ", 0},
		{"failing", set([]float64{1.01, 1.00, 1.02, 0.99, 1.00}, 1), " ok ", 1},
	} {
		var out bytes.Buffer
		if code := printComparison(base, c.b, &out); code != c.code || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: exit %d, want %d with verdict%s:\n%s", c.name, code, c.code, c.verdict, out.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}
