package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckNeverOverwritesItsBaseline: on a day whose BENCH_<date>.json is
// committed, that file is the baseline, and a -check run refuses to write
// over it unless -o names another file; a plain run regenerates it.
func TestCheckNeverOverwritesItsBaseline(t *testing.T) {
	dir := t.TempDir()
	for _, day := range []string{"2026-10-03", "2026-10-15"} {
		b, err := json.Marshal(Doc{SchemaVersion: SchemaVersion, Date: day})
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, "BENCH_"+day+".json"), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	base, basePath, err := LoadBaseline(dir)
	today := filepath.Join(dir, "BENCH_2026-10-15.json")
	if err != nil || base == nil || base.Date != "2026-10-15" || basePath != today {
		t.Fatalf("baseline = %s, want %s: the latest committed file, even today's", basePath, today)
	}
	other := filepath.Join(t.TempDir(), "b.json")
	for _, tc := range []struct {
		out, day string
		check    bool
		want     string // "" when the run must refuse
	}{
		{"", "2026-10-15", true, ""},
		{today, "2026-10-15", true, ""},
		{other, "2026-10-15", true, other},
		{"", "2026-10-16", true, filepath.Join(dir, "BENCH_2026-10-16.json")},
		{"", "2026-10-15", false, today},
	} {
		got, err := OutputPath(dir, tc.out, tc.day, basePath, tc.check)
		if got != tc.want || (err == nil) != (tc.want != "") {
			t.Errorf("OutputPath(-o %q, %s, check %v) = %q, %v; want %q", tc.out, tc.day, tc.check, got, err, tc.want)
		}
	}
}

// TestCompareGatesEverySuite: the committed baseline equals itself; one
// changed leaf in any virtual-number suite fails the gate on a row that
// shows the changed digits; a changed footprint leaf only warns.
func TestCompareGatesEverySuite(t *testing.T) {
	base, basePath, err := LoadBaseline("../..")
	if err != nil || base == nil {
		t.Fatalf("no committed BENCH_*.json at the repository root: %v", err)
	}
	var out bytes.Buffer
	if Compare(&out, base, base, basePath) || strings.Contains(out.String(), "CHANGED") {
		t.Fatalf("the baseline differs from itself:\n%s", out.String())
	}
	for _, tc := range []struct {
		suite, metric string
		mutate        func(d *Doc)
		gated         bool
	}{
		{"startup", "InitStatic", func(d *Doc) { d.Startup[0].InitStatic += 1e-9 }, true},
		{"latency_put_get", "GetOD", func(d *Doc) { d.Latency[1].GetOD += 0.001 }, true},
		{"latency_credit_stall", "RNRNaks", func(d *Doc) { d.CreditStall[2].RNRNaks++ }, true},
		{"phases_static", "AvgSec.rkey-exchange", func(d *Doc) { d.PhasesStatic[0].AvgSec["rkey-exchange"] += 1e-9 }, true},
		{"phases_ondemand", "MaxSec.other", func(d *Doc) { d.PhasesOnDemand[1].MaxSec["other"] += 1e-9 }, true},
		{"footprint", "bytes_per_pe", func(d *Doc) { d.Footprint[0].BytesPerPE *= 2 }, false},
	} {
		var cur Doc
		b, _ := json.Marshal(base)
		if err := json.Unmarshal(b, &cur); err != nil {
			t.Fatal(err)
		}
		tc.mutate(&cur)
		out.Reset()
		if got := Compare(&out, base, &cur, basePath); got != tc.gated {
			t.Errorf("%s.%s changed: Compare = %v, want %v:\n%s", tc.suite, tc.metric, got, tc.gated, out.String())
			continue
		}
		verdict := "  WARN"
		if tc.gated {
			verdict = "  CHANGED"
		}
		var flagged []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasSuffix(line, verdict) {
				flagged = append(flagged, line)
			}
		}
		if len(flagged) != 1 || !strings.Contains(flagged[0], tc.suite) || !strings.Contains(flagged[0], tc.metric) {
			t.Errorf("%s.%s changed: want one %s row for it, got %q", tc.suite, tc.metric, strings.TrimSpace(verdict), flagged)
			continue
		}
		nums := strings.Fields(strings.Split(flagged[0], "->")[0])
		after := strings.Fields(strings.Split(flagged[0], "->")[1])
		if nums[len(nums)-1] == after[0] {
			t.Errorf("%s.%s changed but its row prints the same digits: %s", tc.suite, tc.metric, flagged[0])
		}
	}
}
