package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckNeverOverwritesItsBaseline: on a day whose BENCH_<date>.json is
// committed, that file is the baseline, and a -check run refuses to write
// over it unless -o names another file; a plain run regenerates it.
func TestCheckNeverOverwritesItsBaseline(t *testing.T) {
	dir := t.TempDir()
	for _, day := range []string{"2026-10-03", "2026-10-15"} {
		b, err := json.Marshal(doc{SchemaVersion: SchemaVersion, Date: day})
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, "BENCH_"+day+".json"), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	base, basePath := loadBaseline(dir)
	today := filepath.Join(dir, "BENCH_2026-10-15.json")
	if base == nil || base.Date != "2026-10-15" || basePath != today {
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
		got, err := outputPath(dir, tc.out, tc.day, basePath, tc.check)
		if got != tc.want || (err == nil) != (tc.want != "") {
			t.Errorf("outputPath(-o %q, %s, check %v) = %q, %v; want %q", tc.out, tc.day, tc.check, got, err, tc.want)
		}
	}
}
