package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"goshmem/internal/apps/nas"
)

// TestUnknownExperimentExits2: an -exp name that no experiment answers to —
// a typo, or one that was removed — runs nothing and exits 2 naming the valid
// experiments, so a script cannot mistake it for a run that succeeded. A
// known name, in any case, runs and exits 0. Each case runs main in a child
// process, which is how its exit status is seen.
func TestUnknownExperimentExits2(t *testing.T) {
	if exp := os.Getenv("REPRODUCE_TEST_EXP"); exp != "" {
		os.Args = []string{"reproduce", "-exp", exp}
		main()
		os.Exit(0)
	}
	for _, exp := range []string{"bogus", "topology", "fig10", "CREDITS"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownExperimentExits2$")
		cmd.Env = append(os.Environ(), "REPRODUCE_TEST_EXP="+exp)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if exp == "CREDITS" {
			if err != nil || !strings.Contains(stdout.String(), "## Credit-stall tax") {
				t.Errorf("-exp %s: %v, stdout %q, want exit status 0 and the credit table", exp, err, stdout.String())
			}
			continue
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-exp %s: %v, want exit status 2", exp, err)
		}
		if msg := stderr.String(); !strings.Contains(msg, `unknown experiment "`+exp+`"`) ||
			!strings.Contains(msg, "fig5a") || !strings.Contains(msg, "footprint") || !strings.Contains(msg, "bench") {
			t.Errorf("-exp %s: stderr %q, want the unknown name and the valid ones", exp, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("-exp %s printed %q, want nothing", exp, stdout.String())
		}
	}
}

// TestSelected: -exp matches "all" and every experiment name in any case,
// and an unknown name selects nothing.
func TestSelected(t *testing.T) {
	all := names()
	for exp, want := range map[string]string{"ALL": all, "all": all, "FIG5A": "fig5a", "bogus": ""} {
		var got []string
		for _, e := range selected(exp) {
			got = append(got, e.name)
		}
		if strings.Join(got, ", ") != want {
			t.Errorf("selected(%q) = %v, want %q", exp, got, want)
		}
	}
}

// TestEveryExperimentRuns runs each table entry, at a scale small enough for
// the test suite, on one run, so the sweeps they share are shared here too.
// Every entry must print at least one table, each with a title and rows.
// fig2 on a fresh run computes the three sweeps it summarises itself and
// prints only its own table.
func TestEveryExperimentRuns(t *testing.T) {
	small := scale{
		ppn: 8, maxStatic: 32, collNP: 16, nasNP: 16, projN: 64, peersNP: 16,
		init: []int{16, 32}, startup: []int{16, 32}, msg: []int{8, 4096}, coll: []int{8},
		barrier: []int{16, 32}, g500: []int{16}, res: []int{16, 32}, footprint: []int{16, 32},
		nasClass: nas.ClassS,
	}
	r := newRun(small)
	for _, e := range experiments {
		ts := e.run(r)
		if len(ts) == 0 {
			t.Errorf("%s printed no table", e.name)
		}
		for _, tb := range ts {
			if tb.Title == "" || len(tb.Rows) == 0 {
				t.Errorf("%s: table %q has %d rows, want a title and rows", e.name, tb.Title, len(tb.Rows))
			}
		}
	}
	if ts := selected("fig2")[0].run(newRun(small)); len(ts) != 1 {
		t.Errorf("fig2 on a fresh run printed %d tables, want 1", len(ts))
	}
}
