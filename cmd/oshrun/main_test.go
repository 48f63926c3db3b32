package main

import (
	"bytes"
	"io"
	"regexp"
	"strings"
	"testing"

	"goshmem/internal/cluster"
	"goshmem/internal/ib"
)

// oshrun runs the launcher in-process and returns its exit status and what it
// wrote to stdout and stderr.
func oshrun(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRunUsageErrors: every way of asking for a job that cannot exist ends in
// exit 2 with exactly one line on stderr that names the flag, nothing on
// stdout, and no panic (-class "" indexed an empty string; -class Q silently
// ran class B).
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the one-line diagnostic
	}{
		{[]string{"-class", ""}, "-class wants S, A or B"},
		{[]string{"-class", "Q", "-app", "ep"}, "-class wants S, A or B"},
		{[]string{"-conn", "Static"}, `unknown -conn "Static"`},
		{[]string{"-app", "bogus"}, `unknown -app "bogus"`},
		{[]string{"-np", "0"}, "-np wants a positive PE count"},
		{[]string{"-ppn", "-1"}, "-ppn wants a positive per-node PE count"},
		{[]string{"-drop", "2"}, "-drop wants a probability"},
		{[]string{"-slow-time", "-1"}, "-slow-time wants a non-negative duration"},
		{[]string{"-deadline", "-1"}, "-deadline wants a non-negative duration"},
		{[]string{"-mr-budget", "-1"}, "-mr-budget wants a non-negative budget"},
		{[]string{"-qp-cap", "-1"}, "-qp-cap wants a non-negative budget"},
		{[]string{"-trace", "-1"}, "-trace wants a non-negative event count"},
		{[]string{"-memstats-every", "-1"}, "-memstats-every wants a non-negative period"},
		{[]string{"-alloc-fail", "cq:1"}, "-alloc-fail: "},
		{[]string{"-rails", "0"}, "-rails wants at least one rail"},
		{[]string{"-kill-pe", "3"}, "-kill-pe wants rank@seconds"},
		{[]string{"-wedge-pe", "99@0.1"}, "-wedge-pe rank 99 out of range [0,16)"},
		{[]string{"-fail-port", "1@0.1"}, "-fail-port wants lid:rail@seconds"},
		{[]string{"-fail-rail", "x@0.1"}, "-fail-rail wants rail@seconds"},
		{[]string{"-partition", "0,1:2,3"}, "-partition wants ranks:ranks@start[-heal]"},
	} {
		code, stdout, stderr := oshrun(tc.args...)
		if code != 2 || stdout != "" {
			t.Errorf("%q: exit %d, stdout %q; want exit 2 and no output", tc.args, code, stdout)
		}
		if !strings.HasPrefix(stderr, "oshrun: ") || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%q: stderr %q, want one line mentioning %q", tc.args, stderr, tc.want)
		}
	}
}

// TestRunTextReportRepeats: the text report of a fault-free job, connection
// trace included, is the same text on every run once the wall-clock clause is
// cut. (Static: at the parent too, the on-demand endpoint count of this job
// differs in about one run of ten — ROADMAP item 1.)
func TestRunTextReportRepeats(t *testing.T) {
	wall := regexp.MustCompile(`\(simulated in .* real\)`)
	report := func() string {
		code, stdout, stderr := oshrun("-np", "9", "-ppn", "3", "-app", "ep", "-conn", "static", "-trace", "1000")
		if code != 0 || stderr != "" {
			t.Fatalf("exit %d, stderr %q", code, stderr)
		}
		return wall.ReplaceAllString(stdout, "")
	}
	a, b := report(), report()
	if a != b {
		t.Errorf("two runs differ:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "EP class S: checksum") || !strings.Contains(a, "--- job report (static, 9 PEs, 3 ppn) ---") {
		t.Errorf("report lacks the kernel line or the job header:\n%s", a)
	}
	if !regexp.MustCompile(`--- connection trace \(first \d+ of \d+ events\) ---`).MatchString(a) ||
		!strings.Contains(a, " conn-ready") {
		t.Errorf("report lacks the connection trace or a conn-ready event:\n%s", a)
	}
}

// TestRunKilledPEExitCode: a fail-stop crash aborts the job and the launcher
// exits with the worst per-PE status, 128+SIGKILL; -json keeps stdout to the
// report alone and exits the same.
func TestRunKilledPEExitCode(t *testing.T) {
	args := []string{"-np", "8", "-ppn", "4", "-app", "traffic", "-kill-pe", "1@0.05"}
	code, stdout, _ := oshrun(args...)
	if code != cluster.ExitKilled || !strings.Contains(stdout, "--- job aborted ---") || !strings.Contains(stdout, "pe    1: exit 137") {
		t.Errorf("text: exit %d, want %d with the abort tail:\n%s", code, cluster.ExitKilled, stdout)
	}
	code, stdout, _ = oshrun(append(args, "-json")...)
	if code != cluster.ExitKilled || !strings.HasPrefix(stdout, "{") {
		t.Errorf("json: exit %d, want %d and a bare JSON report, got %.40q", code, cluster.ExitKilled, stdout)
	}
}

// TestScheduleGrammar: the four schedule flags are one scanner; each accepts
// its own form and turns down the others' with one diagnostic that names the
// flag and quotes the item.
func TestScheduleGrammar(t *testing.T) {
	var ports []cluster.PortFault
	var rails []cluster.RailFault
	var parts []cluster.PartitionFault
	if err := parsePortFaults("1:0@0.16, 3:1@2", 2, 3, &ports); err != nil || len(ports) != 2 ||
		ports[1] != (cluster.PortFault{LID: 3, Rail: 1, At: 2_000_000_000}) {
		t.Errorf("fail-port: %+v, %v", ports, err)
	}
	if err := parseRailFaults("1@0.165", 2, &rails); err != nil || len(rails) != 1 ||
		rails[0] != (cluster.RailFault{Rail: 1, At: 165_000_000}) {
		t.Errorf("fail-rail: %+v, %v", rails, err)
	}
	if err := parsePartitions("0, 1:2,3@0.16-0.3; 0:1@1", 4, &parts); err != nil || len(parts) != 2 ||
		len(parts[0].A) != 2 || parts[0].B[1] != 3 || parts[0].At != 160_000_000 || parts[0].Heal != 300_000_000 ||
		parts[1].Heal != -1 {
		t.Errorf("partition: %+v, %v", parts, err)
	}
	for _, tc := range []struct {
		err  error
		want string
	}{
		{parsePortFaults("1@0.1", 2, 3, &ports), `-fail-port wants lid:rail@seconds, got "1@0.1"`},
		{parsePortFaults("x:0@0.1", 2, 3, &ports), "-fail-port wants lid:rail@seconds"},
		{parsePortFaults("0:0@0.1", 2, 3, &ports), "-fail-port lid 0 out of range [1,3]"},
		{parsePortFaults("4:0@0.1", 2, 3, &ports), "(LIDs number the nodes from 1)"},
		{parsePortFaults("1:2@0.1", 2, 3, &ports), "-fail-port rail 2 out of range [0,2)"},
		{parsePortFaults("1:0@-1", 2, 3, &ports), "-fail-port wants a non-negative time"},
		{parseRailFaults("1", 2, &rails), "-fail-rail wants rail@seconds"},
		{parseRailFaults("2@0.1", 2, &rails), "-fail-rail rail 2 out of range [0,2)"},
		{parseRailFaults("0@1-2", 2, &rails), "-fail-rail wants rail@seconds"},
		{parsePartitions("0:1", 4, &parts), "-partition wants ranks:ranks@start[-heal]"},
		{parsePartitions("0,1@0.1", 4, &parts), "-partition wants ranks:ranks@start[-heal]"},
		{parsePartitions("0:x@0.1", 4, &parts), "-partition wants ranks:ranks@start[-heal]"},
		{parsePartitions("0:4@0.1", 4, &parts), "-partition rank 4 out of range [0,4)"},
		{parsePartitions("0:1@abc", 4, &parts), "-partition wants a non-negative start time"},
		{parsePartitions("0:1@0.3-0.1", 4, &parts), "-partition heal must not precede start"},
		{parsePartitions("0:1@0.1;2:3@", 4, &parts), `start time, got "2:3@"`}, // a later item's error is still caught
	} {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("error %v does not mention %q", tc.err, tc.want)
		}
	}
}

func TestParsePEFaultsValid(t *testing.T) {
	var fs []cluster.PEFault
	if err := parsePEFaults("kill-pe", "0@0.5, 3@1.25,7@0", 8, &fs); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if len(fs) != 3 {
		t.Fatalf("got %d faults, want 3", len(fs))
	}
	if fs[0].Rank != 0 || fs[0].At != 500_000_000 {
		t.Fatalf("fault[0] = %+v", fs[0])
	}
	if fs[1].Rank != 3 || fs[1].At != 1_250_000_000 {
		t.Fatalf("fault[1] = %+v", fs[1])
	}
	if fs[2].Rank != 7 || fs[2].At != 0 {
		t.Fatalf("fault[2] = %+v", fs[2])
	}
}

func TestParsePEFaultsEmpty(t *testing.T) {
	var fs []cluster.PEFault
	if err := parsePEFaults("kill-pe", "", 8, &fs); err != nil || fs != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", fs, err)
	}
}

func TestParsePEFaultsErrors(t *testing.T) {
	cases := []struct {
		spec string
		np   int
		want string // substring of the diagnostic
	}{
		{"garbage", 8, "rank@seconds"},
		{"3", 8, "rank@seconds"},
		{"x@0.5", 8, "rank@seconds"},
		{"3@abc", 8, "rank@seconds"},
		{"8@0.5", 8, "out of range"},
		{"-1@0.5", 8, "out of range"},
		{"3@-0.5", 8, "non-negative time"},
		{"0@0.1,9@0.2", 8, "out of range"}, // error in later item still caught
	}
	for _, tc := range cases {
		var fs []cluster.PEFault
		err := parsePEFaults("wedge-pe", tc.spec, tc.np, &fs)
		if err == nil {
			t.Errorf("spec %q: expected error", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %q: error %q does not mention %q", tc.spec, err, tc.want)
		}
		if !strings.Contains(err.Error(), "wedge-pe") {
			t.Errorf("spec %q: error %q does not name the flag", tc.spec, err)
		}
	}
}

// TestTraceOutUnboundedRing: -trace-out records into unbounded rings, so the
// file it writes holds every event; -trace alone keeps the default ring.
func TestTraceOutUnboundedRing(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		events bool
		ring   int
	}{
		{[]string{"-trace-out", "t.json"}, true, -1},
		{[]string{"-trace", "30", "-trace-out", "t.json"}, true, -1},
		{[]string{"-trace", "30"}, true, 0},
		{nil, false, 0},
	} {
		o, err := parseFlags(tc.args, io.Discard)
		if err == nil {
			_, err = o.job()
		}
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if got := o.cfg.Obs; got.RingCap != tc.ring || got.Events != tc.events {
			t.Errorf("%q: RingCap %d Events %v, want %d %v", tc.args, got.RingCap, got.Events, tc.ring, tc.events)
		}
	}
}

func TestCheckBudget(t *testing.T) {
	for _, ok := range []int64{0, 1, 1 << 30} {
		if err := checkNonNegative("qp-budget", "budget (0 = unbounded)", ok); err != nil {
			t.Errorf("checkNonNegative(%d) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []int64{-1, -1 << 20} {
		err := checkNonNegative("mr-budget", "budget (0 = unbounded)", bad)
		if err == nil {
			t.Errorf("checkNonNegative(%d) = nil, want error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "mr-budget") {
			t.Errorf("checkNonNegative(%d): error %q does not name the flag", bad, err)
		}
	}
}

func TestParseAllocFaultsValid(t *testing.T) {
	qp, mr, err := ib.ParseAllocFaults("qp:3, mr:2,qp:1")
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if len(qp) != 2 || qp[0] != 3 || qp[1] != 1 {
		t.Fatalf("qp schedule = %v, want [3 1]", qp)
	}
	if len(mr) != 1 || mr[0] != 2 {
		t.Fatalf("mr schedule = %v, want [2]", mr)
	}
}

func TestParseAllocFaultsEmpty(t *testing.T) {
	qp, mr, err := ib.ParseAllocFaults("")
	if qp != nil || mr != nil || err != nil {
		t.Fatalf("empty spec = (%v, %v, %v), want all nil", qp, mr, err)
	}
}

func TestParseAllocFaultsErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the diagnostic
	}{
		{"garbage", "kind:n"},
		{"qp", "kind:n"},
		{"qp:0", "positive integer"},
		{"qp:-2", "positive integer"},
		{"mr:abc", "positive integer"},
		{"cq:3", "unknown kind"},
		{"qp:1,mr:x", "positive integer"}, // error in later item still caught
	}
	for _, tc := range cases {
		_, _, err := ib.ParseAllocFaults(tc.spec)
		if err == nil {
			t.Errorf("spec %q: expected error", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %q: error %q does not mention %q", tc.spec, err, tc.want)
		}
	}
}

func TestCheckProb(t *testing.T) {
	for _, ok := range []float64{0, 0.5, 1} {
		if err := checkProb("drop", ok); err != nil {
			t.Errorf("checkProb(%v) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []float64{-0.01, 1.01, 42} {
		err := checkProb("rc-corrupt", bad)
		if err == nil {
			t.Errorf("checkProb(%v) = nil, want error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "rc-corrupt") {
			t.Errorf("checkProb(%v): error %q does not name the flag", bad, err)
		}
	}
}
