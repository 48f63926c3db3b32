package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestUnknownExperimentExits2: an -exp name that no experiment answers to —
// a typo, or one that was removed — runs nothing and exits 2 naming the valid
// experiments, so a script cannot mistake it for a run that succeeded. Each
// case runs main in a child process, which is how its exit status is seen.
func TestUnknownExperimentExits2(t *testing.T) {
	if exp := os.Getenv("REPRODUCE_TEST_EXP"); exp != "" {
		os.Args = []string{"reproduce", "-exp", exp}
		main()
		os.Exit(0)
	}
	for _, exp := range []string{"bogus", "topology", "fig10"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownExperimentExits2$")
		cmd.Env = append(os.Environ(), "REPRODUCE_TEST_EXP="+exp)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
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
