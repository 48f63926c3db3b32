// Package bench contains the experiment drivers that regenerate every table
// and figure of the paper's evaluation (section V). Each driver runs
// simulated jobs through internal/cluster and returns typed rows; Table
// renders them as aligned text for cmd/reproduce and EXPERIMENTS.md.
//
// Mapping (see DESIGN.md for the full index):
//
//	Fig. 1   StartupPhases(Static)      Fig. 5b  StartupPhases(OnDemand)
//	Fig. 5a  Startup                    Fig. 6   PutGetLatency, AtomicLatency
//	Fig. 7   CollectiveLatency, BarrierLatency
//	Fig. 8a  NASExecution               Fig. 8b  Graph500Execution
//	Fig. 9   ResourceUsage              Table I  PeersAt
//	Fig. 2   Summary (derived)          §IV ablations: Ablations
//
// Trajectory is the BENCH_<date>.json suite, and Compare its one check.
package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// CapSizes keeps the sizes up to max: the one place a sweep is cut short,
// whether to spare the static mesh or a small machine.
func CapSizes(sizes []int, max int) []int {
	return slices.DeleteFunc(slices.Clone(sizes), func(n int) bool { return n > max })
}

// Fprint writes the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "## %s\n\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// us formats a virtual-nanosecond duration in microseconds.
func us(ns float64) string { return fmt.Sprintf("%.2f", ns/1000) }
