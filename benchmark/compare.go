package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareSets prints, per (workload, end-to-end metric), both sets' medians
// and quartiles, the change from A to B, and a verdict against the bound the
// registry fixes:
//
//	ok          B is no worse than A by more than the bound
//	worse       it is
//	unresolved  one set's own interquartile spread is wider than the bound,
//	            so the pair cannot tell a change of that size from noise
//	            (only judged where both sets have at least four samples)
//
// The exit code is non-zero on any "worse" or when B fails a larger share of
// its jobs than A.
func compareSets(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return printComparison(a, b, stdout)
}

func readSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func printComparison(a, b *resultSet, w io.Writer) int {
	ea, eb := a.Env, b.Env
	ea.Time, eb.Time = "", ""
	if ea != eb {
		fmt.Fprintf(w, "warning: environments differ, host numbers are not comparable:\n  A %+v\n  B %+v\n", ea, eb)
	}
	byName := map[string]*workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	code := 0
	fmt.Fprintf(w, "%-17s %-13s %12s %25s %12s %25s %8s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "delta", "verdict")
	for _, ra := range a.Workloads {
		rb := byName[ra.Name]
		if rb == nil {
			fmt.Fprintf(w, "%-17s missing from B\n", ra.Name)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			if va.N == 0 || vb.N == 0 {
				continue
			}
			a1, a3 := quartiles(va.Samples)
			b1, b3 := quartiles(vb.Samples)
			delta := vb.Value/va.Value - 1
			worse := delta
			if m.Better == higher {
				worse = va.Value/vb.Value - 1
			}
			// Quartiles of fewer than four samples are their extremes, which
			// say nothing about spread: setup_s, with its three set-ups (the
			// first of them in a cold process), is judged on medians alone.
			spread := 0.0
			if min(va.N, vb.N) >= 4 {
				spread = max((a3-a1)/va.Value, (b3-b1)/vb.Value)
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "worse"
				code = 1
			case spread > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-17s %-13s %12.6g [%10.6g, %10.6g] %12.6g [%10.6g, %10.6g] %+7.1f%%  %s (bound %g%%)\n",
				ra.Name, m.Name, va.Value, a1, a3, vb.Value, b1, b3, 100*delta, verdict, 100*m.Bound)
		}
		fmt.Fprintf(w, "%-17s jobs failed/attempted: A %d/%d, B %d/%d\n",
			ra.Name, ra.JobsFailed, ra.JobsAttempted, rb.JobsFailed, rb.JobsAttempted)
		// Cross-multiplied so that no attempt on either side is not a division.
		if rb.JobsFailed*ra.JobsAttempted > ra.JobsFailed*rb.JobsAttempted {
			fmt.Fprintf(w, "%-17s B fails a larger share of its jobs\n", ra.Name)
			code = 1
		}
	}
	return code
}
