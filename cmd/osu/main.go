// Command osu is a port of the OSU OpenSHMEM microbenchmark suite (v4.4,
// the version the paper's section V-A uses) onto the simulated runtime. It
// prints OSU-style tables of virtual-time latencies.
//
//	osu -bench put|get|atomics|barrier|reduce|collect|put_bw [-np N] [-conn MODE]
//
// Like the originals: put/get run between two PEs on two nodes; collectives
// run across -np PEs; numbers are averaged over -iters iterations after
// warmup. The -conn flag selects the connection design under test. The
// kernels are internal/bench's — the ones `reproduce -exp fig6|fig7` runs under
// both designs — so this file is flags, headers and rows.
package main

import (
	"flag"
	"fmt"
	"os"

	"goshmem/internal/bench"
	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/obs"
)

// printHists dumps the run's non-empty latency histograms (percentiles in
// virtual µs), OSU-style: averages hide tails, percentiles do not.
func printHists(res *cluster.Result) {
	fmt.Println()
	fmt.Println("# OSU OpenSHMEM Latency Percentiles (simulated, virtual time)")
	fmt.Printf("%-28s%-10s%-12s%-12s%-12s%-12s\n", "# Histogram", "Count", "p50 (us)", "p95 (us)", "p99 (us)", "max (us)")
	for _, h := range res.Obs.Registry().Hists() {
		if h.Count == 0 {
			continue
		}
		fmt.Printf("%-28s%-10d%-12.2f%-12.2f%-12.2f%-12.2f\n", h.Name, h.Count,
			float64(h.P50)/1000, float64(h.P95)/1000, float64(h.P99)/1000, float64(h.Max)/1000)
	}
}

// doubling lists first, 2·first, 4·first, … up to max (first itself always).
func doubling(first, max int) []int {
	sizes := []int{first}
	for s := 2 * first; s <= max; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}

// row is one line of an OSU table: its left-hand label and the measurement
// that fills it.
type row struct {
	label string
	key   bench.Key
}

// bySize is the rows of a size-indexed table for op.
func bySize(op string, sizes []int) (rows []row) {
	for _, s := range sizes {
		rows = append(rows, row{fmt.Sprintf("%-16d", s), bench.Key{Op: op, N: s}})
	}
	return rows
}

func main() {
	which := flag.String("bench", "put", "put | get | atomics | barrier | reduce | collect | put_bw")
	np := flag.Int("np", 64, "PEs for collective benchmarks")
	ppn := flag.Int("ppn", 8, "PEs per node")
	conn := flag.String("conn", "ondemand", "static | ondemand")
	iters := flag.Int("iters", 200, "timed iterations per size")
	maxSize := flag.Int("max", 1<<20, "largest message size")
	hist := flag.Bool("hist", false, "also print latency percentiles (p50/p95/p99/max) from the obs plane")
	flag.Parse()
	usage := func(err error) {
		fmt.Fprintf(os.Stderr, "osu: %v\n", err)
		os.Exit(2)
	}
	mode, err := gasnet.ParseMode(*conn)
	if err != nil {
		usage(err)
	}
	oc := obs.Config{Metrics: *hist}
	sizes := doubling(1, *maxSize)

	var (
		lat   bench.Lat
		res   *cluster.Result
		rows  []row
		title string
		cols  = []string{"# Size", "Latency (us)"}
		value = "%-16.2f\n"
	)
	switch *which {
	case "put", "get":
		title, rows = "shmem_"+*which+"mem Latency", bySize(*which, sizes)
		lat, res, err = bench.PutGet(mode, []string{*which}, sizes, *iters, oc)
	case "atomics":
		title, cols[0] = "Atomic Operation Rate", "# Operation"
		for _, op := range bench.AtomicOps {
			rows = append(rows, row{fmt.Sprintf("%-24s", "shmem_long_"+op), bench.Key{Op: op}})
		}
		lat, res, err = bench.Atomics(mode, *iters, oc)
	case "barrier":
		title, cols[0], rows = "shmem_barrier_all Latency", "# PEs", bySize("barrier", []int{*np})
		lat, res, err = bench.Barrier(mode, *np, *ppn, *iters, oc)
	case "reduce", "collect":
		sizes = doubling(4, min(*maxSize, 2048))
		title, rows = fmt.Sprintf("shmem_%s Latency (%d PEs)", *which, *np), bySize(*which, sizes)
		if *which == "reduce" {
			// A reduce row of size bytes has always reduced size/8+1 float64s
			// here; the kernel reduces ⌈bytes/8⌉, so ask it for that many
			// whole elements and keep the row's label.
			for i, s := range sizes {
				sizes[i] = 8 * (s/8 + 1)
				rows[i].key.N = sizes[i]
			}
		}
		lat, res, err = bench.Collectives(mode, []string{*which}, *np, *ppn, sizes, *iters, oc)
	case "put_bw":
		title, cols[1], rows, value = "shmem_putmem Bandwidth", "MB/s", bySize("put_bw", sizes), "%-16.1f\n"
		lat, res, err = bench.PutBW(mode, sizes, 32, *iters, oc)
	default:
		usage(fmt.Errorf("unknown -bench %q", *which))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "osu:", err)
		os.Exit(1)
	}
	fmt.Printf("# OSU OpenSHMEM %s Test (simulated, virtual time)\n%-16s%-16s\n", title, cols[0], cols[1])
	for _, r := range rows {
		fmt.Printf("%s"+value, r.label, lat[r.key])
	}
	if *hist {
		printHists(res)
	}
}
