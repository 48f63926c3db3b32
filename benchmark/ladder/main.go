// Command ladder is the benchmark's per-layer half: it drives the public
// functions of vclock, ib, pmi, gasnet, shmem and obs directly and reports
// what each costs on the host, so that a cost has an address (the method of
// MPICH2 over InfiniBand: each layer's overhead over the one beneath it, raw
// verbs upward).
//
// It is a program of its own, run by the end-to-end runner as a subprocess,
// because it is the only part of the benchmark that calls layer constructors.
// A refactor of those may break it; the runner then reports the ladder as
// unavailable and still measures everything end to end.
//
//	-rungs                    section A: one rung per layer operation
//	-split np,ppn,mode,heap   section B: the startup split at that job shape
//	-iters N                  iterations per loop for every rung (0: each rung's own)
//
// The last line printed is one JSON object, metric name → value.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const loops = 5 // every rung reports the median of this many fixed-iteration loops

// cost is a rung's per-operation cost: each field the median over the loops.
type cost struct{ ns, allocs, bytes float64 }

// itersOverride is -iters.
var itersOverride int

// measure runs op iters times per loop. The Mallocs and TotalAlloc deltas are
// process-wide, so a rung with work on two ends counts both.
func measure(iters int, op func(i int)) cost {
	if itersOverride > 0 {
		iters = itersOverride
	}
	var ns, allocs, bytes [loops]float64
	var before, after runtime.MemStats
	n := 0
	for l := 0; l < loops; l++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			op(n)
			n++
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		ns[l] = float64(d.Nanoseconds()) / float64(iters)
		allocs[l] = float64(after.Mallocs-before.Mallocs) / float64(iters)
		bytes[l] = float64(after.TotalAlloc-before.TotalAlloc) / float64(iters)
	}
	return cost{mid(ns[:]), mid(allocs[:]), mid(bytes[:])}
}

func mid(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}

// total is how many times measure calls op: what the far end of a two-party
// rung must loop for.
func total(iters int) int {
	if itersOverride > 0 {
		iters = itersOverride
	}
	return loops * iters
}

// together runs party(rank) on n goroutines and waits for all of them.
func together(n int, party func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			party(r)
		}(r)
	}
	wg.Wait()
}

// results collects metric values under their registry names.
type results map[string]float64

func (r results) ns(name string, c cost)     { r[name+"_ns"] = c.ns }
func (r results) allocs(name string, c cost) { r[name+"_allocs"] = c.allocs }
func (r results) bytes(name string, c cost)  { r[name+"_bytes"] = c.bytes }

func main() {
	rungs := flag.Bool("rungs", false, "climb section A")
	split := flag.String("split", "", "section B at job shape np,ppn,mode,heap")
	flag.IntVar(&itersOverride, "iters", 0, "iterations per loop for every rung (0: each rung's own)")
	flag.Parse()

	out := results{}
	if *rungs {
		vclockRungs(out)
		ibRungs(out)
		pmiRungs(out)
		gasnetRungs(out)
		shmemRungs(out)
		obsRungs(out)
		// Self time: a rung minus the rung beneath it.
		for op, verb := range map[string]string{"put_8": "rdma_write_8", "get_8": "rdma_read_8", "fadd": "atomic_fadd"} {
			out["gasnet."+op+"_self_ns"] = out["gasnet."+op+"_ns"] - out["ib."+verb+"_ns"]
			out["shmem."+op+"_self_ns"] = out["shmem."+op+"_ns"] - out["gasnet."+op+"_ns"]
		}
	}
	if *split != "" {
		f := strings.Split(*split, ",")
		if len(f) != 4 {
			fail(fmt.Errorf("-split wants np,ppn,mode,heap, got %q", *split))
		}
		np, err1 := strconv.Atoi(f[0])
		ppn, err2 := strconv.Atoi(f[1])
		heap, err3 := strconv.Atoi(f[3])
		if err1 != nil || err2 != nil || err3 != nil || (f[2] != "static" && f[2] != "on-demand") {
			fail(fmt.Errorf("-split wants np,ppn,static|on-demand,heap, got %q", *split))
		}
		if err := startupSplit(out, np, ppn, f[2] == "static", heap); err != nil {
			fail(err)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ladder:", err)
	os.Exit(1)
}
