package main

import (
	"runtime"
	"sync"
	"time"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/shmem"
)

// Section B: where a job's start-up wall time goes, at the job shape the
// runner asks for. cluster.RunEnvs hands every PE its raw environment and the
// body below walks the steps shmem.Attach takes, with a host-level barrier
// after each, so every phase is a job-level wall time (release of the
// previous barrier → last PE's arrival at the next) and the phases tile.

// phaseClock is a reusable host barrier that stamps each release.
type phaseClock struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n, in  int
	stamps []time.Time
}

func newPhaseClock(n int) *phaseClock {
	p := &phaseClock{n: n}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// arrive blocks until all n parties have arrived; the last records the time.
func (p *phaseClock) arrive() {
	p.mu.Lock()
	defer p.mu.Unlock()
	gen := len(p.stamps)
	if p.in++; p.in == p.n {
		p.in = 0
		p.stamps = append(p.stamps, time.Now())
		p.cond.Broadcast()
		return
	}
	for len(p.stamps) == gen {
		p.cond.Wait()
	}
}

func (p *phaseClock) seconds(phase int) float64 {
	return p.stamps[phase].Sub(p.stamps[phase-1]).Seconds()
}

func startupSplit(out results, np, ppn int, static bool, heap int) error {
	mode := gasnet.OnDemand
	if static {
		mode = gasnet.Static
	}
	cfg := cluster.Config{NP: np, PPN: ppn}

	// Job 1: the conduit's steps one at a time.
	pc := newPhaseClock(np)
	runtime.GC()
	call := time.Now()
	err := cluster.RunEnvs(cfg, func(env shmem.Env) {
		pc.arrive() // 0: every PE is in its body
		c := gasnet.New(gasnet.Config{
			Rank: env.Rank, NProcs: env.NProcs, Node: env.Node, PPN: env.PPN,
			HCA: env.HCA, PMI: env.PMI, Clock: env.Clock,
			Mode: mode, NodeBarrier: env.NodeBarrier,
		})
		pc.arrive() // 1
		must(c.ExchangeEndpoints())
		pc.arrive()               // 2
		buf := make([]byte, heap) // shmem's own cost, not the conduit's
		pc.arrive()               // 3
		c.RegisterHeap(buf)
		pc.arrive() // 4
		c.IntraNodeBarrier()
		c.SetReady()
		if static {
			must(c.ConnectAll())
		}
		pc.arrive() // 5: nobody closes while a peer still connects
		c.Close()
	})
	if err != nil {
		return err
	}
	out["cluster.startup_launch_s"] = pc.stamps[0].Sub(call).Seconds()
	out["gasnet.startup_new_s"] = pc.seconds(1)
	out["gasnet.startup_exchange_s"] = pc.seconds(2)
	out["gasnet.startup_register_heap_s"] = pc.seconds(4)
	out["gasnet.startup_connect_all_s"] = 0
	if static {
		out["gasnet.startup_connect_all_s"] = pc.seconds(5)
	}
	gasnetSteps := out["gasnet.startup_new_s"] + out["gasnet.startup_exchange_s"] +
		out["gasnet.startup_register_heap_s"] + out["gasnet.startup_connect_all_s"]

	// Job 2: shmem.Attach whole. What it costs beyond the conduit's steps is
	// shmem's own: the segment directory, the segment broadcast, the init
	// barriers.
	pc = newPhaseClock(np)
	runtime.GC()
	err = cluster.RunEnvs(cfg, func(env shmem.Env) {
		pc.arrive()
		c := shmem.Attach(env, shmem.Options{Mode: mode, HeapSize: heap})
		pc.arrive()
		c.Finalize()
	})
	if err != nil {
		return err
	}
	out["shmem.startup_attach_s"] = pc.seconds(1)
	out["shmem.startup_attach_self_s"] = pc.seconds(1) - gasnetSteps
	return nil
}
