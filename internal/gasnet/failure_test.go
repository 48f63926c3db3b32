package gasnet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"goshmem/internal/ib"
	"goshmem/internal/pmi"
	"goshmem/internal/vclock"
)

// TestKillPEConfirmedAndAborted injects a crash: the victim's operations fail
// with CrashError the moment its clock passes the schedule, the survivors'
// UD-heartbeat detector walks suspicion -> confirmation within bounded
// detector periods, every subsequent operation against the dead rank fails
// fast with ErrPeerDead, and the job abort reaches every survivor.
func TestKillPEConfirmedAndAborted(t *testing.T) {
	const n = 4
	const victim = 3
	// Well past endpoint bootstrap: the pre-fault traffic below must arrive
	// while the victim is still alive.
	killVT := 50 * vclock.Millisecond
	fi := ib.NewFaultInjector(7)
	fi.KillPE(victim, killVT)

	pes, run := startJob(t, jobOpts{
		n: n, ppn: 2, mode: OnDemand, faults: fi,
		trace: true,
	})

	// Pre-fault traffic: everyone talks to everyone, so every survivor's
	// detector monitors the victim (piggybacked liveness, no explicit probes
	// needed yet).
	var mu sync.Mutex
	recv := 0
	for _, p := range pes {
		p.C.RegisterHandler(9, func(src int, a [4]uint64, pay []byte, at int64) {
			mu.Lock()
			recv++
			mu.Unlock()
		})
	}
	run(func(p *pe) {
		for dst := 0; dst < n; dst++ {
			if dst == p.C.Rank() {
				continue
			}
			if err := p.C.AMRequest(dst, 9, [4]uint64{}, nil); err != nil {
				t.Errorf("pre-fault AM %d->%d: %v", p.C.Rank(), dst, err)
			}
		}
	})
	waitUntil(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return recv == n*(n-1)
	})

	// The victim advances past its scheduled crash and the next operation
	// observes it: fail-stop with CrashError.
	pes[victim].Clk.AdvanceTo(killVT)
	err := pes[victim].C.AMRequest(0, 9, [4]uint64{}, nil)
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("victim op after kill = %v, want CrashError", err)
	}
	if fi.Injected().PEKills != 1 {
		t.Fatalf("PEKills = %d, want 1", fi.Injected().PEKills)
	}

	// Survivors block on the victim — a get that can only be queued behind a
	// handshake the dead PE will never answer — until the detector confirms
	// the death and the abort releases them.
	run(func(p *pe) {
		if p.C.Rank() == victim {
			return
		}
		var b [8]byte
		if err := p.C.Get(victim, 0, 0, b[:]); !errors.Is(err, ErrPeerDead) {
			t.Errorf("rank %d get from the dead rank = %v, want ErrPeerDead", p.C.Rank(), err)
		}
	})
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		p := pes[r]
		// The get may have been failed by the dead-rank marking an instant
		// before the abort it arrived with is recorded.
		waitUntil(t, func() bool { return p.C.Err() != nil })
		var ae *AbortError
		if err := p.C.Err(); !errors.As(err, &ae) || ae.Dead != victim {
			t.Fatalf("rank %d abort = %v, want AbortError{Dead: %d}", r, err, victim)
		}
		if !p.C.PeerDead(victim) {
			t.Fatalf("rank %d has not marked the victim dead", r)
		}
		// Fail-fast: new operations against the dead rank return ErrPeerDead
		// (wrapped in the job-abort error), never block.
		if err := p.C.AMRequest(victim, 9, [4]uint64{}, nil); !errors.Is(err, ErrPeerDead) {
			t.Fatalf("rank %d op on dead peer = %v, want ErrPeerDead", r, err)
		}
	}

	// Counter flow: at least one survivor confirmed the death and probes were
	// sent (both are counted before the abort they lead to is raised).
	var failures, probes int
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		st := pes[r].C.Stats()
		failures += st.PEFailures
		probes += st.HeartbeatsSent
	}
	if failures < 1 {
		t.Errorf("PEFailures = %d, want >= 1", failures)
	}
	if probes == 0 {
		t.Error("no heartbeat probes sent while confirming a silent peer")
	}
	events := make(map[string]int)
	for _, e := range pes[0].plane.Events() {
		events[e.Kind]++
	}
	for _, kind := range []string{"pe-fail", "suspect", "confirm-dead", "abort"} {
		if events[kind] == 0 {
			t.Errorf("trace lacks %q events: %v", kind, events)
		}
	}
}

// TestWedgePEStillAcksUntilAborted injects a wedge: the victim's software
// stops, but its queue pairs stay alive, so a survivor's RDMA put against its
// memory still completes at the fabric level. The detector must nevertheless
// confirm the silent peer dead, and the job abort must release the victim's
// blocked operation with WedgeError — the launcher-kill model.
func TestWedgePEStillAcksUntilAborted(t *testing.T) {
	const n = 2
	const victim = 1
	// Past bootstrap and the explicit EnsureConnected below: a wedged PE
	// cannot answer a handshake.
	wedgeVT := 50 * vclock.Millisecond
	fi := ib.NewFaultInjector(11)
	fi.WedgePE(victim, wedgeVT)
	pes, _ := startJob(t, jobOpts{
		n: n, ppn: 2, mode: OnDemand, faults: fi,
	})

	heap := make([]byte, 256)
	mr := pes[victim].HCA.RegisterMR(heap, pes[victim].Clk)

	// Establish the connection before the wedge trips (a wedged PE cannot
	// answer a handshake).
	if err := pes[0].C.EnsureConnected(victim); err != nil {
		t.Fatal(err)
	}

	// The victim hits its schedule; its next operation blocks until the job
	// aborts around it.
	victimDone := make(chan error, 1)
	pes[0].C.sched.Go(func() {
		pes[victim].Clk.AdvanceTo(wedgeVT)
		victimDone <- pes[victim].C.AMRequest(0, 9, [4]uint64{}, nil)
	})
	waitUntil(t, func() bool { return pes[victim].C.selfState.Load() == selfWedged })
	if fi.Injected().PEWedges != 1 {
		t.Fatalf("PEWedges = %d, want 1", fi.Injected().PEWedges)
	}

	// Fabric-level liveness: RDMA against the wedged PE's memory still
	// completes — this is exactly why heartbeats must be software-level.
	data := []byte("landed-in-wedged-memory")
	if err := pes[0].C.Put(victim, mr.Base(), mr.RKey(), data); err != nil {
		t.Fatalf("put to wedged peer: %v", err)
	}
	pes[0].C.Quiet()
	if !bytes.Equal(heap[:len(data)], data) {
		t.Fatal("put into wedged peer's memory did not land")
	}

	// An operation that needs the peer's software — a framed atomic — blocks
	// until the software-level detector confirms the wedged peer dead and the
	// abort releases it.
	if _, err := pes[0].C.FetchAdd(victim, mr.Base(), mr.RKey(), 1); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("atomic on the wedged peer = %v, want ErrPeerDead", err)
	}
	var ae *AbortError
	if err := pes[0].C.Err(); !errors.As(err, &ae) || ae.Dead != victim {
		t.Fatalf("survivor abort = %v, want AbortError{Dead: %d}", pes[0].C.Err(), victim)
	}
	if st := pes[0].C.Stats(); st.PEFailures != 1 {
		t.Fatalf("survivor PEFailures = %d, want 1", st.PEFailures)
	}

	// The abort releases the wedged victim's blocked operation.
	select {
	case err := <-victimDone:
		var we *WedgeError
		if !errors.As(err, &we) {
			t.Fatalf("victim op after abort = %v, want WedgeError", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("wedged PE never released by the job abort")
	}
}

// TestSlowPENeverConfirmedDead is the false-positive regression test: the
// SlowPE injector charges victims virtual time only, and their manager threads
// still answer every probe before the next tick can fire. The detector — armed
// explicitly, probing through an idle phase — must never confirm anyone dead,
// and suspicion (if any arises) must clear as false.
func TestSlowPENeverConfirmedDead(t *testing.T) {
	const n = 4
	fi := ib.NewFaultInjector(13)
	fi.SlowProb = 1.0
	fi.SlowTime = 5 * vclock.Millisecond // heavy virtual jitter on every op
	pes, run := startJob(t, jobOpts{
		n: n, ppn: 2, mode: OnDemand, faults: fi,
		heartbeat: HeartbeatConfig{Enable: true},
	})
	var mu sync.Mutex
	recv := 0
	for _, p := range pes {
		p.C.RegisterHandler(9, func(src int, a [4]uint64, pay []byte, at int64) {
			mu.Lock()
			recv++
			mu.Unlock()
		})
	}
	run(func(p *pe) {
		for dst := 0; dst < n; dst++ {
			if dst == p.C.Rank() {
				continue
			}
			if err := p.C.AMRequest(dst, 9, [4]uint64{}, nil); err != nil {
				t.Errorf("AM: %v", err)
			}
		}
	})
	waitUntil(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return recv == n*(n-1)
	})

	// Idle phase: fifty detector periods pass with no application traffic, so
	// the detector must rely on explicit probes — which the slowed PEs still
	// answer.
	run(func(p *pe) { p.vsleep(50 * vclock.Millisecond) })

	if fi.Injected().Slowdowns == 0 {
		t.Fatal("no slowdowns injected; the schedule tests nothing")
	}
	probes := 0
	for _, p := range pes {
		if err := p.C.Err(); err != nil {
			t.Fatalf("rank %d aborted on a slow-only fabric: %v", p.C.Rank(), err)
		}
		st := p.C.Stats()
		if st.PEFailures != 0 {
			t.Fatalf("rank %d confirmed a slow peer dead: %+v", p.C.Rank(), st)
		}
		probes += st.HeartbeatsSent
	}
	if probes == 0 {
		t.Fatal("detector sent no probes through the idle phase; the test exercised nothing")
	}
}

// TestChaosPEFailureSoak extends the chaos harness with PE-failure schedules:
// one seeded victim crashes and another wedges mid-traffic while the UD layer
// drops datagrams and the SlowPE injector adds virtual jitter. Invariants:
// the job always terminates (bounded by waitUntil, never hangs), every
// surviving PE observes the abort, and only scheduled victims are ever
// confirmed dead — chaos must not produce false positives. Replay any failure
// with CHAOS_SEED=<seed>.
func TestChaosPEFailureSoak(t *testing.T) {
	n, ppn, rounds := 12, 4, 3
	if testing.Short() {
		n, ppn, rounds = 8, 4, 2
	}
	seed := chaosSeed(t)
	defer func() {
		if t.Failed() {
			t.Logf("replay with CHAOS_SEED=%d", seed)
		}
	}()
	rng := rand.New(rand.NewSource(seed))

	fi := ib.NewFaultInjector(seed)
	fi.DropProb = 0.1
	fi.MaxDrops = 100
	fi.SlowProb = 0.05
	fi.SlowTime = vclock.Millisecond

	// Two distinct victims: one crash, one wedge, at seeded virtual times
	// inside the traffic window.
	killVictim := rng.Intn(n)
	wedgeVictim := (killVictim + 1 + rng.Intn(n-1)) % n
	killAt := vclock.Millisecond + rng.Int63n(2*vclock.Millisecond)
	wedgeAt := vclock.Millisecond + rng.Int63n(2*vclock.Millisecond)
	fi.KillPE(killVictim, killAt)
	fi.WedgePE(wedgeVictim, wedgeAt)
	victims := map[int]bool{killVictim: true, wedgeVictim: true}

	pes, run := startJob(t, jobOpts{
		n: n, ppn: ppn, mode: OnDemand, faults: fi,
	})
	for _, p := range pes {
		p.C.RegisterHandler(9, func(src int, a [4]uint64, pay []byte, at int64) {})
	}

	// Randomized traffic; errors are expected once the failure plane bites —
	// the invariant is *which* errors, checked below.
	run(func(p *pe) {
		src := p.C.Rank()
		prng := rand.New(rand.NewSource(seed + int64(src)*1009))
		for r := 0; r < rounds; r++ {
			for _, dst := range prng.Perm(n) {
				if prng.Float64() < 0.3 {
					continue
				}
				if err := p.C.AMRequest(dst, 9, [4]uint64{uint64(r)}, []byte(fmt.Sprintf("m-%d-%d", src, dst))); err != nil {
					// Only failure-plane errors are legal.
					var ce *CrashError
					var we *WedgeError
					var ae *AbortError
					if !errors.As(err, &ce) && !errors.As(err, &we) && !errors.As(err, &ae) && !errors.Is(err, ErrPeerDead) {
						t.Errorf("AM %d->%d failed outside the failure plane: %v", src, dst, err)
					}
					return
				}
			}
		}
		// Wait for what was sent to be acknowledged — or, as it must once the
		// faults trip, for the job abort.
		p.C.drain()
	})

	// Termination: every PE ends in a terminal state — aborted, crashed, or
	// wedged-and-released — within the waitUntil bound. A hang here is the
	// bug the failure plane exists to prevent.
	for _, p := range pes {
		p := p
		waitUntil(t, func() bool { return p.C.Err() != nil })
	}

	// No false positives: only scheduled victims may be confirmed dead.
	for _, p := range pes {
		snap := p.C.HealthSnapshot()
		for _, dead := range snap.Dead {
			if !victims[dead] {
				t.Fatalf("rank %d confirmed non-victim %d dead (victims %v)", p.C.Rank(), dead, victims)
			}
		}
	}

	// The fault actually tripped, and at least one survivor confirmed it.
	if fi.Injected().PEKills+fi.Injected().PEWedges == 0 {
		t.Fatal("no PE fault tripped; schedule too late for the traffic window")
	}
	failures := 0
	for _, p := range pes {
		failures += p.C.Stats().PEFailures
	}
	if failures == 0 {
		t.Fatal("no PE failure confirmed by any detector")
	}
	t.Logf("seed=%d kill=%d@%d wedge=%d@%d confirmed=%d drops=%d slowdowns=%d",
		seed, killVictim, killAt, wedgeVictim, wedgeAt, failures, fi.Injected().Drops, fi.Injected().Slowdowns)
}

// TestConduitAfterAbortAbortsAtOnce: a conduit created after the job's abort
// was raised (its PE was still starting up) reports the notice's code from
// Err() the moment New returns — no detector tick, no launcher sweep — and
// releases its node barrier.
func TestConduitAfterAbortAbortsAtOnce(t *testing.T) {
	fab := ib.NewFabric(vclock.Default(), nil)
	srv := pmi.NewServer(2, vclock.Default())
	srv.RaiseAbort(pmi.AbortNotice{Origin: -1, Dead: -1, Code: 124, Reason: "watchdog"})
	clk := vclock.NewClock(0)
	bar := vclock.NewVBarrier(2)
	c := New(Config{Rank: 0, NProcs: 2, PPN: 2, HCA: fab.AddHCA(), PMI: srv.Client(0, clk),
		Clock: clk, Mode: OnDemand, NodeBarrier: bar})
	defer c.Close()
	var ae *AbortError
	if err := c.Err(); !errors.As(err, &ae) || ae.Code != 124 {
		t.Fatalf("Err() = %v, want an AbortError with code 124", err)
	}
	if !bar.Aborted() {
		t.Error("node barrier not released by the abort")
	}
}
