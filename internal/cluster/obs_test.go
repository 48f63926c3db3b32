package cluster

import (
	"reflect"
	"slices"
	"testing"

	"goshmem/internal/gasnet"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
)

// ringApp is a 16-PE ring exchange: every PE puts a block to its right
// neighbor, barriers, and reads a block back from its left neighbor. It is
// the workload for the trace-determinism and overhead tests because it
// drives every instrumented layer (puts, gets, barriers, connects).
func ringApp(iters, blockSize int) func(c *shmem.Ctx) {
	return func(c *shmem.Ctx) {
		buf := c.Malloc(blockSize)
		src := make([]byte, blockSize)
		dst := make([]byte, blockSize)
		right := (c.Me() + 1) % c.NPEs()
		left := (c.Me() - 1 + c.NPEs()) % c.NPEs()
		for i := 0; i < iters; i++ {
			src[0] = byte(i)
			c.PutMem(buf, src, right)
			c.BarrierAll()
			c.GetMem(dst, buf, left)
		}
		c.BarrierAll()
	}
}

// TestTraceByteIdenticalAcrossRuns extends the determinism invariant to the
// observability plane: the connection-lifecycle trace of two identical runs
// must be byte-identical, even though goroutine scheduling differs between
// the runs. This is what the secondary sort keys in obs.SortEvents buy —
// with VT-only ordering, same-timestamp events from different PEs would
// serialize in schedule-dependent order.
func TestTraceByteIdenticalAcrossRuns(t *testing.T) {
	for _, mode := range []gasnet.Mode{gasnet.OnDemand, gasnet.Static} {
		// Odd np, as in TestFlowTelemetryByteIdentical: at even np the
		// dissemination barrier's distance-np/2 round makes both sides of
		// a pair demand the connection in the same round with no
		// happens-before between them, so which side initiates (and thus
		// which lifecycle events exist) is schedule-dependent. At odd np
		// no barrier distance is self-inverse and every pair's second
		// demand is causally ordered behind the first establishment.
		a, b := runTwice(t, Config{
			NP: 9, PPN: 3, Mode: mode, HeapSize: 1 << 16, Trace: true,
		}, ringApp(3, 512))
		if len(a.Trace) == 0 {
			t.Fatalf("%v: empty trace", mode)
		}
		if !reflect.DeepEqual(a.Trace, b.Trace) {
			t.Errorf("%v: traces differ across identical runs (len %d vs %d)\n%s",
				mode, len(a.Trace), len(b.Trace), firstDivergence(a, b))
		}
	}
}

// TestStartupPhasesSumToInitVT asserts the phase-tiling invariant in both
// connection modes: per PE, the recorded startup phases are contiguous,
// start at the PE's init start, and their durations sum exactly to the
// reported init virtual time. The phase name sequence must also be
// identical across modes so breakdown tables stay aligned. The always-on
// per-PE durations (PEResult.Phases) are the same phases, and with the obs
// plane off they are unchanged and still tile the init time.
func TestStartupPhasesSumToInitVT(t *testing.T) {
	nameSets := map[string][]string{}
	for _, mode := range []gasnet.Mode{gasnet.OnDemand, gasnet.Static} {
		res, err := Run(Config{
			NP: 8, PPN: 4, Mode: mode, HeapSize: 1 << 16,
			Obs: obs.Config{Metrics: true},
		}, func(c *shmem.Ctx) {})
		if err != nil {
			t.Fatal(err)
		}
		pes := res.Obs.StartupPhases()
		if len(pes) != 8 {
			t.Fatalf("%v: got %d PE phase lists, want 8", mode, len(pes))
		}
		var names []string
		for _, pp := range pes {
			if len(pp.Phases) == 0 {
				t.Fatalf("%v: PE %d recorded no phases", mode, pp.Rank)
			}
			var sum int64
			prevEnd := pp.Phases[0].Start
			for i, ph := range pp.Phases {
				if ph.Start != prevEnd {
					t.Errorf("%v: PE %d phase %q starts at %d, want %d (phases must tile)",
						mode, pp.Rank, ph.Name, ph.Start, prevEnd)
				}
				if ph.End < ph.Start {
					t.Errorf("%v: PE %d phase %q has negative duration", mode, pp.Rank, ph.Name)
				}
				prevEnd = ph.End
				sum += ph.Dur()
				if i >= len(shmem.PhaseNames) || ph.Name != shmem.PhaseNames[i] || ph.Dur() != res.PEs[pp.Rank].Phases[i] {
					t.Errorf("%v: PE %d phase %d %q (%d ns) is not PEResult.Phases' %v", mode, pp.Rank, i, ph.Name, ph.Dur(), res.PEs[pp.Rank].Phases)
				}
				if pp.Rank == 0 {
					names = append(names, ph.Name)
				}
			}
			if init := res.PEs[pp.Rank].InitVT; sum != init {
				t.Errorf("%v: PE %d phase sum %d != init VT %d", mode, pp.Rank, sum, init)
			}
		}
		nameSets[mode.String()] = names

		off, err := Run(Config{NP: 8, PPN: 4, Mode: mode, HeapSize: 1 << 16}, func(c *shmem.Ctx) {})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range off.PEs {
			if p.Phases.Total() != p.InitVT || p.InitVT <= 0 || slices.ContainsFunc(p.Phases[:], func(d int64) bool { return d < 0 }) {
				t.Errorf("%v, obs off: PE %d phases %v do not tile init VT %d", mode, p.Rank, p.Phases, p.InitVT)
			}
			if p.Phases != res.PEs[p.Rank].Phases {
				t.Errorf("%v: PE %d phases obs off %v != obs on %v", mode, p.Rank, p.Phases, res.PEs[p.Rank].Phases)
			}
		}
	}
	if !reflect.DeepEqual(nameSets["static"], nameSets["on-demand"]) {
		t.Errorf("phase name sequences differ across modes: static=%v on-demand=%v",
			nameSets["static"], nameSets["on-demand"])
	}
}

// TestObsDisabledOverhead is the overhead guard: with observability off,
// every instrumentation site reduces to a nil-receiver check. Rather than
// diffing two noisy wall-clock measurements, it bounds the disabled-path
// cost deterministically: (measured ns per disabled call) x (number of
// instrumentation calls the run actually makes) must stay under 5% of the
// run's wall time. The call count is taken from a fully-enabled replica of
// the same run (every recorded event or histogram sample corresponds to at
// least one instrumentation call), doubled to cover guard-only sites that
// record nothing.
func TestObsDisabledOverhead(t *testing.T) {
	app := ringApp(10, 4096)

	base, err := Run(Config{NP: 16, PPN: 8, Mode: gasnet.OnDemand, HeapSize: 1 << 16}, app)
	if err != nil {
		t.Fatal(err)
	}
	if base.Obs != nil {
		t.Fatal("baseline run unexpectedly created an obs plane")
	}

	full, err := Run(Config{
		NP: 16, PPN: 8, Mode: gasnet.OnDemand, HeapSize: 1 << 16,
		Obs: obs.Config{Events: true, Metrics: true, Gauges: true, Incidents: true, RingCap: -1},
	}, app)
	if err != nil {
		t.Fatal(err)
	}
	calls := int64(len(full.Obs.Events()))
	for _, h := range full.Obs.Registry().Hists() {
		calls += h.Count
	}
	for _, s := range full.Obs.Gauges().Series(obs.DefaultGaugeTick) {
		calls += int64(len(s.Points))
	}
	calls += int64(len(full.Obs.Ledger().Snapshot()))
	calls *= 2 // headroom for Active() guards and counters that recorded nothing
	if calls == 0 {
		t.Fatal("instrumented run recorded nothing; the guard tested nothing")
	}

	perCall := obs.NopCallCost(1 << 20)
	overheadNS := perCall * float64(calls)
	budget := 0.05 * float64(base.Wall.Nanoseconds())
	t.Logf("%d instrumentation calls x %.2f ns = %.0f ns disabled overhead; budget %.0f ns (5%% of %v wall)",
		calls, perCall, overheadNS, budget, base.Wall)
	if overheadNS >= budget {
		t.Errorf("disabled obs path overhead %.0f ns exceeds 5%% budget %.0f ns", overheadNS, budget)
	}
}
