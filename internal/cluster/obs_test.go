package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
// observability plane: the full Perfetto export (every event, the connection
// lifecycle's included, and the gauges) of two identical runs must be
// byte-identical and valid JSON, even though goroutine scheduling differs
// between the runs. This is what the secondary sort keys of obs.Plane.Events
// buy — with VT-only ordering, same-timestamp events from different PEs would
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
			NP: 9, PPN: 3, Mode: mode, HeapSize: 1 << 16,
			Obs: obs.Config{Events: true, Gauges: true},
		}, ringApp(3, 512))
		var pa, pb bytes.Buffer
		if err := errors.Join(a.Obs.WritePerfetto(&pa), b.Obs.WritePerfetto(&pb)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pa.Bytes(), pb.Bytes()) || !json.Valid(pa.Bytes()) {
			t.Errorf("%v: Perfetto exports differ across identical runs or are not JSON (%d vs %d bytes)\n%s",
				mode, pa.Len(), pb.Len(), firstDivergence(a, b))
		}
	}
}

// TestStartupPhasesSumToInitVT: in both modes the report's phases, laid end to
// end from launch, are the "init:<name>" spans the clocks drew (so they tile
// each init interval), and the obs plane does not move them.
func TestStartupPhasesSumToInitVT(t *testing.T) {
	for _, mode := range []gasnet.Mode{gasnet.OnDemand, gasnet.Static} {
		cfg := Config{NP: 8, PPN: 4, Mode: mode, HeapSize: 1 << 16}
		off, errOff := Run(cfg, func(c *shmem.Ctx) {})
		cfg.Obs = obs.Config{Events: true, Metrics: true}
		on, errOn := Run(cfg, func(c *shmem.Ctx) {})
		if err := errors.Join(errOff, errOn); err != nil {
			t.Fatal(err)
		}
		drawn := map[string]obs.Event{}
		for _, e := range on.Obs.Events() {
			drawn[fmt.Sprint(e.Rank, e.Kind)] = e
		}
		startup := BuildReport(on).StartupPhases
		if len(startup) != cfg.NP {
			t.Fatalf("%v: report has %d PE phase lists, want %d", mode, len(startup), cfg.NP)
		}
		for r, pe := range startup {
			if p := on.PEs[r].Phases; p != off.PEs[r].Phases || p.Total() <= 0 {
				t.Errorf("%v: PE %d phases obs on %v, obs off %v: want equal and positive", mode, r, p, off.PEs[r].Phases)
			}
			for _, ph := range pe.Phases {
				if e := drawn[fmt.Sprint(r, "init:"+ph.Name)]; ph.Start != e.VT || ph.End-ph.Start != e.Dur {
					t.Errorf("%v: PE %d report phase %+v, clock drew [%d, +%d]", mode, r, ph, e.VT, e.Dur)
				}
			}
		}
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
