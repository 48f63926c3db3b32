package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"goshmem/internal/gasnet"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
)

// runTwice runs one job configuration twice, for the byte-identity tests.
func runTwice(t *testing.T, cfg Config, app func(*shmem.Ctx)) (a, b *Result) {
	t.Helper()
	var res [2]*Result
	for i := range res {
		r, err := Run(cfg, app)
		if err != nil {
			t.Fatal(err)
		}
		res[i] = r
	}
	return res[0], res[1]
}

// firstDivergence names the cause of a byte-identity failure instead of
// leaving two timelines to be compared by eye: the first event (in the
// plane's deterministic order, but by the time each one ended — a span is
// recorded under its start and only its end knows what went wrong inside)
// that the two runs of one configuration do not share, with where the PE it happened on and the PE it concerns stood in
// virtual time in each run; or, when the event streams agree or were not
// recorded, the first flow-matrix row that differs. Empty when it finds none.
func firstDivergence(a, b *Result) string {
	ea, eb := a.Obs.Events(), b.Obs.Events()
	for _, evs := range [][]obs.Event{ea, eb} {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].VT+evs[i].Dur < evs[j].VT+evs[j].Dur })
	}
	n := len(ea)
	if len(eb) < n {
		n = len(eb)
	}
	at := -1
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(ea[i], eb[i]) {
			at = i
			break
		}
	}
	if at < 0 && len(ea) != len(eb) {
		at = n
	}
	if at >= 0 {
		show := func(evs []obs.Event) string {
			if at >= len(evs) {
				return "(stream ended)"
			}
			e := evs[at]
			s := fmt.Sprintf("vt=%d rank=%d %s/%s peer=%d bytes=%d dur=%d %v", e.VT, e.Rank, e.Layer, e.Kind, e.Peer, e.Bytes, e.Dur, e.Attrs)
			// The clocks of the two PEs involved: each one's latest earlier event.
			for _, r := range []int{e.Rank, e.Peer} {
				if r < 0 {
					continue
				}
				for j := at - 1; j >= 0; j-- {
					if evs[j].Rank == r {
						s += fmt.Sprintf("\n      rank %d last seen at vt=%d (%s/%s peer=%d)", r, evs[j].VT, evs[j].Layer, evs[j].Kind, evs[j].Peer)
						break
					}
				}
			}
			return s
		}
		return fmt.Sprintf("first differing event is #%d of %d/%d:\n  run A: %s\n  run B: %s", at, len(ea), len(eb), show(ea), show(eb))
	}
	ma, mb := a.FlowMatrix(), b.FlowMatrix()
	for src := range ma {
		if src >= len(mb) || !reflect.DeepEqual(ma[src], mb[src]) {
			var rowB []obs.FlowEdge
			if src < len(mb) {
				rowB = mb[src]
			}
			return fmt.Sprintf("first differing flow row is rank %d (final clocks %d / %d):\n  run A: %+v\n  run B: %+v",
				src, a.PEs[src].FinalVT, b.PEs[src].FinalVT, ma[src], rowB)
		}
	}
	return ""
}

// TestFirstDivergenceNamesTheEvent checks the helper on two runs that differ
// by construction (one message size), and on two that do not.
func TestFirstDivergenceNamesTheEvent(t *testing.T) {
	cfg := Config{NP: 3, PPN: 1, Mode: gasnet.OnDemand, HeapSize: 1 << 16, Obs: obs.Config{Events: true, Flows: true}}
	a, same := runTwice(t, cfg, ringApp(1, 64))
	if d := firstDivergence(a, same); d != "" {
		t.Errorf("identical runs reported as diverging:\n%s", d)
	}
	other, _ := Run(cfg, ringApp(1, 128))
	d := firstDivergence(a, other)
	if d == "" {
		t.Fatal("runs moving different message sizes reported as identical")
	}
	t.Log(d)
}
