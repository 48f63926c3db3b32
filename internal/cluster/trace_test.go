package cluster_test

import (
	"strings"
	"testing"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
)

func TestTraceRecordsHandshakeLifecycle(t *testing.T) {
	res, err := cluster.Run(cluster.Config{NP: 4, PPN: 2, Mode: gasnet.OnDemand,
		Obs: obs.Config{Events: true}, SkipLaunchCost: true},
		func(c *shmem.Ctx) {
			a := c.Malloc(8)
			c.P64(a, 1, (c.Me()+1)%4)
			c.BarrierAll()
		})
	if err != nil {
		t.Fatal(err)
	}
	evs := res.Obs.Events()
	kinds := map[string]int{}
	for i, e := range evs {
		if i > 0 && e.VT < evs[i-1].VT {
			t.Fatal("events not sorted by virtual time")
		}
		if e.Layer != obs.LayerGasnet || !strings.HasPrefix(e.Kind, "conn-") {
			continue
		}
		kinds[e.Kind]++
		if e.Rank < 0 || e.Rank >= 4 || e.Peer < 0 || e.Peer >= 4 {
			t.Fatalf("bad event %+v", e)
		}
	}
	for _, want := range []string{"conn-initiate", "conn-req-served", "conn-ready-client", "conn-ready-server"} {
		if kinds[want] == 0 {
			t.Errorf("no %q events (got %v)", want, kinds)
		}
	}
	// Every client-side establishment pairs an initiate with a ready.
	if kinds["conn-ready-client"] > kinds["conn-initiate"] {
		t.Errorf("more client-ready than initiate events: %v", kinds)
	}
}
