package cluster_test

import (
	"strings"
	"sync"
	"testing"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/shmem"
)

func TestRunBasics(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	res, err := cluster.Run(cluster.Config{NP: 12, PPN: 5, Mode: gasnet.OnDemand},
		func(c *shmem.Ctx) {
			mu.Lock()
			seen[c.Me()] = true
			mu.Unlock()
			c.BarrierAll()
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 12 {
		t.Fatalf("only %d PEs ran", len(seen))
	}
	if len(res.PEs) != 12 || res.PEs[7].Rank != 7 {
		t.Fatal("results not indexed by rank")
	}
	if res.JobVT <= res.InitMax {
		t.Fatal("job time should exceed init time")
	}
	// 12 PEs at 5 ppn -> 3 nodes -> 3 HCAs.
	if len(res.HCA) != 3 {
		t.Fatalf("HCAs = %d, want 3", len(res.HCA))
	}
}

func TestRunLaunchCostSetsClockOrigin(t *testing.T) {
	with, err := cluster.Run(cluster.Config{NP: 4, PPN: 4, Mode: gasnet.OnDemand},
		func(c *shmem.Ctx) {})
	if err != nil {
		t.Fatal(err)
	}
	without, err := cluster.Run(cluster.Config{NP: 4, PPN: 4, Mode: gasnet.OnDemand, SkipLaunchCost: true},
		func(c *shmem.Ctx) {})
	if err != nil {
		t.Fatal(err)
	}
	if with.JobVT <= without.JobVT {
		t.Fatalf("launch cost missing: with=%d without=%d", with.JobVT, without.JobVT)
	}
	// Init duration itself should be unaffected by the clock origin.
	diff := with.InitAvg - without.InitAvg
	if diff < 0 {
		diff = -diff
	}
	if diff > with.InitAvg/10 {
		t.Fatalf("init duration should not depend on launch offset: %d vs %d", with.InitAvg, without.InitAvg)
	}
}

// TestRunAppPanicPropagates: a body panic on one PE is a launcher bug whichever
// way the job was launched — launch is the one loop behind Run and RunEnvs —
// and surfaces as the same error: the PE, the panic value, and a stack that
// reaches the frame that raised it.
func TestRunAppPanicPropagates(t *testing.T) {
	cfg := cluster.Config{NP: 2, PPN: 2, Mode: gasnet.OnDemand}
	for _, tc := range []struct {
		name   string
		launch func() error
	}{
		{"Run", func() error {
			// PE 0 must not hang on a collective with a dead partner; it
			// simply finishes without synchronizing in this test.
			_, err := cluster.Run(cfg, func(c *shmem.Ctx) { boomOn(c.Me()) })
			return err
		}},
		{"RunEnvs", func() error { return cluster.RunEnvs(cfg, func(env shmem.Env) { boomOn(env.Rank) }) }},
	} {
		err := tc.launch()
		if err == nil {
			t.Errorf("%s: a PE panicked and the launcher returned no error", tc.name)
			continue
		}
		for _, want := range []string{"cluster: PE 1 panicked: boom\n", "goroutine ", "cluster_test.boomOn"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error lacks %q:\n%v", tc.name, want, err)
			}
		}
	}
}

func boomOn(rank int) {
	if rank == 1 {
		panic("boom")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := cluster.Run(cluster.Config{NP: 0}, func(c *shmem.Ctx) {}); err == nil {
		t.Fatal("NP=0 should error")
	}
}

func TestAggregates(t *testing.T) {
	res, err := cluster.Run(cluster.Config{NP: 4, PPN: 2, Mode: gasnet.OnDemand, SkipLaunchCost: true},
		func(c *shmem.Ctx) {
			a := c.Malloc(8)
			c.P64(a, 1, (c.Me()+1)%4)
			c.BarrierAll()
		})
	if err != nil {
		t.Fatal(err)
	}
	// The three averages are one loop over the per-PE slots: each must equal
	// its own column's mean.
	var peers, eps, conns int
	for _, p := range res.PEs {
		peers, eps, conns = peers+p.Stats.PeersContacted, eps+p.Stats.RCQPsCreated, conns+p.Stats.ConnsEstablished
	}
	if peers == 0 || eps == 0 || conns == 0 {
		t.Fatalf("ring left a column empty: peers=%d eps=%d conns=%d", peers, eps, conns)
	}
	if res.AvgPeers() != float64(peers)/4 || res.AvgEndpoints() != float64(eps)/4 || res.AvgConns() != float64(conns)/4 {
		t.Fatalf("aggregates: peers=%v eps=%v conns=%v, want %d/4 %d/4 %d/4",
			res.AvgPeers(), res.AvgEndpoints(), res.AvgConns(), peers, eps, conns)
	}
	if empty := (&cluster.Result{}); empty.AvgPeers() != 0 {
		t.Fatalf("no PEs: AvgPeers = %v, want 0", empty.AvgPeers())
	}
	// On-demand ring: endpoints per PE well below NP+1.
	if res.AvgEndpoints() > 6 {
		t.Fatalf("on-demand ring endpoints = %v", res.AvgEndpoints())
	}
}
