package cluster_test

import (
	"errors"
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

// TestRunLaunchCostSetsClockOrigin: every clock starts at the modeled fan-out
// (Result.LaunchVT, zero with SkipLaunchCost); start_pes does not depend on it.
func TestRunLaunchCostSetsClockOrigin(t *testing.T) {
	cfg := cluster.Config{NP: 4, PPN: 4, Mode: gasnet.OnDemand}
	with, errWith := cluster.Run(cfg, func(c *shmem.Ctx) {})
	cfg.SkipLaunchCost = true
	without, errWithout := cluster.Run(cfg, func(c *shmem.Ctx) {})
	if err := errors.Join(errWith, errWithout); err != nil {
		t.Fatal(err)
	}
	if with.LaunchVT <= 0 || without.LaunchVT != 0 || with.JobVT <= without.JobVT {
		t.Fatalf("launch cost missing: LaunchVT with=%d without=%d, JobVT with=%d without=%d",
			with.LaunchVT, without.LaunchVT, with.JobVT, without.JobVT)
	}
	if diff := with.InitAvg - without.InitAvg; max(diff, -diff) > with.InitAvg/10 {
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

// TestRunRejectsBadConfig: no PEs, or a scheduled fault naming a PE, adapter or
// rail the job lacks, is a configuration error. The last row puts every fault
// field at the edge of its range, and runs.
func TestRunRejectsBadConfig(t *testing.T) {
	const never = 1 << 62
	for _, tc := range []struct {
		name string
		cfg  cluster.Config
		ok   bool
	}{
		{"NP", cluster.Config{NP: -4}, false},
		{"KillPEs rank", cluster.Config{KillPEs: []cluster.PEFault{{Rank: 4}}}, false},
		{"WedgePEs rank", cluster.Config{WedgePEs: []cluster.PEFault{{Rank: -1}}}, false},
		{"FailPorts LID", cluster.Config{FailPorts: []cluster.PortFault{{LID: 3}}}, false},
		{"FailPorts rail", cluster.Config{FailPorts: []cluster.PortFault{{LID: 1, Rail: 2}}}, false},
		{"FailRails rail", cluster.Config{FailRails: []cluster.RailFault{{Rail: 5}}}, false},
		{"Partitions rank", cluster.Config{Partitions: []cluster.PartitionFault{{A: []int{0}, B: []int{4}}}}, false},
		{"in range", cluster.Config{
			KillPEs: []cluster.PEFault{{Rank: 3, At: never}}, WedgePEs: []cluster.PEFault{{Rank: 0, At: never}},
			FailPorts: []cluster.PortFault{{LID: 2, Rail: 1, At: never}}, FailRails: []cluster.RailFault{{Rail: 1, At: never}},
			Partitions: []cluster.PartitionFault{{A: []int{0, 1}, B: []int{2, 3}, At: never, Heal: -1}},
		}, true},
	} {
		if tc.cfg.NP == 0 {
			tc.cfg.NP, tc.cfg.PPN, tc.cfg.Rails = 4, 2, 2
		}
		if res, err := cluster.Run(tc.cfg, func(c *shmem.Ctx) {}); (err == nil) != tc.ok || (res != nil) != tc.ok {
			t.Errorf("%s: Run returned %v, %v; want ok=%v", tc.name, res != nil, err, tc.ok)
		}
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
