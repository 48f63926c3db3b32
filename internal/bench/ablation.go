package bench

import (
	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/shmem"
	"goshmem/internal/vclock"
)

// AblationRow is one design-choice isolation result.
type AblationRow struct {
	Name   string
	Value  float64
	Unit   string
	Detail string
}

// Ablations isolates the contribution of each design element the paper
// combines (sections IV-C, IV-D, IV-E) plus the HCA endpoint-cache
// sensitivity that motivates reducing live connections (section I, item 3).
func Ablations(np, ppn int) ([]AblationRow, error) {
	var rows []AblationRow

	// --- IV-D: non-blocking vs blocking PMI exchange (on-demand mode) ---
	initOf := func(blocking, globalBars bool, segEx shmem.SegExchange) (float64, float64, error) {
		res, err := cluster.Run(cluster.Config{NP: np, PPN: ppn, Mode: gasnet.OnDemand,
			BlockingPMI: blocking, GlobalInitBarriers: globalBars, SegEx: segEx,
			HeapSize: ActualHeap, DeclaredHeapSize: DeclaredHeap},
			func(c *shmem.Ctx) {})
		if err != nil {
			return 0, 0, err
		}
		return vclock.Seconds(res.InitAvg), res.AvgEndpoints(), nil
	}
	nb, nbEP, err := initOf(false, false, shmem.SegAuto)
	if err != nil {
		return nil, err
	}
	bl, _, err := initOf(true, false, shmem.SegAuto)
	if err != nil {
		return nil, err
	}
	rows = append(rows,
		AblationRow{"init, non-blocking PMI (proposed)", nb, "s", "PMIX_Iallgather launched, completion deferred"},
		AblationRow{"init, blocking PMI (ablation IV-D)", bl, "s", "Put-Fence-Get on the critical path"})

	// --- IV-E: intra-node vs global barriers during init ---
	gb, gbEP, err := initOf(false, true, shmem.SegAuto)
	if err != nil {
		return nil, err
	}
	rows = append(rows,
		AblationRow{"init, global init barriers (ablation IV-E)", gb, "s",
			"global barrier during start_pes"},
		AblationRow{"endpoints/PE after init, intra-node barriers (proposed)", nbEP, "QPs",
			"no connections exist when start_pes returns"},
		AblationRow{"endpoints/PE after init, global barriers (ablation IV-E)", gbEP, "QPs",
			"the barrier alone forced O(log P) connections"})

	// --- IV-C: piggybacked vs explicit segment exchange: latency of the
	// first put to a fresh peer ---
	put := Key{Op: "put"}
	firstPut := func(segEx shmem.SegExchange) (float64, error) {
		lat, _, err := micro(cluster.Config{NP: 2, PPN: 1, Mode: gasnet.OnDemand, SegEx: segEx, HeapSize: 4096},
			func(c *shmem.Ctx, lat Lat) {
				a := c.Malloc(64)
				if c.Me() == 0 {
					lat[put] = timed(c, 1, func() { c.PutMem(a, []byte{1, 2, 3, 4}, 1); c.Quiet() })
				}
				c.BarrierAll()
			})
		return lat[put], err
	}
	pg, err := firstPut(shmem.SegPiggyback)
	if err != nil {
		return nil, err
	}
	am, err := firstPut(shmem.SegAMOnDemand)
	if err != nil {
		return nil, err
	}
	rows = append(rows,
		AblationRow{"first-communication latency, piggybacked segments (proposed)", pg, "us",
			"segment triplets ride the connect handshake"},
		AblationRow{"first-communication latency, explicit segment AM (ablation IV-C)", am, "us",
			"extra request/reply round-trip after connect"})

	// --- HCA endpoint cache sensitivity (section I item 3) ---
	cacheLat := func(cacheQPs int) (float64, error) {
		model := vclock.Default()
		model.HCACacheQPs = cacheQPs
		lat, _, err := micro(cluster.Config{NP: np, PPN: ppn, Mode: gasnet.Static, Model: model, HeapSize: 4096},
			func(c *shmem.Ctx, lat Lat) {
				a := c.Malloc(64)
				// Cross-node target: intra-node loopback bypasses the wire
				// (and therefore the endpoint cache).
				peer := (c.Me() + ppn) % c.NPEs()
				c.BarrierAll()
				us := timed(c, 50, func() { c.PutMem(a, []byte{9}, peer); c.Quiet() })
				if c.Me() == 0 {
					lat[put] = us
				}
				c.BarrierAll()
			})
		return lat[put], err
	}
	big, err := cacheLat(1 << 20) // cache never oversubscribed
	if err != nil {
		return nil, err
	}
	small, err := cacheLat(8) // fully connected group thrashes the cache
	if err != nil {
		return nil, err
	}
	rows = append(rows,
		AblationRow{"put latency, static, large HCA endpoint cache", big, "us", "all QP contexts cached"},
		AblationRow{"put latency, static, tiny HCA endpoint cache", small, "us",
			"fully connected group thrashes the context cache"})
	return rows, nil
}

// AblationTable renders the ablations.
func AblationTable(rows []AblationRow) *Table {
	t := &Table{
		Title:   "Ablations: isolating each design element",
		Headers: []string{"configuration", "value", "unit", "detail"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Name, f3(r.Value), r.Unit, r.Detail})
	}
	return t
}
