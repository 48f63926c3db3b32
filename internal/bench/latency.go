package bench

import (
	"fmt"
	"slices"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
)

// The OSU OpenSHMEM micro-suite (v4.4, the paper's section V-A apparatus).
// Each kernel below is one job under one connection design, timed in virtual
// time on rank 0 and returned with the job's result; cmd/osu prints them
// OSU-style one design at a time, the figure functions run each under both.

// Key names one measurement of a kernel: the operation and its message size in
// bytes (the PE count for "barrier", zero for an atomic).
type Key struct {
	Op string
	N  int
}

// Lat is what a kernel measured, in virtual microseconds per operation (MiB/s
// for PutBW).
type Lat map[Key]float64

// micro runs one micro-benchmark job — clocks start at zero, no launch cost —
// and returns what body recorded. Only rank 0 may record.
func micro(cfg cluster.Config, body func(c *shmem.Ctx, lat Lat)) (Lat, *cluster.Result, error) {
	cfg.SkipLaunchCost = true
	lat := Lat{}
	res, err := cluster.Run(cfg, func(c *shmem.Ctx) { body(c, lat) })
	return lat, res, err
}

// timed returns the virtual microseconds one call of op takes, averaged over
// iters calls.
func timed(c *shmem.Ctx, iters int, op func()) float64 {
	t0 := c.Clock().Now()
	for i := 0; i < iters; i++ {
		op()
	}
	return float64(c.Clock().Now()-t0) / float64(iters) / 1000
}

// both runs one single-design measurement under each connection design.
func both[T any](run func(mode gasnet.Mode) (T, error)) (static, onDemand T, err error) {
	if static, err = run(gasnet.Static); err == nil {
		onDemand, err = run(gasnet.OnDemand)
	}
	return static, onDemand, err
}

// bothLat is both for a kernel, dropping the jobs' results.
func bothLat(kernel func(mode gasnet.Mode) (Lat, *cluster.Result, error)) (static, onDemand Lat, err error) {
	return both(func(mode gasnet.Mode) (Lat, error) {
		lat, _, err := kernel(mode)
		return lat, err
	})
}

// PutGet is osu_oshm_put / osu_oshm_get: the latency of each op in ops ("put"
// — shmem_putmem then shmem_quiet — and "get") between two PEs on two nodes.
// The loops time the steady state, as OSU's do behind their skipped warm-up
// iterations: the pair's one connection is paid for before the first
// timestamp under either design — static at attach, on-demand in Malloc's
// barrier — and the warm-up put below waits out whatever of that handshake is
// still in flight (when the two barrier REQs collide and PE 0 ends up the
// server side, its first put would otherwise wait for the RTU inside the timed
// loop).
func PutGet(mode gasnet.Mode, ops []string, sizes []int, iters int, oc obs.Config) (Lat, *cluster.Result, error) {
	maxSize := slices.Max(sizes)
	return micro(cluster.Config{NP: 2, PPN: 1, Mode: mode, HeapSize: 2 * maxSize, Obs: oc}, func(c *shmem.Ctx, lat Lat) {
		buf := c.Malloc(maxSize)
		src, dst := make([]byte, maxSize), make([]byte, maxSize)
		if c.Me() == 0 {
			c.PutMem(buf, src[:1], 1)
			c.Quiet()
		}
		c.BarrierAll()
		for _, size := range sizes {
			for _, op := range ops {
				if c.Me() != 0 {
					continue
				}
				switch op {
				case "put":
					lat[Key{op, size}] = timed(c, iters, func() { c.PutMem(buf, src[:size], 1); c.Quiet() })
				case "get":
					lat[Key{op, size}] = timed(c, iters, func() { c.GetMem(dst[:size], buf, 1) })
				}
			}
			c.BarrierAll()
		}
	})
}

// LatencyPoint is one message size of Figure 6(a)/(b) (microseconds).
type LatencyPoint struct {
	Size             int
	PutStatic, PutOD float64
	GetStatic, GetOD float64
}

// PutGetLatency reproduces Figure 6(a)/(b): shmem_put and shmem_get latency
// between two PEs on two nodes under both connection designs.
func PutGetLatency(sizes []int, iters int) ([]LatencyPoint, error) {
	s, o, err := bothLat(func(mode gasnet.Mode) (Lat, *cluster.Result, error) {
		return PutGet(mode, []string{"put", "get"}, sizes, iters, obs.Config{})
	})
	if err != nil {
		return nil, err
	}
	var out []LatencyPoint
	for _, n := range sizes {
		put, get := Key{"put", n}, Key{"get", n}
		out = append(out, LatencyPoint{Size: n, PutStatic: s[put], PutOD: o[put], GetStatic: s[get], GetOD: o[get]})
	}
	return out, nil
}

// PutGetTable renders Figure 6(a)/(b).
func PutGetTable(pts []LatencyPoint) *Table {
	t := &Table{
		Title:   "Figure 6(a)/(b): shmem_get / shmem_put latency (us), static vs on-demand",
		Headers: []string{"size(B)", "get static", "get on-demand", "put static", "put on-demand", "max diff %"},
	}
	for _, p := range pts {
		dg := pctDiff(p.GetStatic, p.GetOD)
		dp := pctDiff(p.PutStatic, p.PutOD)
		if dp > dg {
			dg = dp
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Size), f2(p.GetStatic), f2(p.GetOD),
			f2(p.PutStatic), f2(p.PutOD), f2(dg),
		})
	}
	t.Notes = append(t.Notes, "paper reports <3% difference between the two approaches at every size")
	return t
}

func pctDiff(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a * 100
	if d < 0 {
		d = -d
	}
	return d
}

// AtomicOps are the rows of the atomics kernel, in OSU's order.
var AtomicOps = []string{"fadd", "finc", "add", "inc", "cswap", "swap"}

// Atomics is osu_oshm_atomics: the latency of each shmem_long atomic in
// AtomicOps between two PEs on two nodes.
func Atomics(mode gasnet.Mode, iters int, oc obs.Config) (Lat, *cluster.Result, error) {
	return micro(cluster.Config{NP: 2, PPN: 1, Mode: mode, HeapSize: 4096, Obs: oc}, func(c *shmem.Ctx, lat Lat) {
		v := c.Malloc(8)
		ops := map[string]func(){
			"fadd":  func() { c.FetchAddInt64(v, 1, 1) },
			"finc":  func() { c.FetchIncInt64(v, 1) },
			"add":   func() { c.AddInt64(v, 1, 1) },
			"inc":   func() { c.IncInt64(v, 1) },
			"cswap": func() { c.CompareSwapInt64(v, 0, 1, 1) },
			"swap":  func() { c.SwapInt64(v, 7, 1) },
		}
		for _, op := range AtomicOps {
			if c.Me() == 0 {
				lat[Key{Op: op}] = timed(c, iters, ops[op])
			}
			c.BarrierAll()
		}
	})
}

// AtomicPoint is one operation of Figure 6(c) (microseconds).
type AtomicPoint struct {
	Op               string
	Static, OnDemand float64
}

// AtomicLatency reproduces Figure 6(c): latency of fadd, finc, add, inc,
// cswap and swap between two PEs under both connection designs.
func AtomicLatency(iters int) ([]AtomicPoint, error) {
	s, o, err := bothLat(func(mode gasnet.Mode) (Lat, *cluster.Result, error) {
		return Atomics(mode, iters, obs.Config{})
	})
	if err != nil {
		return nil, err
	}
	var out []AtomicPoint
	for _, op := range AtomicOps {
		out = append(out, AtomicPoint{Op: op, Static: s[Key{Op: op}], OnDemand: o[Key{Op: op}]})
	}
	return out, nil
}

// AtomicTable renders Figure 6(c).
func AtomicTable(pts []AtomicPoint) *Table {
	t := &Table{
		Title:   "Figure 6(c): shmem atomics latency (us), static vs on-demand",
		Headers: []string{"op", "static", "on-demand", "diff %"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{p.Op, f2(p.Static), f2(p.OnDemand), f2(pctDiff(p.Static, p.OnDemand))})
	}
	return t
}

// Collectives is osu_oshm_collect / osu_oshm_reduce: the latency of each op in
// ops ("collect" — shmem_fcollect, dense — and "reduce" — a float64 sum over
// ⌈size/8⌉ elements, sparse) versus per-PE message size across np PEs. An
// on-demand run includes amortized connection setup, as in the paper.
func Collectives(mode gasnet.Mode, ops []string, np, ppn int, sizes []int, iters int, oc obs.Config) (Lat, *cluster.Result, error) {
	maxSize := slices.Max(sizes)
	return micro(cluster.Config{NP: np, PPN: ppn, Mode: mode, HeapSize: 4096, Obs: oc}, func(c *shmem.Ctx, lat Lat) {
		contrib := make([]byte, maxSize)
		fcontrib := make([]float64, (maxSize+7)/8)
		// Warm up: establish the collectives' connectivity and let the
		// handshake-completion spread settle (the paper amortizes this over
		// 1,000 timed iterations; see EXPERIMENTS.md).
		c.FCollectBytes(contrib[:1])
		c.ReduceFloat64(shmem.OpSum, fcontrib[:1])
		c.BarrierAll()
		c.BarrierAll()
		for _, size := range sizes {
			for _, op := range ops {
				c.BarrierAll()
				var us float64
				switch op {
				case "collect":
					us = timed(c, iters, func() { c.FCollectBytes(contrib[:size]) })
				case "reduce":
					us = timed(c, iters, func() { c.ReduceFloat64(shmem.OpSum, fcontrib[:(size+7)/8]) })
				}
				if c.Me() == 0 {
					lat[Key{op, size}] = us
				}
			}
		}
	})
}

// CollPoint is one size of Figure 7(a)/(b) (microseconds).
type CollPoint struct {
	Size                     int
	CollectStatic, CollectOD float64
	ReduceStatic, ReduceOD   float64
}

// CollectiveLatency reproduces Figure 7(a)/(b): shmem_collect and
// shmem_reduce latency versus message size at np PEs under both connection
// designs.
func CollectiveLatency(np int, sizes []int, iters, ppn int) ([]CollPoint, error) {
	s, o, err := bothLat(func(mode gasnet.Mode) (Lat, *cluster.Result, error) {
		return Collectives(mode, []string{"collect", "reduce"}, np, ppn, sizes, iters, obs.Config{})
	})
	if err != nil {
		return nil, err
	}
	var out []CollPoint
	for _, n := range sizes {
		coll, red := Key{"collect", n}, Key{"reduce", n}
		out = append(out, CollPoint{Size: n, CollectStatic: s[coll], CollectOD: o[coll], ReduceStatic: s[red], ReduceOD: o[red]})
	}
	return out, nil
}

// CollectiveTable renders Figure 7(a)/(b).
func CollectiveTable(np int, pts []CollPoint) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 7(a)/(b): shmem_collect and shmem_reduce latency (us) with %d PEs", np),
		Headers: []string{"size(B)", "collect static", "collect on-demand", "reduce static", "reduce on-demand"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Size), f2(p.CollectStatic), f2(p.CollectOD),
			f2(p.ReduceStatic), f2(p.ReduceOD),
		})
	}
	return t
}

// Barrier is osu_oshm_barrier: shmem_barrier_all latency across np PEs.
func Barrier(mode gasnet.Mode, np, ppn, iters int, oc obs.Config) (Lat, *cluster.Result, error) {
	return micro(cluster.Config{NP: np, PPN: ppn, Mode: mode, HeapSize: 4096, Obs: oc}, func(c *shmem.Ctx, lat Lat) {
		// Two warmups: the first establishes the dissemination pattern's
		// connections, the second absorbs the handshake-completion spread
		// (amortized over the paper's 1,000-iteration loop).
		c.BarrierAll()
		c.BarrierAll()
		us := timed(c, iters, c.BarrierAll)
		if c.Me() == 0 {
			lat[Key{"barrier", np}] = us
		}
	})
}

// BarrierPoint is one x of Figure 7(c) (microseconds).
type BarrierPoint struct {
	N                int
	Static, OnDemand float64
}

// BarrierLatency reproduces Figure 7(c): shmem_barrier_all latency versus PE
// count under both connection designs.
func BarrierLatency(sizes []int, iters, ppn int) ([]BarrierPoint, error) {
	var out []BarrierPoint
	for _, n := range sizes {
		s, o, err := bothLat(func(mode gasnet.Mode) (Lat, *cluster.Result, error) {
			return Barrier(mode, n, ppn, iters, obs.Config{})
		})
		if err != nil {
			return nil, err
		}
		out = append(out, BarrierPoint{N: n, Static: s[Key{"barrier", n}], OnDemand: o[Key{"barrier", n}]})
	}
	return out, nil
}

// BarrierTable renders Figure 7(c).
func BarrierTable(pts []BarrierPoint) *Table {
	t := &Table{
		Title:   "Figure 7(c): shmem_barrier_all latency (us) vs PE count",
		Headers: []string{"nprocs", "static", "on-demand", "diff %"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.N), f2(p.Static), f2(p.OnDemand), f2(pctDiff(p.Static, p.OnDemand)),
		})
	}
	return t
}

// PutBW is osu_oshm_put_bw (not a paper figure but part of the suite the paper
// draws its microbenchmarks from): streaming put bandwidth in MiB/s between
// two PEs on two nodes — a window of puts followed by one quiet, repeated.
func PutBW(mode gasnet.Mode, sizes []int, window, iters int, oc obs.Config) (Lat, *cluster.Result, error) {
	maxSize := slices.Max(sizes)
	return micro(cluster.Config{NP: 2, PPN: 1, Mode: mode, HeapSize: maxSize * window, Obs: oc}, func(c *shmem.Ctx, lat Lat) {
		buf := c.Malloc(maxSize * window)
		src := make([]byte, maxSize)
		for _, size := range sizes {
			c.BarrierAll()
			if c.Me() == 0 {
				t0 := c.Clock().Now()
				for it := 0; it < iters; it++ {
					for w := 0; w < window; w++ {
						c.PutMem(buf+shmem.SymAddr(w*size), src[:size], 1)
					}
					c.Quiet()
				}
				dt := float64(c.Clock().Now() - t0) // virtual ns
				bytes := float64(size) * float64(window) * float64(iters)
				lat[Key{"put_bw", size}] = bytes / dt * 1e9 / (1 << 20)
			}
			c.BarrierAll()
		}
	})
}

// BWPoint is one size of the put-bandwidth microbenchmark.
type BWPoint struct {
	Size             int
	StaticMBps       float64
	OnDemandMBps     float64
	MsgRateStaticK   float64 // thousand messages/s at this size
	MsgRateOnDemandK float64
}

// PutBandwidth measures streaming put bandwidth under both connection designs.
func PutBandwidth(sizes []int, window, iters int) ([]BWPoint, error) {
	s, o, err := bothLat(func(mode gasnet.Mode) (Lat, *cluster.Result, error) {
		return PutBW(mode, sizes, window, iters, obs.Config{})
	})
	if err != nil {
		return nil, err
	}
	var out []BWPoint
	for _, n := range sizes {
		st, od := s[Key{"put_bw", n}], o[Key{"put_bw", n}]
		out = append(out, BWPoint{
			Size: n, StaticMBps: st, OnDemandMBps: od,
			MsgRateStaticK:   st * (1 << 20) / float64(n) / 1e3,
			MsgRateOnDemandK: od * (1 << 20) / float64(n) / 1e3,
		})
	}
	return out, nil
}

// BandwidthTable renders the put-bandwidth results.
func BandwidthTable(pts []BWPoint) *Table {
	t := &Table{
		Title:   "Put bandwidth (windowed puts + quiet), static vs on-demand",
		Headers: []string{"size(B)", "static MiB/s", "on-demand MiB/s", "msg-rate static k/s", "msg-rate on-demand k/s"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Size), f1(p.StaticMBps), f1(p.OnDemandMBps),
			f1(p.MsgRateStaticK), f1(p.MsgRateOnDemandK),
		})
	}
	return t
}
