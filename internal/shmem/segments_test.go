package shmem_test

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/shmem"
)

// TestSegDirChunkEdges: np=70 spans nine directory chunks, the last one
// partial. Every PE puts, fetch-adds and gets at every PE — self and the
// chunk edges 7/8, 63/64 and 69 included — under every way a triplet can
// arrive: the static broadcast, the on-demand piggyback, the explicit AM
// round-trip, and the broadcast forced onto an on-demand conduit. Under -race
// this is also a progress thread's store racing the app thread's lookups in
// the same chunk.
func TestSegDirChunkEdges(t *testing.T) {
	const n = 70
	for _, tc := range []struct {
		name string
		mode gasnet.Mode
		seg  shmem.SegExchange
	}{
		{"static", gasnet.Static, shmem.SegAuto},
		{"piggyback", gasnet.OnDemand, shmem.SegPiggyback},
		{"am-on-demand", gasnet.OnDemand, shmem.SegAMOnDemand},
		{"broadcast-on-demand", gasnet.OnDemand, shmem.SegBroadcast},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, cluster.Config{NP: n, PPN: 8, Mode: tc.mode, SegEx: tc.seg}, func(c *shmem.Ctx) {
				me := c.Me()
				slots, ctr := c.Malloc(8*n), c.Malloc(8)
				at := func(pe int) shmem.SymAddr { return slots + shmem.SymAddr(8*pe) }
				for k := 0; k < n; k++ {
					pe := (me + k) % n // self first, then every peer
					c.P64(at(me), int64(me*1000+pe), pe)
					c.FetchAddInt64(ctr, 1, pe)
				}
				c.BarrierAll()
				for pe := 0; pe < n; pe++ {
					if got := c.G64(at(me), pe); got != int64(me*1000+pe) {
						t.Errorf("pe %d: get of my slot at pe %d = %d", me, pe, got)
					}
					if got := c.LoadInt64(slots, pe); got != int64(pe*1000+me) {
						t.Errorf("pe %d: slot of pe %d = %d", me, pe, got)
					}
				}
				if got := c.LoadInt64(ctr, 0); got != n {
					t.Errorf("pe %d: counter = %d, want %d", me, got, n)
				}
				for _, pe := range []int{-1, n} {
					if _, _, err := shmem.RemoteAddr(c, pe, slots, 8); err == nil || !strings.Contains(err.Error(), "out of range") {
						t.Errorf("remoteAddr(%d) = %v, want the out-of-range error", pe, err)
					}
				}
				c.BarrierAll()
			})
		})
	}
}

// TestSegDirSparseAndFirstWriterWins: the zero directory is empty at any
// rank, and a store allocates only the one chunk it lands in, wherever that
// is, and a new index; a Lookup hit allocates nothing. Two writers filling interleaved ranks
// race a reader, which sees each segment whole once it sees it at all; a
// second store to a known rank is ignored; a full np=70 directory is dense.
func TestSegDirSparseAndFirstWriterWins(t *testing.T) {
	var d shmem.SegDir
	if d.Lookup(0) != nil || d.Chunks() != 0 {
		t.Fatal("the zero directory is not empty")
	}
	for i, pe := range []int{100, 1 << 30, 3} {
		d.Store(pe, 1, 2, 3)
		if got := d.Chunks(); got != int64(i+1) {
			t.Fatalf("store %d (rank %d) left %d chunks, want %d", i, pe, got, i+1)
		}
	}
	if d.Lookup(99) != nil || d.Lookup(101) != nil || d.Lookup(4095) != nil || d.Lookup(1<<30-1) != nil {
		t.Fatal("lookup of a never-stored rank found a segment")
	}
	if n := testing.AllocsPerRun(100, func() { d.Lookup(1 << 30) }); n != 0 {
		t.Errorf("Lookup hit allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.Store(101, 1, 2, 3) }); n != 0 {
		t.Errorf("a store into an allocated chunk allocates %.0f times, want 0", n)
	}
	fresh := 1 << 20
	// The chunk, the index and its pointer: 3 (4 under -race), whatever np.
	if n := testing.AllocsPerRun(100, func() { d.Store(fresh, 1, 2, 3); fresh += 8 }); n > 4 {
		t.Errorf("a store opening a chunk allocates %.0f times, want at most 4", n)
	}

	const np = 70
	d = shmem.SegDir{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pe := w; pe < np; pe += 2 {
				mu.Lock()
				d.Store(pe, uint64(pe)<<12, 4096, uint32(pe))
				mu.Unlock()
			}
		}(w)
	}
	for pe := 0; pe < np; pe++ {
		s := d.Lookup(pe)
		for ; s == nil; s = d.Lookup(pe) {
			runtime.Gosched()
		}
		if s.Base != uint64(pe)<<12 || s.Size != 4096 || s.RKey != uint32(pe) {
			t.Fatalf("rank %d: torn segment %+v", pe, s)
		}
	}
	wg.Wait()
	d.Store(5, 1, 1, 1)
	if s := d.Lookup(5); s.Base != 5<<12 {
		t.Fatalf("second store overwrote rank 5: base %#x", s.Base)
	}
	if got, want := d.Chunks(), int64((np+7)/8); got != want {
		t.Fatalf("full np=70 directory has %d chunks, want %d", got, want)
	}
	if d.Lookup(np) != nil {
		t.Fatal("rank np, never stored, found in the last chunk")
	}
}

// TestSegDirReserve: a directory reserved for np ranks, as static and
// SegBroadcast reserve theirs, holds every chunk and no segment, and filling
// it in the network's order — any order — allocates nothing more.
func TestSegDirReserve(t *testing.T) {
	const np = 70
	var d shmem.SegDir
	d.Reserve(np)
	if got, want := d.Chunks(), int64((np+7)/8); got != want {
		t.Fatalf("reserved directory has %d chunks, want %d", got, want)
	}
	for pe := 0; pe < np; pe++ {
		if d.Lookup(pe) != nil {
			t.Fatalf("reserved directory already holds rank %d", pe)
		}
	}
	order, k := rand.New(rand.NewSource(1)).Perm(np), 0
	fill := func() { d.Store(order[k], uint64(order[k]), 1, 2); k++ }
	if n := testing.AllocsPerRun(np-1, fill); n != 0 {
		t.Errorf("filling a reserved directory allocates %.2f times a store, want 0", n)
	}
	for pe := 0; pe < np; pe++ {
		if s := d.Lookup(pe); s == nil || s.Base != uint64(pe) {
			t.Fatalf("rank %d after the fill: %+v", pe, s)
		}
	}
}
