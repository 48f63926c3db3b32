package shmem_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/shmem"
)

// TestSegDirChunkEdges: np=70 spans three directory chunks, the last one
// partial. Every PE puts, fetch-adds and gets at every PE — self and the
// chunk edges 31/32, 63/64 and 69 included — under every way a triplet can
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

// TestSegDirSparseAndFirstWriterWins: a store allocates only the chunk it
// lands in; two writers filling interleaved ranks of the same chunks race a
// reader, which sees each segment whole once it sees it at all; a second
// store to a known rank is ignored.
func TestSegDirSparseAndFirstWriterWins(t *testing.T) {
	d := shmem.NewSegDir(4096)
	d.Store(100, 1, 2, 3)
	if got := d.Chunks(); got != 1 {
		t.Fatalf("one store allocated %d chunks, want 1", got)
	}
	if d.Lookup(99) != nil || d.Lookup(101) != nil || d.Lookup(4095) != nil {
		t.Fatal("lookup of a never-stored rank found a segment")
	}

	const np = 70
	d = shmem.NewSegDir(np)
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
	if got := d.Chunks(); got != 3 {
		t.Fatalf("full np=70 directory has %d chunks, want 3", got)
	}
}
