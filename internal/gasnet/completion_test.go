package gasnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"goshmem/internal/ib"
	"goshmem/internal/vclock"
)

// TestBlockedIssuersAllocateNoChannel: a blocking Get or atomic on a ready,
// lossless connection waits on its entry in the completion table — no channel
// per call. What is left is the fabric's: the fetched bytes of a read.
func TestBlockedIssuersAllocateNoChannel(t *testing.T) {
	pes, _ := startJob(t, jobOpts{n: 2, mode: OnDemand})
	c := pes[0].C
	mr := pes[1].HCA.RegisterMR(make([]byte, 64), pes[1].Clk)
	if err := c.EnsureConnected(1); err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	if n := testing.AllocsPerRun(200, func() { c.Get(1, mr.Base(), mr.RKey(), buf[:]) }); n > 2 {
		t.Errorf("a blocking Get allocates %v times, want <= 2", n)
	}
	if n := testing.AllocsPerRun(200, func() { c.FetchAdd(1, mr.Base(), mr.RKey(), 1) }); n > 1 {
		t.Errorf("a blocking FetchAdd allocates %v times, want <= 1", n)
	}
}

// TestConcurrentIssuersShareOneCompletionTable: four goroutines issue through
// one conduit at once — blocking gets, atomics, non-blocking gets and puts
// with fenced AMs, each pair closed by Quiet — against two peers, so entries of
// every kind share the table, its free list and its one condition. Clean, every
// call returns with the right data and nothing is left outstanding. With one
// peer killed mid-run (lossy fabric: atomics ride framed AMs), every blocked
// call and every Quiet still returns — with the peer's death or the job abort —
// and the table drains all the same.
func TestConcurrentIssuersShareOneCompletionTable(t *testing.T) {
	const (
		victim = 2
		rounds = 300
		ro     = 0x1122334455667788 // what word 0 of every peer's region holds
	)
	for _, kill := range []bool{false, true} {
		t.Run(fmt.Sprintf("kill=%v", kill), func(t *testing.T) {
			hung := time.AfterFunc(time.Minute, func() { panic("a blocked issuer or a Quiet never returned") })
			defer hung.Stop()
			var fi *ib.FaultInjector
			killVT := 50 * vclock.Millisecond
			if kill {
				fi = ib.NewFaultInjector(7)
				fi.KillPE(victim, killVT)
			}
			pes, run := startJob(t, jobOpts{n: 3, ppn: 1, mode: OnDemand, faults: fi})
			mrs := make([]*ib.MR, 3)
			var signals atomic.Int64
			for r, p := range pes {
				mrs[r] = p.HCA.RegisterMR(make([]byte, 64), p.Clk)
				mrs[r].StoreUint64(0, ro)
				p.C.RegisterHandler(5, func(int, [4]uint64, []byte, int64) { signals.Add(1) })
			}
			c, sched := pes[0].C, pes[0].C.sched
			var issued, fadds atomic.Int64

			// issuer runs body until it fails (kill: until it does) and reports
			// whether it ended the way the mode allows.
			issuer := func(name string, body func(i, peer int) error) func() {
				return func() {
					var err error
					for i := 0; err == nil && (kill || i < rounds); i++ {
						func() {
							defer func() { // Quiet panics with the liveness error
								if r := recover(); r != nil {
									err = r.(error)
								}
							}()
							err = body(i, 1+i%2)
						}()
						issued.Add(1)
					}
					var ae *AbortError
					if dead := errors.Is(err, ErrPeerDead) || errors.As(err, &ae); kill != dead {
						t.Errorf("%s ended with %v (kill=%v)", name, err, kill)
					}
				}
			}
			var got [8]byte
			nbi := make([][8]byte, 4)
			word := make([]byte, 8)
			binary.LittleEndian.PutUint64(word, 42)
			issuers := []func(){
				issuer("get", func(i, peer int) error {
					if err := c.Get(peer, mrs[peer].Base(), mrs[peer].RKey(), got[:]); err != nil {
						return err
					}
					if v := binary.LittleEndian.Uint64(got[:]); v != ro {
						return fmt.Errorf("get fetched %#x", v)
					}
					return nil
				}),
				issuer("fetch-add", func(i, peer int) error {
					_, err := c.FetchAdd(peer, mrs[peer].Base()+8, mrs[peer].RKey(), 1)
					if err == nil {
						fadds.Add(1)
					}
					return err
				}),
				issuer("get-nbi+quiet", func(i, peer int) error {
					for k := range nbi {
						nbi[k] = [8]byte{}
						if err := c.GetNBI(peer, mrs[peer].Base(), mrs[peer].RKey(), nbi[k][:]); err != nil {
							return err
						}
					}
					c.Quiet()
					for k := range nbi {
						// (A get queued for the dead peer is failed, and its hold
						// dropped, an instant before the abort is published.)
						if v := binary.LittleEndian.Uint64(nbi[k][:]); v != ro && !kill {
							return fmt.Errorf("non-blocking get %d holds %#x after Quiet", k, v)
						}
					}
					return nil
				}),
				issuer("put+fenced-am+quiet", func(i, peer int) error {
					if err := c.Put(peer, mrs[peer].Base()+16, mrs[peer].RKey(), word); err != nil {
						return err
					}
					if err := c.AMRequestFenced(peer, 5, [4]uint64{}, nil); err != nil {
						return err
					}
					c.Quiet()
					return nil
				}),
			}
			run(func(p *pe) {
				switch {
				case p.C.Rank() == 0:
					left := int32(len(issuers))
					done := make(chan struct{})
					for _, f := range issuers {
						f := f
						sched.Go(func() {
							defer func() {
								if atomic.AddInt32(&left, -1) == 0 {
									sched.Unpark(1) // the body, parked below
									close(done)
								}
							}()
							f()
						})
					}
					sched.Park()
					<-done
				case kill && p.C.Rank() == victim:
					for issued.Load() < rounds { // mid-run
						time.Sleep(time.Millisecond)
					}
					p.Clk.AdvanceTo(killVT)
					var ce *CrashError
					if err := p.C.AMRequest(0, 5, [4]uint64{}, nil); !errors.As(err, &ce) {
						t.Errorf("the victim's first operation past its crash: %v", err)
					}
				}
			})
			waitUntil(t, func() bool { return c.HealthSnapshot().Outstanding == 0 })
			if kill {
				waitUntil(t, func() bool { return c.Err() != nil })
				var ae *AbortError
				if err := c.Err(); !errors.As(err, &ae) || ae.Dead != victim {
					t.Errorf("the job ended with %v, want the abort for rank %d's death", err, victim)
				}
				return
			}
			c.Quiet()
			if n := mrs[1].LoadUint64(8) + mrs[2].LoadUint64(8); n != rounds || fadds.Load() != rounds {
				t.Errorf("%d fetch-adds returned, the counters hold %d, want %d", fadds.Load(), n, rounds)
			}
			if mrs[1].LoadUint64(16) != 42 || mrs[2].LoadUint64(16) != 42 {
				t.Error("a put did not land")
			}
			waitUntil(t, func() bool { return signals.Load() == rounds })
		})
	}
}
