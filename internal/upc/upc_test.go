package upc_test

import (
	"sync"
	"testing"
	"time"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/shmem"
	"goshmem/internal/upc"
)

// runThreads launches a mini-UPC job over raw PE environments.
func runThreads(t *testing.T, n int, body func(th *upc.Thread)) {
	t.Helper()
	err := cluster.RunEnvs(cluster.Config{NP: n, PPN: 4, SkipLaunchCost: true},
		func(env shmem.Env) {
			th := upc.Attach(env, upc.Options{Mode: gasnet.OnDemand})
			body(th)
			th.Detach()
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUPCIdentity(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	runThreads(t, 4, func(th *upc.Thread) {
		if th.Threads() != 4 {
			t.Errorf("THREADS = %d", th.Threads())
		}
		mu.Lock()
		seen[th.MyThread()] = true
		mu.Unlock()
		th.Barrier()
	})
	if len(seen) != 4 {
		t.Fatalf("only %d threads ran", len(seen))
	}
}

// A shared array written via upc_forall affinity and read globally — the
// whole point: a second PGAS language on the same conduit, with its own
// piggybacked segment descriptor format.
func TestUPCSharedArrayForall(t *testing.T) {
	const n, elems, block = 4, 37, 3
	runThreads(t, n, func(th *upc.Thread) {
		a := th.AllAlloc(elems, block)
		// Each thread writes the elements with local affinity.
		th.ForAll(a, func(i int) {
			th.Write(a, i, int64(i*i))
		})
		th.Barrier()
		// Every thread reads every element one-sided.
		for i := 0; i < elems; i++ {
			if got := th.Read(a, i); got != int64(i*i) {
				t.Errorf("thread %d: a[%d] = %d, want %d", th.MyThread(), i, got, i*i)
				return
			}
		}
		th.Barrier()
	})
}

func TestUPCRemoteWrite(t *testing.T) {
	const n = 3
	runThreads(t, n, func(th *upc.Thread) {
		a := th.AllAlloc(n, 1) // element i has affinity to thread i
		// Everyone writes into the NEXT thread's element (remote write).
		next := (th.MyThread() + 1) % n
		th.Write(a, next, int64(100+th.MyThread()))
		th.Barrier()
		prev := (th.MyThread() - 1 + n) % n
		if got := th.Read(a, th.MyThread()); got != int64(100+prev) {
			t.Errorf("thread %d: own element = %d, want %d", th.MyThread(), got, 100+prev)
		}
		th.Barrier()
	})
}

// The on-demand machinery serves UPC exactly as it serves OpenSHMEM:
// a nearest-neighbour pattern creates only a handful of endpoints.
func TestUPCOnDemandEndpoints(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	eps := make([]int, n)
	runThreads(t, n, func(th *upc.Thread) {
		a := th.AllAlloc(n, 1)
		th.Write(a, (th.MyThread()+1)%n, 7)
		th.Barrier()
		mu.Lock()
		eps[th.MyThread()] = th.Stats().RCQPsCreated
		mu.Unlock()
	})
	for r, e := range eps {
		if e >= n {
			t.Fatalf("thread %d created %d endpoints; on-demand should stay below N", r, e)
		}
		if e == 0 {
			t.Fatalf("thread %d created no endpoints", r)
		}
	}
}

func TestUPCAffinityLayout(t *testing.T) {
	// shared [2] long a[10] over 3 threads: blocks 0..4 -> threads 0,1,2,0,1.
	runThreads(t, 3, func(th *upc.Thread) {
		a := th.AllAlloc(10, 2)
		wantOwner := []int{0, 0, 1, 1, 2, 2, 0, 0, 1, 1}
		for i, w := range wantOwner {
			if got := th.HasAffinity(a, i); got != (w == th.MyThread()) {
				t.Errorf("thread %d: affinity(a[%d]) = %v, owner should be %d", th.MyThread(), i, got, w)
			}
		}
		th.Barrier()
	})
}

// A thread killed mid-job must unwind every survivor parked in upc_barrier:
// the wait loop checks the conduit's liveness and the abort wakes it. RunEnvs
// has no watchdog, so the test brings its own deadline.
func TestBarrierUnwindsOnPEKill(t *testing.T) {
	fi := ib.NewFaultInjector(1)
	fi.KillPE(1, 1_000_000)
	done := make(chan error, 1)
	go func() {
		done <- cluster.RunEnvs(cluster.Config{NP: 4, PPN: 4, SkipLaunchCost: true, Faults: fi},
			func(env shmem.Env) {
				th := upc.Attach(env, upc.Options{Mode: gasnet.OnDemand})
				for {
					th.Barrier()
				}
			})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("job with a killed thread returned no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("threads still parked in Barrier 10 s after a peer was killed")
	}
}
