package caf_test

import (
	"sync"
	"testing"
	"time"

	"goshmem/internal/caf"
	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/shmem"
)

func runImages(t *testing.T, n int, body func(im *caf.Image)) {
	t.Helper()
	err := cluster.RunEnvs(cluster.Config{NP: n, PPN: 4, SkipLaunchCost: true},
		func(env shmem.Env) {
			im := caf.Attach(env, caf.Options{Mode: gasnet.OnDemand})
			body(im)
			im.Detach()
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCAFIdentity(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	runImages(t, 4, func(im *caf.Image) {
		if im.NumImages() != 4 {
			t.Errorf("num_images = %d", im.NumImages())
		}
		if im.ThisImage() < 1 || im.ThisImage() > 4 {
			t.Errorf("this_image = %d (must be 1-based)", im.ThisImage())
		}
		mu.Lock()
		seen[im.ThisImage()] = true
		mu.Unlock()
		im.SyncAll()
	})
	if len(seen) != 4 {
		t.Fatalf("images seen: %v", seen)
	}
}

// The classic coarray halo pattern: a(i)[me+1] = ... ; sync all ; read own.
func TestCoarrayRemoteSetGet(t *testing.T) {
	const n = 4
	runImages(t, n, func(im *caf.Image) {
		a := im.NewCoarray(8)
		me := im.ThisImage()
		right := me%n + 1
		im.Set(a, 0, right, float64(me)*1.5)
		im.SyncAll()
		left := (me-2+n)%n + 1
		if got := im.Get(a, 0, me); got != float64(left)*1.5 {
			t.Errorf("image %d: a(0) = %v, want %v", me, got, float64(left)*1.5)
		}
		// Remote read across the group.
		if got := im.Get(a, 0, right); got != float64(me)*1.5 {
			t.Errorf("image %d: a(0)[%d] = %v", me, right, got)
		}
		im.SyncAll()
	})
}

func TestSyncImagesPairwise(t *testing.T) {
	const n = 4
	runImages(t, n, func(im *caf.Image) {
		a := im.NewCoarray(4)
		me := im.ThisImage()
		partner := me
		if me%2 == 1 {
			partner = me + 1
		} else {
			partner = me - 1
		}
		if me%2 == 1 {
			im.Set(a, 1, partner, 42)
		}
		im.SyncImages([]int{partner})
		if me%2 == 0 {
			if got := im.Get(a, 1, me); got != 42 {
				t.Errorf("image %d: expected partner's write, got %v", me, got)
			}
		}
		im.SyncAll()
	})
}

func TestCoarrayBoundsChecks(t *testing.T) {
	runImages(t, 2, func(im *caf.Image) {
		a := im.NewCoarray(4)
		for _, bad := range []func(){
			func() { im.Get(a, 4, 1) },
			func() { im.Get(a, -1, 1) },
			func() { im.Get(a, 0, 0) },
			func() { im.Get(a, 0, 3) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("expected panic")
					}
				}()
				bad()
			}()
		}
		im.SyncAll()
	})
}

// Like the UPC test: CAF on the on-demand conduit only connects where
// traffic flows.
func TestCAFOnDemandEndpoints(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	eps := map[int]int{}
	runImages(t, n, func(im *caf.Image) {
		a := im.NewCoarray(2)
		right := im.ThisImage()%n + 1
		im.Set(a, 0, right, 1)
		im.SyncAll()
		mu.Lock()
		eps[im.ThisImage()] = im.Stats().RCQPsCreated
		mu.Unlock()
	})
	for img, e := range eps {
		if e == 0 || e >= n {
			t.Fatalf("image %d created %d endpoints", img, e)
		}
	}
}

// An image killed mid-job must unwind every survivor parked in "sync all" or
// "sync images": waitSync checks the conduit's liveness and the abort wakes
// it. RunEnvs has no watchdog, so the test brings its own deadline.
func TestSyncUnwindsOnPEKill(t *testing.T) {
	for name, step := range map[string]func(im *caf.Image){
		"sync-all":    func(im *caf.Image) { im.SyncAll() },
		"sync-images": func(im *caf.Image) { im.SyncImages([]int{im.ThisImage()%4 + 1, (im.ThisImage()+2)%4 + 1}) },
	} {
		t.Run(name, func(t *testing.T) {
			fi := ib.NewFaultInjector(1)
			fi.KillPE(1, 1_000_000)
			done := make(chan error, 1)
			go func() {
				done <- cluster.RunEnvs(cluster.Config{NP: 4, PPN: 4, SkipLaunchCost: true, Faults: fi},
					func(env shmem.Env) {
						im := caf.Attach(env, caf.Options{Mode: gasnet.OnDemand})
						for {
							step(im)
						}
					})
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("job with a killed image returned no error")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("images still parked in a sync 10 s after a peer was killed")
			}
		})
	}
}
