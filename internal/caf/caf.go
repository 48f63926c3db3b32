// Package caf is a miniature Co-Array Fortran–style client of the conduit,
// the second of the two languages the paper names when arguing its design
// "is applicable to other PGAS languages such as UPC or CAF". Together with
// internal/upc it demonstrates that the conduit's opaque connect-payload
// hook carries any client's segment descriptor.
//
// The model implemented is CAF's core: every image allocates coarrays with
// identical shape; remote elements are addressed by bracketed image index
// (a(i)[img] becomes Coarray.Get/Set with an image argument); sync all and
// sync images provide ordering.
package caf

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"goshmem/internal/gasnet"
	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/shmem"
	"goshmem/internal/vclock"
)

// amSync is the AM id for sync barriers (above shmem's, mpi's and upc's).
const amSync uint8 = 80

// segMagic tags CAF's descriptor wire format (distinct from both
// OpenSHMEM's triplet and UPC's descriptor, on purpose).
var segMagic = [4]byte{'C', 'A', 'F', '2'}

// Image is one CAF image (this_image).
type Image struct {
	rank int
	n    int

	conduit *gasnet.Conduit
	mr      *ib.MR
	heap    []byte
	alloc   uint64

	segMu sync.Mutex
	segs  []struct {
		base uint64
		rkey uint32
		have bool
	}

	syncMu   sync.Mutex
	syncCond *vclock.Cond
	syncSeq  uint64
	inbox    map[[2]uint64]struct{}
}

// Options configures an image.
type Options struct {
	// HeapBytes is the coarray heap per image (default 1 MiB).
	HeapBytes int
	// Mode selects the connection strategy (default on-demand).
	Mode gasnet.Mode
}

// Attach initializes one image over a PE environment; all images must call it.
func Attach(env shmem.Env, opts Options) *Image {
	if opts.HeapBytes <= 0 {
		opts.HeapBytes = 1 << 20
	}
	im := &Image{rank: env.Rank, n: env.NProcs}
	im.syncCond = vclock.NewCond(&im.syncMu, env.HCA.Fabric().Sched())
	im.inbox = make(map[[2]uint64]struct{})
	im.segs = make([]struct {
		base uint64
		rkey uint32
		have bool
	}, env.NProcs)

	im.conduit = gasnet.New(gasnet.Config{
		Rank: env.Rank, NProcs: env.NProcs, Node: env.Node, PPN: env.PPN,
		HCA: env.HCA, PMI: env.PMI, Clock: env.Clock,
		Mode: opts.Mode, NodeBarrier: env.NodeBarrier,
		ConnectPayload:   im.encodeSeg,
		OnConnectPayload: im.storeSeg,
	})
	// A job abort wakes an image parked in a sync so it sees the error.
	im.conduit.OnAbort(func(error) { im.syncCond.Broadcast() })
	im.conduit.RegisterHandler(amSync, func(src int, args [4]uint64, payload []byte, at int64) {
		im.syncMu.Lock()
		im.inbox[[2]uint64{args[0], uint64(src)}] = struct{}{}
		im.syncMu.Unlock()
		im.syncCond.Broadcast()
	})
	im.conduit.ExchangeEndpoints()
	im.heap = make([]byte, opts.HeapBytes)
	im.mr = env.HCA.RegisterMR(im.heap, env.Clock)
	im.segs[im.rank].base = im.mr.Base()
	im.segs[im.rank].rkey = im.mr.RKey()
	im.segs[im.rank].have = true
	im.conduit.IntraNodeBarrier()
	im.conduit.SetReady()
	return im
}

func (im *Image) encodeSeg() []byte {
	b := make([]byte, 4+8+4)
	copy(b, segMagic[:])
	binary.LittleEndian.PutUint64(b[4:], im.mr.Base())
	binary.LittleEndian.PutUint32(b[12:], im.mr.RKey())
	return b
}

func (im *Image) storeSeg(peer int, b []byte, at int64) {
	if len(b) != 16 || string(b[:4]) != string(segMagic[:]) {
		return
	}
	im.segMu.Lock()
	im.segs[peer].base = binary.LittleEndian.Uint64(b[4:])
	im.segs[peer].rkey = binary.LittleEndian.Uint32(b[12:])
	im.segs[peer].have = true
	im.segMu.Unlock()
}

// ThisImage returns this image's 1-based index (CAF convention).
func (im *Image) ThisImage() int { return im.rank + 1 }

// NumImages returns the number of images.
func (im *Image) NumImages() int { return im.n }

// Detach tears the image down (after a final sync).
func (im *Image) Detach() {
	im.SyncAll()
	im.conduit.Close()
}

// Stats exposes the conduit counters.
func (im *Image) Stats() gasnet.Stats { return im.conduit.Stats() }

// Coarray is a coarray of float64 with the same shape on every image
// (real :: a(n)[*]).
type Coarray struct {
	off uint64
	N   int
}

// NewCoarray collectively declares a coarray of n float64 elements. All
// images must call it in the same order.
func (im *Image) NewCoarray(n int) Coarray {
	off := im.alloc
	im.alloc += (uint64(n)*8 + 63) &^ 63
	if im.alloc > uint64(len(im.heap)) {
		panic("caf: coarray heap exhausted")
	}
	ca := Coarray{off: off, N: n}
	im.SyncAll()
	return ca
}

// Set assigns a(i)[img] = v (img is 1-based, as in Fortran).
func (im *Image) Set(a Coarray, i, img int, v float64) {
	im.check(a, i, img)
	if img-1 == im.rank {
		im.mr.StoreUint64(int(a.off)+8*i, mathFloat64bits(v))
		return
	}
	base, rkey := im.segAddr(img - 1)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], mathFloat64bits(v))
	if err := im.conduit.Put(img-1, base+a.off+uint64(8*i), rkey, buf[:]); err != nil {
		panic(err.Error())
	}
}

// Get reads a(i)[img].
func (im *Image) Get(a Coarray, i, img int) float64 {
	im.check(a, i, img)
	if img-1 == im.rank {
		return mathFloat64frombits(im.mr.LoadUint64(int(a.off) + 8*i))
	}
	base, rkey := im.segAddr(img - 1)
	var buf [8]byte
	if err := im.conduit.Get(img-1, base+a.off+uint64(8*i), rkey, buf[:]); err != nil {
		panic(err.Error())
	}
	return mathFloat64frombits(binary.LittleEndian.Uint64(buf[:]))
}

// Local returns the local slice of the coarray for direct computation.
func (im *Image) Local(a Coarray) []float64 {
	out := make([]float64, a.N)
	for i := range out {
		out[i] = mathFloat64frombits(binary.LittleEndian.Uint64(im.heap[a.off+uint64(8*i):]))
	}
	return out
}

func (im *Image) check(a Coarray, i, img int) {
	if i < 0 || i >= a.N {
		panic(fmt.Sprintf("caf: index %d out of bounds [0,%d)", i, a.N))
	}
	if img < 1 || img > im.n {
		panic(fmt.Sprintf("caf: image %d out of range [1,%d]", img, im.n))
	}
}

func (im *Image) segAddr(peer int) (uint64, uint32) {
	im.segMu.Lock()
	if im.segs[peer].have {
		defer im.segMu.Unlock()
		return im.segs[peer].base, im.segs[peer].rkey
	}
	im.segMu.Unlock()
	if err := im.conduit.EnsureConnected(peer); err != nil {
		panic(err.Error())
	}
	im.segMu.Lock()
	defer im.segMu.Unlock()
	if !im.segs[peer].have {
		panic(fmt.Sprintf("caf: descriptor for image %d missing after connect", peer+1))
	}
	return im.segs[peer].base, im.segs[peer].rkey
}

// SyncAll is "sync all": completes outstanding accesses and synchronizes
// every image (dissemination).
func (im *Image) SyncAll() {
	im.conduit.Quiet()
	if im.n == 1 {
		return
	}
	im.syncMu.Lock()
	im.syncSeq++
	seq := im.syncSeq
	im.syncMu.Unlock()
	for dist := 1; dist < im.n; dist *= 2 {
		to := (im.rank + dist) % im.n
		from := (im.rank - dist%im.n + im.n) % im.n
		if err := im.conduit.AMRequestKind(to, amSync, [4]uint64{seq, uint64(dist)}, nil, obs.FlowBarrier); err != nil {
			panic(err.Error())
		}
		im.waitSync(seq, from)
	}
}

// SyncImages is "sync images(list)": pairwise synchronization with the
// given (1-based) images. Every listed image must list this one back.
func (im *Image) SyncImages(images []int) {
	im.conduit.Quiet()
	im.syncMu.Lock()
	im.syncSeq++
	seq := im.syncSeq
	im.syncMu.Unlock()
	for _, img := range images {
		if err := im.conduit.AMRequestKind(img-1, amSync, [4]uint64{seq, 0}, nil, obs.FlowBarrier); err != nil {
			panic(err.Error())
		}
	}
	for _, img := range images {
		im.waitSync(seq, img-1)
	}
}

func (im *Image) waitSync(seq uint64, from int) {
	key := [2]uint64{seq, uint64(from)}
	im.syncMu.Lock()
	for {
		if _, ok := im.inbox[key]; ok {
			delete(im.inbox, key)
			im.syncMu.Unlock()
			return
		}
		if err := im.conduit.LivenessErr(); err != nil {
			im.syncMu.Unlock()
			panic(fmt.Errorf("caf: sync: %w", err))
		}
		im.syncCond.Wait()
	}
}

func mathFloat64bits(f float64) uint64     { return math.Float64bits(f) }
func mathFloat64frombits(u uint64) float64 { return math.Float64frombits(u) }
