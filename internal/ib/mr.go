package ib

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// MR is a registered memory region. Registration assigns a region of the
// HCA's virtual address space and a remote key; RDMA operations name memory
// as (rkey, virtual address) exactly like the <address, size, rkey> triplets
// OpenSHMEM exchanges for its symmetric segments.
//
// Registration is by size: the region's address range, its pinned-byte
// charge and its registration time all follow the registered size, but its
// bytes exist only where a window backs them (Back). A symmetric heap is
// registered whole at start_pes and backed one allocation at a time, the way
// an operating system backs registered pages on first touch; RegisterMR
// registers a buffer and backs all of it as one window.
type MR struct {
	hca  *HCA
	base uint64 // virtual address of offset 0
	size int    // registered length in bytes
	// wins are the backed windows, sorted by offset and disjoint. They are
	// changed under both hca.mu and hca.memMu and read under either: resolve
	// finds a remote access's window under the mu it looks the rkey up with,
	// the word helpers under the memMu they serialize with atomics.
	wins []window
	rkey uint32
	// onWrite, when non-nil, is invoked after a remote RDMA write or atomic
	// lands in the region, with the offset/length written and the virtual
	// time of arrival. Upper layers use it to implement shmem_wait. It is
	// called without the HCA memory lock held and must not block.
	onWrite func(off, n int, vtime int64)
	// bounced marks a degraded region registered past the pinned-memory
	// budget: it has no pinned backing of its own, so remote traffic stages
	// through the adapter's bounce slab and pays an extra copy per operation.
	bounced bool
}

// window is one backed range of a region: mem holds bytes [off, off+len(mem)).
type window struct {
	off int
	mem []byte
}

// Base returns the region's virtual base address.
func (m *MR) Base() uint64 { return m.base }

// Size returns the registered length in bytes.
func (m *MR) Size() int { return m.size }

// RKey returns the remote key peers must present to access the region.
func (m *MR) RKey() uint32 { return m.rkey }

// Bounced reports whether the region is a degraded (unpinned) registration
// that stages remote traffic through the adapter's bounce slab.
func (m *MR) Bounced() bool { return m.bounced }

// SetOnWrite installs the remote-write notification callback.
func (m *MR) SetOnWrite(fn func(off, n int, vtime int64)) { m.onWrite = fn }

// Back makes bytes [off, off+len(mem)) of the region accessible with mem as
// their storage. It panics when the window leaves the region or overlaps a
// live one: the caller's allocator hands out disjoint blocks.
func (m *MR) Back(off int, mem []byte) {
	defer m.hca.lockWindows()()
	i := sort.Search(len(m.wins), func(i int) bool { return m.wins[i].off >= off })
	if off < 0 || len(mem) > m.size-off || (i > 0 && m.wins[i-1].off+len(m.wins[i-1].mem) > off) ||
		(i < len(m.wins) && off+len(mem) > m.wins[i].off) {
		panic(fmt.Sprintf("ib: window [%d,%d) leaves the %d-byte region or overlaps a live one", off, off+len(mem), m.size))
	}
	m.wins = slices.Insert(m.wins, i, window{off, mem})
}

// Release drops the window that starts at off, reporting whether there was
// one. Its bytes become inaccessible: a remote access fails with
// StatusRemoteAccessErr, a local word access panics.
func (m *MR) Release(off int) bool {
	defer m.hca.lockWindows()()
	i := sort.Search(len(m.wins), func(i int) bool { return m.wins[i].off >= off })
	if i == len(m.wins) || m.wins[i].off != off {
		return false
	}
	m.wins = slices.Delete(m.wins, i, i+1)
	return true
}

// lockWindows takes both locks a change to a window table holds and returns
// their release.
func (h *HCA) lockWindows() (unlock func()) {
	h.mu.Lock()
	h.memMu.Lock()
	return func() { h.memMu.Unlock(); h.mu.Unlock() }
}

// View returns the n backed bytes at off, or false when no single live
// window holds them all. The caller owns local reads and writes through the
// view; bytes that remote atomics may touch should go through LoadUint64.
func (m *MR) View(off, n int) ([]byte, bool) {
	m.hca.memMu.Lock()
	defer m.hca.memMu.Unlock()
	return m.view(off, n)
}

// view is View for a caller that holds hca.mu or hca.memMu.
func (m *MR) view(off, n int) ([]byte, bool) {
	i := sort.Search(len(m.wins), func(i int) bool { return m.wins[i].off > off }) - 1
	if i < 0 || n < 0 {
		return nil, false
	}
	w := m.wins[i]
	if n > w.off+len(w.mem)-off {
		return nil, false
	}
	return w.mem[off-w.off : off-w.off+n], true
}

// word is the backed word at off for a caller holding hca.memMu. A local
// access to memory no window backs is a program error, so it panics.
func (m *MR) word(off int) []byte {
	w, ok := m.view(off, 8)
	if !ok {
		panic(fmt.Sprintf("ib: word at offset %d of a %d-byte region lies in no live window", off, m.size))
	}
	return w
}

// LoadUint64 atomically (with respect to remote fetching atomics) loads the
// little-endian uint64 at the given offset.
func (m *MR) LoadUint64(off int) uint64 {
	m.hca.memMu.Lock()
	defer m.hca.memMu.Unlock()
	return binary.LittleEndian.Uint64(m.word(off))
}

// StoreUint64 atomically stores v at the given offset.
func (m *MR) StoreUint64(off int, v uint64) {
	m.hca.memMu.Lock()
	defer m.hca.memMu.Unlock()
	binary.LittleEndian.PutUint64(m.word(off), v)
}

// AddUint64 atomically adds delta to the little-endian uint64 at the given
// offset and returns the new value, serialized against remote atomics and
// the word load/store helpers by the adapter's memory lock. Software-side
// signal delivery (shmem_put_signal's SIGNAL_ADD) lands through this, on a
// word a peer named: ok is false, and nothing changes, when no live window
// holds it.
func (m *MR) AddUint64(off int, delta uint64) (v uint64, ok bool) {
	m.hca.memMu.Lock()
	defer m.hca.memMu.Unlock()
	w, ok := m.view(off, 8)
	if ok {
		v = binary.LittleEndian.Uint64(w) + delta
		binary.LittleEndian.PutUint64(w, v)
	}
	return v, ok
}
