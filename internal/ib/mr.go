package ib

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
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
	base uint64 // virtual address of offset 0
	size int    // registered length in bytes
	// mu guards the region's memory: its window table and every backed byte
	// the word helpers, RDMA landings and reads and the fetching atomics
	// touch. It is the only memory lock. A word belongs to exactly one
	// region, so network atomics stay atomic against local word access while
	// one region's traffic never waits on another's.
	mu sync.Mutex
	// wins are the backed windows, sorted by offset and disjoint.
	wins []window
	rkey uint32
	// onWrite, when non-nil, is invoked after a remote RDMA write or atomic
	// lands in the region, with the offset/length written and the virtual
	// time of arrival. Upper layers use it to implement shmem_wait. It is
	// called with no lock held and must not block.
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

// SetOnWrite installs the remote-write notification callback.
func (m *MR) SetOnWrite(fn func(off, n int, vtime int64)) { m.onWrite = fn }

// Back makes bytes [off, off+len(mem)) of the region accessible with mem as
// their storage. It panics when the window leaves the region or overlaps a
// live one: the caller's allocator hands out disjoint blocks.
func (m *MR) Back(off int, mem []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
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
	m.mu.Lock()
	defer m.mu.Unlock()
	i := sort.Search(len(m.wins), func(i int) bool { return m.wins[i].off >= off })
	if i == len(m.wins) || m.wins[i].off != off {
		return false
	}
	m.wins = slices.Delete(m.wins, i, i+1)
	return true
}

// View returns the n backed bytes at off, or false when no single live
// window holds them all. The caller owns local reads and writes through the
// view; bytes that remote atomics may touch should go through LoadUint64.
func (m *MR) View(off, n int) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view(off, n)
}

// view is View for a caller that holds m.mu.
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

// word is the backed word at off for a caller holding m.mu. A local
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
	m.mu.Lock()
	defer m.mu.Unlock()
	return binary.LittleEndian.Uint64(m.word(off))
}

// StoreUint64 atomically stores v at the given offset.
func (m *MR) StoreUint64(off int, v uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	binary.LittleEndian.PutUint64(m.word(off), v)
}

// AddUint64 atomically adds delta to the little-endian uint64 at the given
// offset and returns the new value. Software-side signal delivery
// (shmem_put_signal's SIGNAL_ADD) lands through this, on a word a peer
// named: ok is false, and nothing changes, when no live window holds it.
func (m *MR) AddUint64(off int, delta uint64) (v uint64, ok bool) {
	old, ok := m.rmw(off, OpFetchAdd, delta, 0, 0)
	return old + delta, ok
}

// rmw executes one fetching atomic (OpFetchAdd/OpCmpSwap/OpSwap) on the
// word at off under the region lock and returns the word's old value. ok is
// false, and nothing changes, when no live window holds the word or op is
// not an atomic.
func (m *MR) rmw(off int, op Opcode, add, compare, swap uint64) (old uint64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.view(off, 8)
	if !ok {
		return 0, false
	}
	old = binary.LittleEndian.Uint64(w)
	switch op {
	case OpFetchAdd:
		binary.LittleEndian.PutUint64(w, old+add)
	case OpCmpSwap:
		if old == compare {
			binary.LittleEndian.PutUint64(w, swap)
		}
	case OpSwap:
		binary.LittleEndian.PutUint64(w, swap)
	default:
		return 0, false
	}
	return old, true
}
