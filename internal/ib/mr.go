package ib

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
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
	// mu serialises the region's window-table writes (Back, Release) and its
	// multi-word RDMA landings and reads, so two multi-word transfers never
	// interleave. No word access takes it: the word helpers, the fetching
	// atomics and one-word transfers are sync/atomic operations on the
	// aligned word, so network atomics stay atomic against local word access.
	mu sync.Mutex
	// wins is the window table, sorted by offset and disjoint. Back and
	// Release publish a new copy under mu; readers load it with no lock.
	wins atomic.Pointer[[]window]
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
// Both off and mem are 8-byte aligned, so every aligned offset of the region
// is an aligned word of memory.
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
// their storage. It panics when the window leaves the region, overlaps a live
// one, or has an offset or storage that is not 8-byte aligned: the caller's
// allocator hands out disjoint aligned blocks.
func (m *MR) Back(off int, mem []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	wins := *m.wins.Load()
	i := sort.Search(len(wins), func(i int) bool { return wins[i].off >= off })
	if off < 0 || len(mem) > m.size-off || (i > 0 && wins[i-1].off+len(wins[i-1].mem) > off) ||
		(i < len(wins) && off+len(mem) > wins[i].off) || off%8 != 0 || uintptr(unsafe.Pointer(unsafe.SliceData(mem)))%8 != 0 {
		panic(fmt.Sprintf("ib: window [%d,%d) leaves the %d-byte region, overlaps a live one or is unaligned", off, off+len(mem), m.size))
	}
	// Clip makes Insert copy: readers of the old table never see it change.
	wins = slices.Insert(slices.Clip(wins), i, window{off, mem})
	m.wins.Store(&wins)
}

// Release drops the window that starts at off, reporting whether there was
// one. Its bytes become inaccessible: a remote access fails with
// StatusRemoteAccessErr, a local word access panics.
func (m *MR) Release(off int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	wins := *m.wins.Load()
	i := sort.Search(len(wins), func(i int) bool { return wins[i].off >= off })
	if i == len(wins) || wins[i].off != off {
		return false
	}
	wins = slices.Delete(slices.Clone(wins), i, i+1)
	m.wins.Store(&wins)
	return true
}

// View returns the n backed bytes at off, or false when no single live
// window holds them all. It takes no lock. Plain reads and writes through
// the view are the caller's: a word that a peer updates or polls while the
// caller touches it goes through LoadUint64/StoreUint64, as OpenSHMEM
// requires of a program.
func (m *MR) View(off, n int) ([]byte, bool) {
	wins := *m.wins.Load()
	i := sort.Search(len(wins), func(i int) bool { return wins[i].off > off }) - 1
	if i < 0 || n < 0 || n > wins[i].off+len(wins[i].mem)-off {
		return nil, false
	}
	return wins[i].mem[off-wins[i].off:][:n], true
}

// word returns the aligned word at off. A local access to an unaligned word,
// or to one no window backs, is a program error, so it panics.
func (m *MR) word(off int) *uint64 {
	w, ok := m.View(off, 8)
	if !ok || off%8 != 0 {
		panic(fmt.Sprintf("ib: word at offset %d of a %d-byte region is unaligned or lies in no live window", off, m.size))
	}
	return wordOf(w)
}

// wordOf is the aligned word whose bytes are b[:8].
func wordOf(b []byte) *uint64 { return (*uint64)(unsafe.Pointer(unsafe.SliceData(b))) }

// le converts between a word's host value and the value its bytes hold
// little-endian: a window's bytes are little-endian on every host.
func le(v uint64) uint64 {
	var b [8]byte
	binary.NativeEndian.PutUint64(b[:], v)
	return binary.LittleEndian.Uint64(b[:])
}

// LoadUint64 atomically loads the little-endian uint64 at the aligned offset.
func (m *MR) LoadUint64(off int) uint64 { return le(atomic.LoadUint64(m.word(off))) }

// StoreUint64 atomically stores v little-endian at the aligned offset.
func (m *MR) StoreUint64(off int, v uint64) { atomic.StoreUint64(m.word(off), le(v)) }

// AddUint64 atomically adds delta to the little-endian uint64 at the given
// offset and returns the new value. Software-side signal delivery
// (shmem_put_signal's SIGNAL_ADD) lands through this, on a word a peer
// named: ok is false, and nothing changes, when the word is unaligned or no
// live window holds it.
func (m *MR) AddUint64(off int, delta uint64) (v uint64, ok bool) {
	old, ok := m.rmw(off, OpFetchAdd, delta, 0, 0)
	return old + delta, ok
}

// rmw executes one fetching atomic (OpFetchAdd/OpCmpSwap/OpSwap) on the
// word at off as one compare-and-swap loop and returns the word's old value.
// ok is false, and nothing changes, when the word is unaligned, no live
// window holds it, or op is not an atomic.
func (m *MR) rmw(off int, op Opcode, add, compare, swap uint64) (old uint64, ok bool) {
	w, ok := m.View(off, 8)
	if !ok || off%8 != 0 || op != OpFetchAdd && op != OpCmpSwap && op != OpSwap {
		return 0, false
	}
	for {
		raw := atomic.LoadUint64(wordOf(w))
		old, next := le(raw), swap
		if op == OpFetchAdd {
			next = old + add
		} else if op == OpCmpSwap && old != compare {
			return old, true
		}
		if atomic.CompareAndSwapUint64(wordOf(w), raw, le(next)) {
			return old, true
		}
	}
}
