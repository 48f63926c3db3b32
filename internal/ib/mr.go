package ib

// MR is a registered memory region. Registration assigns a region of the
// HCA's virtual address space and a remote key; RDMA operations name memory
// as (rkey, virtual address) exactly like the <address, size, rkey> triplets
// OpenSHMEM exchanges for its symmetric segments.
type MR struct {
	hca  *HCA
	base uint64 // virtual address of buf[0]
	buf  []byte
	lkey uint32
	rkey uint32
	// onWrite, when non-nil, is invoked after a remote RDMA write or atomic
	// lands in the region, with the offset/length written and the virtual
	// time of arrival. Upper layers use it to implement shmem_wait. It is
	// called without the HCA memory lock held and must not block.
	onWrite func(off, n int, vtime int64)
	dead    bool
	// bounced marks a degraded region registered past the pinned-memory
	// budget: it has no pinned backing of its own, so remote traffic stages
	// through the adapter's bounce slab and pays an extra copy per operation.
	bounced bool
}

// Base returns the region's virtual base address.
func (m *MR) Base() uint64 { return m.base }

// Size returns the registered length in bytes.
func (m *MR) Size() int { return len(m.buf) }

// RKey returns the remote key peers must present to access the region.
func (m *MR) RKey() uint32 { return m.rkey }

// LKey returns the local key.
func (m *MR) LKey() uint32 { return m.lkey }

// Bytes exposes the backing store. The caller owns local reads/writes;
// concurrent remote atomics are serialized by the HCA, so local access to
// bytes that remote atomics may touch should go through LoadUint64.
func (m *MR) Bytes() []byte { return m.buf }

// Bounced reports whether the region is a degraded (unpinned) registration
// that stages remote traffic through the adapter's bounce slab.
func (m *MR) Bounced() bool { return m.bounced }

// SetOnWrite installs the remote-write notification callback.
func (m *MR) SetOnWrite(fn func(off, n int, vtime int64)) { m.onWrite = fn }

// LoadUint64 atomically (with respect to remote fetching atomics) loads the
// little-endian uint64 at the given offset.
func (m *MR) LoadUint64(off int) uint64 {
	m.hca.memMu.Lock()
	defer m.hca.memMu.Unlock()
	return leU64(m.buf[off : off+8])
}

// StoreUint64 atomically stores v at the given offset.
func (m *MR) StoreUint64(off int, v uint64) {
	m.hca.memMu.Lock()
	putLeU64(m.buf[off:off+8], v)
	m.hca.memMu.Unlock()
}

// AddUint64 atomically adds delta to the little-endian uint64 at the given
// offset and returns the new value, serialized against remote atomics and
// the word load/store helpers by the adapter's memory lock. Software-side
// signal delivery (shmem_put_signal's SIGNAL_ADD) lands through this.
func (m *MR) AddUint64(off int, delta uint64) uint64 {
	m.hca.memMu.Lock()
	v := leU64(m.buf[off:off+8]) + delta
	putLeU64(m.buf[off:off+8], v)
	m.hca.memMu.Unlock()
	return v
}

func leU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
