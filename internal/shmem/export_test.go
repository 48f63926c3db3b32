package shmem

// RemoteAddr exposes remoteAddr to the external test package.
var RemoteAddr = (*Ctx).remoteAddr

// Chunks counts the directory's allocated chunks.
func (d *SegDir) Chunks() int64 {
	idx, _, _ := d.find(0)
	return int64(len(idx))
}

// Reserve exposes reserve.
func (d *SegDir) Reserve(n int) { d.reserve(n) }
