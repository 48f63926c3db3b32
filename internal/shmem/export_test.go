package shmem

// RemoteAddr exposes remoteAddr to the external test package.
var RemoteAddr = (*Ctx).remoteAddr

// Chunks exposes the directory's allocated-chunk count.
func (d *SegDir) Chunks() int64 { return d.chunks() }
