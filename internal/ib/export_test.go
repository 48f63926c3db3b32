package ib

// Test-only views of adapter, region and injector state.

// BounceSlab returns the pre-registered bounce slab, nil when the adapter has
// no pinned-memory budget or the budget was too small to spare one.
func (h *HCA) BounceSlab() *MR {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.slab
}

// Bounced reports whether the region is a degraded (unpinned) registration
// that stages remote traffic through the adapter's bounce slab.
func (m *MR) Bounced() bool { return m.bounced }

// ReleaseHeld immediately delivers every datagram still parked for
// reordering, flushing the window.
func (fi *FaultInjector) ReleaseHeld() {
	if fi == nil {
		return
	}
	fi.mu.Lock()
	held := fi.held
	fi.held = nil
	fi.mu.Unlock()
	landAll(held)
}
