package obs

// Phase is one contiguous slice of a PE's startup (init) interval. The
// instrumentation in shmem.Attach emits phases that exactly tile
// [start_pes begin, start_pes end] — every virtual nanosecond of init is
// attributed to exactly one phase, which the phase-sum test asserts.
type Phase struct {
	Name  string `json:"name"`
	Start int64  `json:"start_vt"`
	End   int64  `json:"end_vt"`
}

// Dur returns the phase duration in virtual ns.
func (p Phase) Dur() int64 { return p.End - p.Start }

// InitPhase records a startup phase for this PE and, when events are
// enabled, mirrors it into the event ring as an "init:<name>" span so it
// shows on the Perfetto timeline. Phases are stored outside the ring so a
// busy run can never drop them. Zero-length phases are recorded too: the
// set of phase names stays identical across connection modes, which keeps
// breakdown tables aligned.
func (p *PE) InitPhase(name string, startVT, endVT int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.phases = append(p.phases, Phase{Name: name, Start: startVT, End: endVT})
	p.mu.Unlock()
	p.Span(startVT, endVT, LayerShmem, "init:"+name, -1, 0)
}

// Phases returns the PE's startup phases in emission order.
func (p *PE) Phases() []Phase {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Phase, len(p.phases))
	copy(out, p.phases)
	return out
}

// PEPhases is one rank's startup breakdown.
type PEPhases struct {
	Rank   int     `json:"rank"`
	Phases []Phase `json:"phases"`
}

// StartupPhases returns every PE's startup breakdown, rank-ordered.
func (pl *Plane) StartupPhases() []PEPhases {
	if pl == nil {
		return nil
	}
	out := make([]PEPhases, len(pl.pes))
	for r, pe := range pl.pes {
		out[r] = PEPhases{Rank: r, Phases: pe.Phases()}
	}
	return out
}
