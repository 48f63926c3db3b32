package obs

import (
	"sort"
	"strings"
)

// Connection-lifecycle timelines: a per-pair reduction of the conduit's
// conn-* trace events into the full state machine each directed pair walked
// (demand -> REQ served -> ready -> evicted -> reconnected ...), with
// virtual timestamps. The reducer consumes the ordinary event stream, so it
// needs no extra recording hooks and inherits the stream's determinism: at a
// fixed seed two runs produce identical timelines. The Perfetto export
// synthesizes its per-peer conn tracks from them.

// TimelinePoint is one state transition of a directed pair.
type TimelinePoint struct {
	VT    int64  `json:"vt_ns"`
	State string `json:"state"` // conn-* kind without the "conn-" prefix
}

// ConnTimeline is the lifecycle of the directed pair (Rank -> Peer) as rank
// Rank observed it.
type ConnTimeline struct {
	Rank   int             `json:"rank"`
	Peer   int             `json:"peer"`
	States []TimelinePoint `json:"states"`
}

// connTimelineState reports whether an event is a lifecycle transition the
// timeline keeps (gasnet-layer conn-* instants with a real peer).
func connTimelineState(e *Event) bool {
	return e.Layer == LayerGasnet && e.Dur == 0 && e.Peer >= 0 &&
		strings.HasPrefix(e.Kind, "conn-")
}

// BuildConnTimelines reduces an event stream (any order) to per-pair
// lifecycle timelines, sorted by (Rank, Peer); each timeline's states are
// sorted by (VT, state).
func BuildConnTimelines(evs []Event) []ConnTimeline {
	byPair := make(map[[2]int]*ConnTimeline)
	for i := range evs {
		e := &evs[i]
		if !connTimelineState(e) {
			continue
		}
		key := [2]int{e.Rank, e.Peer}
		tl := byPair[key]
		if tl == nil {
			tl = &ConnTimeline{Rank: e.Rank, Peer: e.Peer}
			byPair[key] = tl
		}
		tl.States = append(tl.States, TimelinePoint{VT: e.VT, State: strings.TrimPrefix(e.Kind, "conn-")})
	}
	out := make([]ConnTimeline, 0, len(byPair))
	for _, tl := range byPair {
		sort.SliceStable(tl.States, func(i, j int) bool {
			a, b := tl.States[i], tl.States[j]
			if a.VT != b.VT {
				return a.VT < b.VT
			}
			return a.State < b.State
		})
		out = append(out, *tl)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

// connSpan is one synthesized Perfetto slice for a pair's lifecycle.
type connSpan struct {
	kind     string
	from, to int64
}

// synthConnSpans derives nested Perfetto slices from one pair's timeline:
// an outer "conn-episode" covering demand through eviction, containing a
// "conn-handshake" slice (demand -> ready) and a "conn-live" slice (ready ->
// eviction). Episodes without an eviction get a handshake slice only (the
// connection was still live at job end, and open-ended slices would tie the
// render to the trace horizon).
func synthConnSpans(tl *ConnTimeline) []connSpan {
	var out []connSpan
	var demand, ready int64 = -1, -1
	for _, s := range tl.States {
		switch s.State {
		case "initiate", "req-served", "reconnect-req":
			if demand < 0 {
				demand = s.VT
			}
		case "ready-client", "ready-server":
			if demand >= 0 && ready < 0 {
				ready = s.VT
				out = append(out, connSpan{"conn-handshake", demand, s.VT})
			}
		case "evict", "link-fault":
			if demand >= 0 && ready >= 0 {
				out = append(out, connSpan{"conn-live", ready, s.VT})
				out = append(out, connSpan{"conn-episode", demand, s.VT})
			}
			demand, ready = -1, -1
		}
	}
	return out
}
