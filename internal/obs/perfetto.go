package obs

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Perfetto / Chrome trace-event export.
//
// The exporter emits the JSON Object Format ({"traceEvents": [...]}) that
// both chrome://tracing and ui.perfetto.dev load directly. Spans become
// complete ("X") events, instants become "i" events, and each PE is
// rendered as a process (pid = rank) whose threads are the layers, so the
// timeline reads top-down the way the stack does: cluster, shmem/mpi,
// gasnet, pmi, ib.
//
// Determinism: timestamps are virtual time (µs with ns precision), never
// wall clock, and the JSON is emitted field-by-field in a fixed order from
// events in Events order — so byte-identical event multisets
// produce byte-identical files. Two golden-file tests pin this down.

// perfettoTID maps a layer to a stable thread id within each PE process.
var perfettoTID = map[string]int{
	LayerCluster: 0,
	LayerShmem:   1,
	LayerMPI:     2,
	LayerGasnet:  3,
	LayerPMI:     4,
	LayerIB:      5,
}

const perfettoOtherTID = 9

// Synthetic per-pair connection-lifecycle tracks: each directed pair
// (rank -> peer) with at least one completed lifecycle slice renders as its
// own thread inside the rank's process, named "conn peer N", so connection
// setup/live/eviction read as nested slices next to the layer timelines.
const (
	layerConn           = "conn"
	perfettoConnTIDBase = 16 // tid = base + peer
)

// perfettoIncidentTID hosts incident spans inside the victim's process,
// above the conn sub-tracks (which use tid 16+peer).
const perfettoIncidentTID = 15

// WritePerfetto writes the plane's merged events as a Perfetto-loadable
// Chrome trace, with gauge counter tracks ("C" events) and incident spans.
// Per-PE gauges (inst in [0,np)) render as counter tracks inside the rank's
// process; job- and adapter-level gauges (inst == -1, or an HCA lid at/above
// np) render in a dedicated "job" process with pid np. Incidents render as
// "X" spans named class/kind on a per-process "incidents" thread of the
// victim rank (the job process for rank -1), covering inject -> repair.
//
// Past the one sort in Events, the cost is linear in the output: the
// synthesized conn-lifecycle slices are sorted alone and merged in while
// writing (a recorded event first on a full-key tie, where a stable sort of
// the two streams concatenated put it), and every record is appended to one
// reused buffer.
func (pl *Plane) WritePerfetto(w io.Writer) error {
	evs, np := pl.Events(), 0
	if pl != nil {
		np = len(pl.pes)
	}
	gauges, incidents := pl.Gauges().Series(DefaultGaugeTick), pl.Ledger().Snapshot()
	// Synthesize the per-pair lifecycle slices (timeline.go).
	tls := BuildConnTimelines(evs)
	connPeers := make(map[int][]int) // rank -> peers with a conn track (sorted)
	var synth []Event
	for i := range tls {
		tl := &tls[i]
		spans := synthConnSpans(tl)
		if len(spans) == 0 {
			continue
		}
		connPeers[tl.Rank] = append(connPeers[tl.Rank], tl.Peer)
		for _, s := range spans {
			synth = append(synth, Event{
				VT: s.from, Rank: tl.Rank, Layer: layerConn,
				Kind: s.kind, Peer: tl.Peer, Dur: s.to - s.from,
			})
		}
	}
	synth = sortEvents(synth)
	t := &traceOut{bw: bufio.NewWriterSize(w, 64<<10), b: []byte(`{"traceEvents":[`)}
	// The "job" process (pid = np) hosts job-level gauges (inst == -1),
	// adapter gauges (inst at/above np is an HCA lid), and incidents with no
	// victim rank.
	jobPID := np
	needJob := slices.ContainsFunc(gauges, func(g GaugeSeries) bool { return g.Inst < 0 || g.Inst >= np })
	incRanks := make(map[int]bool)
	for i := range incidents {
		r := incidents[i].Rank
		if r < 0 || r >= np {
			r = jobPID
			needJob = true
		}
		incRanks[r] = true
	}
	for rank := 0; rank < np; rank++ {
		t.meta(rank, -1, "PE "+strconv.Itoa(rank))
		for _, layer := range []string{LayerCluster, LayerShmem, LayerMPI, LayerGasnet, LayerPMI, LayerIB} {
			t.meta(rank, perfettoTID[layer], layer)
		}
		for _, peer := range connPeers[rank] {
			t.meta(rank, perfettoConnTIDBase+peer, "conn peer "+strconv.Itoa(peer))
		}
		if incRanks[rank] {
			t.meta(rank, perfettoIncidentTID, "incidents")
		}
	}
	if needJob {
		t.meta(jobPID, -1, "job")
		if incRanks[jobPID] {
			t.meta(jobPID, perfettoIncidentTID, "incidents")
		}
	}
	for i, j := 0, 0; i < len(evs) || j < len(synth); {
		if j == len(synth) || i < len(evs) && compareEvents(&evs[i], &synth[j]) <= 0 {
			t.event(&evs[i])
			i++
		} else {
			t.event(&synth[j])
			j++
		}
	}
	for i := range gauges {
		sr := &gauges[i]
		pid, name := sr.Inst, sr.Name
		if sr.Inst == InstJob {
			pid = jobPID
		} else if sr.Inst < InstJob {
			// Adapter gauge: the instance encodes an HCA lid (InstHCA).
			pid = jobPID
			name = sr.Name + "/hca" + strconv.Itoa(int(InstLID(sr.Inst)))
		}
		for _, p := range sr.Points {
			t.rec()
			t.b = strconv.AppendInt(append(t.b, `{"ph":"C","pid":`...), int64(pid), 10)
			t.b = strconv.AppendQuote(append(appendUsec(append(t.b, `,"ts":`...), p.VT), `,"name":`...), name)
			t.b = append(strconv.AppendInt(append(t.b, `,"args":{"value":`...), p.Value, 10), "}}"...)
		}
	}
	for i := range incidents {
		in := &incidents[i]
		pid := in.Rank
		if pid < 0 || pid >= np {
			pid = jobPID
		}
		t.slice(pid, perfettoIncidentTID, in.InjectVT, in.RepairVT-in.InjectVT, in.Class+"/"+in.Kind)
		t.b = strconv.AppendQuote(append(t.b, `,"args":{"state":`...), in.State)
		t.b = append(strconv.AppendInt(append(t.b, `,"inst":`...), int64(in.Inst), 10), "}}"...)
	}
	t.bw.Write(t.b)
	t.bw.WriteString("]}\n")
	return t.bw.Flush()
}

// traceOut builds each record in one reused buffer and hands it to a
// bufio.Writer, whose sticky error Flush reports.
type traceOut struct {
	bw  *bufio.Writer
	b   []byte
	sep bool
}

// rec starts a record: it writes out the one built so far and leaves the
// buffer holding the separator.
func (t *traceOut) rec() {
	t.bw.Write(t.b)
	t.b = t.b[:0]
	if t.sep {
		t.b = append(t.b, ",\n"...)
	}
	t.sep = true
}

// meta writes a process_name metadata record (tid < 0) or a thread_name one.
func (t *traceOut) meta(pid, tid int, name string) {
	t.rec()
	t.b = strconv.AppendInt(append(t.b, `{"ph":"M","pid":`...), int64(pid), 10)
	what := `,"name":"process_name","args":{"name":`
	if tid >= 0 {
		t.b = strconv.AppendInt(append(t.b, `,"tid":`...), int64(tid), 10)
		what = `,"name":"thread_name","args":{"name":`
	}
	t.b = append(strconv.AppendQuote(append(t.b, what...), name), "}}"...)
}

// slice starts a complete ("X") record when dur > 0 and an instant
// otherwise, up to and including its name.
func (t *traceOut) slice(pid, tid int, ts, dur int64, name string) {
	t.rec()
	if dur > 0 {
		t.b = append(t.b, `{"ph":"X","pid":`...)
	} else {
		t.b = append(t.b, `{"ph":"i","s":"t","pid":`...)
	}
	t.b = strconv.AppendInt(t.b, int64(pid), 10)
	t.b = appendUsec(append(strconv.AppendInt(append(t.b, `,"tid":`...), int64(tid), 10), `,"ts":`...), ts)
	if dur > 0 {
		t.b = appendUsec(append(t.b, `,"dur":`...), dur)
	}
	t.b = strconv.AppendQuote(append(t.b, `,"name":`...), name)
}

// event writes one event on its layer's thread (a conn sub-track for a conn
// slice, tid 9 for an unknown layer).
func (t *traceOut) event(e *Event) {
	tid, ok := perfettoTID[e.Layer]
	if e.Layer == layerConn && e.Peer >= 0 {
		tid = perfettoConnTIDBase + e.Peer
	} else if !ok {
		tid = perfettoOtherTID
	}
	t.slice(e.Rank, tid, e.VT, e.Dur, e.Kind)
	t.b = append(t.b, `,"args":{`...)
	args := len(t.b)
	if e.Peer >= 0 {
		t.b = strconv.AppendInt(append(t.b, `"peer":`...), int64(e.Peer), 10)
	}
	if e.Bytes > 0 {
		t.b = strconv.AppendInt(append(t.argSep(args), `"bytes":`...), e.Bytes, 10)
	}
	for _, a := range e.Attrs {
		t.b = strconv.AppendQuote(append(strconv.AppendQuote(t.argSep(args), a.Key), ':'), a.Val)
	}
	t.b = append(t.b, "}}"...)
}

// argSep returns the buffer with a comma appended when an argument already
// follows the args object's start.
func (t *traceOut) argSep(start int) []byte {
	if len(t.b) > start {
		return append(t.b, ',')
	}
	return t.b
}

// appendUsec appends a virtual-ns quantity as microseconds with nanosecond
// precision, the unit Chrome trace events use for ts/dur.
func appendUsec(b []byte, ns int64) []byte {
	us, frac := ns/1000, ns%1000
	if frac < 0 {
		return fmt.Appendf(b, "%d.%03d", us, frac)
	}
	b = strconv.AppendInt(b, us, 10)
	if frac == 0 {
		return b
	}
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}
