package ib

// Rail-scoped fault plane: the injector schedules port failures, whole-rail
// failures and partition windows against the fabric's multi-rail topology
// (Fabric.SetRails). All three are schedule-driven and deterministic — they
// trip on virtual time, not probability — so a seeded run injects exactly the
// configured faults and the incident ledger can reconcile them one-for-one.
//
// Semantics:
//
//   - FailPort(lid, rail, at): the HCA's port on one rail goes dark at vt
//     `at` and stays dark. Paths from or to that LID over that rail are
//     blocked; the LID's other ports and every other LID stay reachable.
//   - FailRail(rail, at): the whole rail (its switch plane) dies at `at`.
//     Every path over the rail is blocked fabric-wide.
//   - Partition(a, b, at, heal): connectivity between LID set a and LID set
//     b is severed on EVERY rail during [at, heal) — the classic network
//     partition, where both sides stay alive but cannot talk. heal < 0 means
//     the partition never heals.
//
// Unlike the probabilistic knobs, the tallies here advance at scheduling
// time: a scheduled network fault IS the injection (the cluster layer opens
// its incident from the same schedule), whether or not any datagram happens
// to cross the severed path. Like the rest of the schedule (see
// FaultInjector) all of it is written before traffic flows and read without
// a lock after.

// portFault is one scheduled port failure (permanent from `at`).
type portFault struct {
	lid  uint16
	rail int
	at   int64
}

// railFault is one scheduled whole-rail failure (permanent from `at`).
type railFault struct {
	rail int
	at   int64
}

// partitionWindow severs LID sets a and b on every rail during [at, heal);
// heal < 0 never heals.
type partitionWindow struct {
	a, b []uint16
	at   int64
	heal int64
}

func (w *partitionWindow) active(now int64) bool {
	return now >= w.at && (w.heal < 0 || now < w.heal)
}

func (w *partitionWindow) severs(x, y uint16) bool {
	return (lidIn(w.a, x) && lidIn(w.b, y)) || (lidIn(w.a, y) && lidIn(w.b, x))
}

func lidIn(set []uint16, lid uint16) bool {
	for _, l := range set {
		if l == lid {
			return true
		}
	}
	return false
}

// FailPort schedules the port of the given LID on the given rail to fail at
// virtual time at (permanently).
func (fi *FaultInjector) FailPort(lid uint16, rail int, at int64) {
	fi.portFaults = append(fi.portFaults, portFault{lid: lid, rail: rail, at: at})
	fi.n.PortFaults++
}

// FailRail schedules the whole rail to fail at virtual time at (permanently).
func (fi *FaultInjector) FailRail(rail int, at int64) {
	fi.railFaults = append(fi.railFaults, railFault{rail: rail, at: at})
	fi.n.RailFaults++
}

// Partition schedules a partition window severing LID sets a and b on every
// rail during [at, heal); heal < 0 means the partition never heals.
func (fi *FaultInjector) Partition(a, b []uint16, at, heal int64) {
	fi.partitions = append(fi.partitions, partitionWindow{
		a: append([]uint16(nil), a...), b: append([]uint16(nil), b...),
		at: at, heal: heal})
	fi.n.Partitions++
}

// netFaulty reports whether any port, rail or partition fault is scheduled.
func (fi *FaultInjector) netFaulty() bool {
	return len(fi.portFaults)+len(fi.railFaults)+len(fi.partitions) > 0
}

// partitioned reports whether a partition window severs src from dst at
// virtual time now (on every rail — partitions cut all of them) and, if so,
// the latest heal time among the active windows; -1 when one never heals.
func (fi *FaultInjector) partitioned(src, dst uint16, now int64) (cut bool, heal int64) {
	for i := range fi.partitions {
		w := &fi.partitions[i]
		if !w.active(now) || !w.severs(src, dst) {
			continue
		}
		if w.heal < 0 {
			return true, -1
		}
		cut, heal = true, max(heal, w.heal)
	}
	return cut, heal
}

// pathBlocked reports whether the src->dst path over one rail is severed at
// virtual time now. Intra-node traffic never leaves the adapter, so it is
// never blocked.
func (fi *FaultInjector) pathBlocked(src, dst uint16, rail int, now int64) bool {
	if src == dst {
		return false
	}
	for i := range fi.railFaults {
		if f := &fi.railFaults[i]; f.rail == rail && now >= f.at {
			return true
		}
	}
	for i := range fi.portFaults {
		if f := &fi.portFaults[i]; f.rail == rail && now >= f.at && (f.lid == src || f.lid == dst) {
			return true
		}
	}
	cut, _ := fi.partitioned(src, dst, now)
	return cut
}

// severed reports whether EVERY rail between src and dst is dark at virtual
// time now — the condition under which UD datagrams (handshakes, heartbeats,
// ACKs) blackhole and the pair is truly partitioned — and, if so, when the
// schedule says it heals: a partition window's end, or -1 for a window that
// never closes and for failed ports and rails, which never heal.
func (fi *FaultInjector) severed(src, dst uint16, rails int, now int64) (dark bool, heal int64) {
	if src == dst || !fi.netFaulty() {
		return false, 0
	}
	if cut, heal := fi.partitioned(src, dst, now); cut {
		return true, heal
	}
	for r := 0; r < rails; r++ {
		if !fi.pathBlocked(src, dst, r, now) {
			return false, 0
		}
	}
	return true, -1
}

// partitionedDuring reports whether a partition window severed src from dst
// at any instant of the virtual-time span [from, to]. The failure detector
// asks it of a silence: probes sent while the pair was partitioned were
// blackholed, so going unanswered proves nothing about the peer. Port and rail
// failures need no such question — they never heal, so a pair they sever at
// any time is still severed at `to`.
func (fi *FaultInjector) partitionedDuring(src, dst uint16, from, to int64) bool {
	for i := range fi.partitions {
		w := &fi.partitions[i]
		if w.severs(src, dst) && w.at <= to && (w.heal < 0 || w.heal > from) {
			return true
		}
	}
	return false
}
