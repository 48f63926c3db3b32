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
// Unlike the probabilistic knobs, injection counters here advance at
// scheduling time: a scheduled network fault IS the injection (the cluster
// layer opens its incident from the same schedule), whether or not any
// datagram happens to cross the severed path.

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
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.portFaults = append(fi.portFaults, portFault{lid: lid, rail: rail, at: at})
	fi.portFaultsInjected++
}

// FailRail schedules the whole rail to fail at virtual time at (permanently).
func (fi *FaultInjector) FailRail(rail int, at int64) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.railFaults = append(fi.railFaults, railFault{rail: rail, at: at})
	fi.railFaultsInjected++
}

// Partition schedules a partition window severing LID sets a and b on every
// rail during [at, heal); heal < 0 means the partition never heals.
func (fi *FaultInjector) Partition(a, b []uint16, at, heal int64) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.partitions = append(fi.partitions, partitionWindow{
		a: append([]uint16(nil), a...), b: append([]uint16(nil), b...),
		at: at, heal: heal})
	fi.partitionsInjected++
}

// NetFaultsScheduled reports whether any port/rail/partition injections
// exist. The failure detector arms on it (like PEFaultsScheduled), so
// fault-free runs pay nothing for partition awareness.
func (fi *FaultInjector) NetFaultsScheduled() bool {
	if fi == nil {
		return false
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return len(fi.portFaults)+len(fi.railFaults)+len(fi.partitions) > 0
}

// PortFaultsInjected reports how many port failures have been scheduled.
func (fi *FaultInjector) PortFaultsInjected() int {
	if fi == nil {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.portFaultsInjected
}

// RailFaultsInjected reports how many whole-rail failures have been scheduled.
func (fi *FaultInjector) RailFaultsInjected() int {
	if fi == nil {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.railFaultsInjected
}

// PartitionsInjected reports how many partition windows have been scheduled.
func (fi *FaultInjector) PartitionsInjected() int {
	if fi == nil {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.partitionsInjected
}

// pathBlockedLocked reports whether the src->dst path over one rail is
// severed at virtual time now. Intra-node traffic never leaves the adapter,
// so it is never blocked. Caller holds fi.mu.
func (fi *FaultInjector) pathBlockedLocked(src, dst uint16, rail int, now int64) bool {
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
	for i := range fi.partitions {
		if w := &fi.partitions[i]; w.active(now) && w.severs(src, dst) {
			return true
		}
	}
	return false
}

// pathBlocked reports whether the src->dst path over one rail is severed at
// virtual time now (Fabric.sendRC consults it for the QP's primary path).
func (fi *FaultInjector) pathBlocked(src, dst uint16, rail int, now int64) bool {
	if fi == nil {
		return false
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.pathBlockedLocked(src, dst, rail, now)
}

// allPathsBlocked reports whether EVERY rail between src and dst is severed
// at virtual time now — the condition under which UD datagrams (handshakes,
// heartbeats, ACKs) blackhole and the pair is truly partitioned.
func (fi *FaultInjector) allPathsBlocked(src, dst uint16, rails int, now int64) bool {
	if fi == nil || src == dst {
		return false
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if len(fi.portFaults)+len(fi.railFaults)+len(fi.partitions) == 0 {
		return false
	}
	for r := 0; r < rails; r++ {
		if !fi.pathBlockedLocked(src, dst, r, now) {
			return false
		}
	}
	return true
}

// PartitionedDuring reports whether a partition window severed src from dst
// at any instant of the virtual-time span [from, to]. The failure detector
// asks it of a silence: probes sent while the pair was partitioned were
// blackholed, so going unanswered proves nothing about the peer. Port and rail
// failures need no such question — they never heal, so a pair they sever at
// any time is still severed at `to`.
func (fi *FaultInjector) PartitionedDuring(src, dst uint16, from, to int64) bool {
	if fi == nil {
		return false
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	for i := range fi.partitions {
		w := &fi.partitions[i]
		if w.severs(src, dst) && w.at <= to && (w.heal < 0 || w.heal > from) {
			return true
		}
	}
	return false
}

// RailLive reports whether the src->dst path over one rail is up at virtual
// time now. The connection manager uses it for least-loaded-live-rail path
// selection and for deciding whether APM (vs reconnect, vs suspension) can
// recover a path error.
func (fi *FaultInjector) RailLive(src, dst uint16, rail int, now int64) bool {
	return !fi.pathBlocked(src, dst, rail, now)
}

// PartitionInfo reports whether src and dst are currently severed by a
// partition window (any rail — partitions cut all of them) and, when they
// are, the latest heal time among the active windows; heal < 0 means at
// least one active window never heals. The failure detector uses it to tell
// a partitioned peer (suspend, wait for heal) from a dead one (abort), and
// to bound its patience for permanent partitions.
func (fi *FaultInjector) PartitionInfo(src, dst uint16, now int64) (blocked bool, heal int64) {
	if fi == nil {
		return false, 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	for i := range fi.partitions {
		w := &fi.partitions[i]
		if !w.active(now) || !w.severs(src, dst) {
			continue
		}
		blocked = true
		if w.heal < 0 {
			return true, -1
		}
		if w.heal > heal {
			heal = w.heal
		}
	}
	return blocked, heal
}
