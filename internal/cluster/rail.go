package cluster

import "goshmem/internal/obs"

// PortFault schedules one HCA port going dark: the adapter with the given
// LID loses its port on one rail at virtual time At (permanently). Paths
// from or to that adapter over that rail are blocked; its other ports and
// every other adapter stay reachable.
type PortFault struct {
	LID  uint16
	Rail int
	At   int64 // virtual time (ns)
}

// RailFault schedules a whole-rail failure: the rail's switch plane dies at
// virtual time At (permanently), blocking every path over it fabric-wide.
type RailFault struct {
	Rail int
	At   int64 // virtual time (ns)
}

// PartitionFault schedules a network partition window: connectivity between
// rank sets A and B is severed on every rail during [At, Heal). Both sides
// stay alive but cannot talk; Heal < 0 means the partition never heals and
// the job exits with ExitPartitioned at the detector's first verdict on it.
type PartitionFault struct {
	A, B []int // PE ranks (mapped to their nodes' adapters)
	At   int64 // virtual time (ns)
	Heal int64 // virtual time (ns); < 0 = permanent
}

// railCount returns the configured rail count, clamped to at least one.
func (cfg *Config) railCount() int {
	if cfg.Rails < 1 {
		return 1
	}
	return cfg.Rails
}

// netFaulted reports whether any rail-scoped network fault is scheduled.
func (cfg *Config) netFaulted() bool {
	return len(cfg.FailPorts)+len(cfg.FailRails)+len(cfg.Partitions) > 0
}

// lids maps PE ranks to the LIDs of their nodes' adapters (AddHCA assigns
// LIDs sequentially from 1, one per node), deduplicated in first-appearance
// order: a partition severs whole nodes, so co-located ranks fold together.
func (cfg *Config) lids(ranks []int) []uint16 {
	seen := make(map[uint16]bool, len(ranks))
	out := make([]uint16, 0, len(ranks))
	for _, r := range ranks {
		lid := uint16(r/cfg.PPN + 1)
		if !seen[lid] {
			seen[lid] = true
			out = append(out, lid)
		}
	}
	return out
}

// seedRailTelemetry pre-opens the "net" incidents and pre-records the
// schedule-driven per-rail gauges. Network faults are virtual-time schedules,
// fully known at setup: the injection time is the scheduled trigger, so the
// incident opens here (detection is stamped later by the conduits' recovery
// ladder) and the topology gauges are exact regardless of traffic. Instance
// keys keep concurrent faults distinct: a rail failure uses the rail index, a
// port failure packs (LID, rail) into one int, partitions are job-scoped
// (their heal closes all of them symmetrically).
func seedRailTelemetry(plane *obs.Plane, cfg *Config) {
	rails := cfg.railCount()
	if rails == 1 && !cfg.netFaulted() {
		return // single-rail fault-free run: no rail telemetry to seed
	}
	led := plane.Ledger()
	for _, f := range cfg.FailPorts {
		led.Open("net", "port-down", -1, int(f.LID)<<8|f.Rail, f.At)
	}
	for _, f := range cfg.FailRails {
		led.Open("net", "rail-down", -1, f.Rail, f.At)
	}
	for _, p := range cfg.Partitions {
		led.Open("net", "partition", -1, obs.InstJob, p.At)
	}
	g := plane.Gauges()
	for r := 0; r < rails; r++ {
		g.Gauge("net.rail_up", obs.InstRail(r)).Add(0, 1)
	}
	for _, f := range cfg.FailRails {
		g.Gauge("net.rail_up", obs.InstRail(f.Rail)).Add(f.At, -1)
	}
	for _, f := range cfg.FailPorts {
		g.Gauge("net.ports_down", obs.InstRail(f.Rail)).Add(f.At, 1)
	}
	for _, p := range cfg.Partitions {
		g.Gauge("net.partitions_active", obs.InstJob).Add(p.At, 1)
		if p.Heal >= 0 {
			g.Gauge("net.partitions_active", obs.InstJob).Add(p.Heal, -1)
		}
	}
}
