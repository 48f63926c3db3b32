package ib

import (
	"testing"

	"goshmem/internal/vclock"
)

// The verdict tables are the spec of the fault plane (DESIGN.md §5): which
// kinds each question can answer, for which operations, in which order, and
// what the caps and the zero injector do. Probabilities are 0 or 1, so every
// row is exact; the seeded middle is TestInjectionScriptGolden's.

// TestUDFate walks admitUD and landUD: every datagram kind, its cap, the
// filter override and the schedule's blackhole.
func TestUDFate(t *testing.T) {
	partitioned := func(fi *FaultInjector) { fi.Partition([]uint16{1}, []uint16{2}, 100, 200) }
	cases := []struct {
		name  string
		arm   func(fi *FaultInjector)
		now   int64
		sends int
		want  Injected // tally after `sends` identical datagrams
		last  udFate   // verdict on the last of them
	}{
		{name: "zero injector", arm: func(*FaultInjector) {}, sends: 3},
		{name: "slow", arm: func(fi *FaultInjector) { fi.SlowProb, fi.SlowTime = 1, 7 }, sends: 2,
			want: Injected{Slowdowns: 2}, last: udFate{slow: 7}},
		{name: "slow needs a time", arm: func(fi *FaultInjector) { fi.SlowProb = 1 }, sends: 2},
		{name: "drop", arm: func(fi *FaultInjector) { fi.DropProb = 1 }, sends: 3,
			want: Injected{Drops: 3}, last: udFate{kind: kindDrop}},
		{name: "drop capped", arm: func(fi *FaultInjector) { fi.DropProb, fi.MaxDrops = 1, 2 }, sends: 3,
			want: Injected{Drops: 2}},
		{name: "drop first n", arm: func(fi *FaultInjector) { fi.DropFirstN = 2 }, sends: 3,
			want: Injected{Drops: 2}},
		{name: "drop beats reorder beats dup", arm: func(fi *FaultInjector) {
			fi.DropProb, fi.MaxDrops, fi.ReorderProb, fi.MaxReorders, fi.DupProb = 1, 1, 1, 1, 1
		}, sends: 3, want: Injected{Drops: 1, Reorders: 1, Dups: 1}, last: udFate{kind: kindDup}},
		{name: "reorder", arm: func(fi *FaultInjector) { fi.ReorderProb = 1 }, sends: 2,
			want: Injected{Reorders: 2}, last: udFate{kind: kindReorder}},
		{name: "dup has no cap", arm: func(fi *FaultInjector) { fi.DupProb = 1 }, sends: 50,
			want: Injected{Dups: 50}, last: udFate{kind: kindDup}},
		{name: "filter drops", arm: func(fi *FaultInjector) { fi.UDFilter = func([]byte) UDVerdict { return VerdictDrop } }, sends: 2,
			want: Injected{Drops: 2}, last: udFate{kind: kindDrop}},
		{name: "filter delivers past every knob", arm: func(fi *FaultInjector) {
			fi.DropFirstN, fi.DropProb, fi.ReorderProb, fi.DupProb = 9, 1, 1, 1
			fi.UDFilter = func([]byte) UDVerdict { return VerdictDeliver }
		}, sends: 2},
		{name: "filter defers", arm: func(fi *FaultInjector) {
			fi.DropProb = 1
			fi.UDFilter = func([]byte) UDVerdict { return VerdictDefault }
		}, sends: 1, want: Injected{Drops: 1}, last: udFate{kind: kindDrop}},
		{name: "blackhole inside the window draws no fate", arm: func(fi *FaultInjector) { partitioned(fi); fi.DropProb = 1 }, now: 150, sends: 2,
			want: Injected{Partitions: 1, Blackholes: 2}, last: udFate{kind: kindBlackhole}},
		{name: "a slowdown can push a datagram into the window", arm: func(fi *FaultInjector) { partitioned(fi); fi.SlowProb, fi.SlowTime = 1, 60 }, now: 50, sends: 1,
			want: Injected{Partitions: 1, Slowdowns: 1, Blackholes: 1}, last: udFate{slow: 60, kind: kindBlackhole}},
		{name: "healed", arm: partitioned, now: 200, sends: 1, want: Injected{Partitions: 1}},
	}
	for _, tc := range cases {
		fi := NewFaultInjector(1)
		tc.arm(fi)
		var got udFate
		for i := 0; i < tc.sends; i++ {
			got = fi.admitUD(1, 2, 1, tc.now, []byte{1})
		}
		if got != tc.last || fi.Injected() != tc.want {
			t.Errorf("%s: last verdict %+v, tally %+v; want %+v, %+v", tc.name, got, fi.Injected(), tc.last, tc.want)
		}
	}

	// landUD: the flip hits a delivered, non-empty copy only, honours its cap,
	// and a held datagram comes back due after 1..ReorderWindow later sends.
	fi := NewFaultInjector(1)
	fi.CorruptProb, fi.MaxCorrupts, fi.ReorderWindow = 1, 2, 3
	fi.landUD(nil, false)
	fi.landUD(&udDelivery{clean: true}, false)
	if n := fi.Injected().Corrupts; n != 0 {
		t.Errorf("a lost or empty datagram was corrupted (%d)", n)
	}
	held := &udDelivery{c: Completion{Data: []byte{0, 0}}, clean: true}
	if due := fi.landUD(held, true); len(due) != 0 || held.clean || held.c.Data[0]|held.c.Data[1] == 0 {
		t.Errorf("held datagram: due %d, clean %v, data %x; want parked with one bit flipped", len(due), held.clean, held.c.Data)
	}
	overtaken := 0
	for len(fi.landUD(&udDelivery{c: Completion{Data: []byte{0}}, clean: true}, false)) == 0 {
		if overtaken++; overtaken > 3 {
			t.Fatal("held datagram outlived its reorder window")
		}
	}
	if n := fi.Injected().Corrupts; overtaken == 0 || n != 2 {
		t.Errorf("overtaken by %d sends, %d corruptions; want 1..3 and the cap of 2", overtaken, n)
	}
}

// TestRCFate walks admitRC and damageRC: every kind against every opcode it
// can and cannot hit.
func TestRCFate(t *testing.T) {
	every := func(fi *FaultInjector) {
		fi.RCCorruptProb, fi.TornWriteProb = 1, 1
	}
	fi := NewFaultInjector(1)
	if v := fi.admitRC(1, 2, 0, 0); v != (rcFate{}) {
		t.Errorf("zero injector admitted with %+v", v)
	}
	fi.SlowProb, fi.SlowTime, fi.FlapProb, fi.MaxFlaps = 1, 9, 1, 1
	fi.FailRail(1, 100)
	for i, want := range []rcFate{
		{slow: 9, refused: kindFlap},
		{slow: 9}, // the cap of one flap is spent
	} {
		if got := fi.admitRC(1, 2, 0, 0); got != want {
			t.Errorf("admitRC #%d = %+v, want %+v", i, got, want)
		}
	}
	fi.MaxFlaps = 0
	if got := fi.admitRC(1, 2, 1, 95); got != (rcFate{slow: 9, refused: kindPathDown}) {
		t.Errorf("post slowed onto a dead rail = %+v, want path-down and no flap drawn", got)
	}
	if got := fi.admitRC(2, 2, 1, 500); got.refused != kindFlap {
		t.Errorf("intra-node post = %+v: never path-blocked, still flappable", got)
	}
	if got, want := fi.Injected(), (Injected{Slowdowns: 4, Flaps: 2, PathDowns: 1, RailFaults: 1}); got != want {
		t.Errorf("admission tally %+v, want %+v", got, want)
	}

	data := func(n int) []byte { return make([]byte, n) }
	cases := []struct {
		name string
		arm  func(fi *FaultInjector)
		op   Opcode
		data []byte
		pkts int
		kind faultKind
		want Injected
	}{
		{name: "zero injector", arm: func(*FaultInjector) {}, op: OpRDMAWrite, pkts: 4},
		{name: "send flips silently", arm: every, op: OpSend, data: data(8), kind: kindRCCorrupt, want: Injected{RCCorrupts: 1}},
		{name: "empty send has no bit to flip", arm: every, op: OpSend},
		{name: "multi-packet write tears first", arm: every, op: OpRDMAWrite, pkts: 3, kind: kindTornWrite, want: Injected{TornWrites: 1}},
		{name: "single packet never tears", arm: every, op: OpRDMAWrite, pkts: 1, kind: kindRCCorrupt, want: Injected{RCCorrupts: 1}},
		{name: "spent tear cap falls through to corruption", arm: func(fi *FaultInjector) { every(fi); fi.MaxTornWrites, fi.n.TornWrites = 1, 1 },
			op: OpRDMAWrite, pkts: 3, kind: kindRCCorrupt, want: Injected{TornWrites: 1, RCCorrupts: 1}},
		{name: "empty write spans no packet", arm: every, op: OpRDMAWrite},
		{name: "read", arm: every, op: OpRDMARead, kind: kindRCCorrupt, want: Injected{RCCorrupts: 1}},
		{name: "read under a spent cap", arm: func(fi *FaultInjector) { every(fi); fi.MaxRCCorrupts, fi.n.RCCorrupts = 2, 2 },
			op: OpRDMARead, want: Injected{RCCorrupts: 2}},
		{name: "atomics are never damaged", arm: every, op: OpFetchAdd, data: data(8), pkts: 1},
	}
	for _, tc := range cases {
		fi := NewFaultInjector(1)
		tc.arm(fi)
		d := fi.damageRC(tc.op, tc.data, tc.pkts)
		flipped := false
		for _, b := range tc.data {
			flipped = flipped || b != 0
		}
		if d.kind != tc.kind || fi.Injected() != tc.want || flipped != (tc.op == OpSend && tc.kind != kindNone) {
			t.Errorf("%s: damage %+v (payload flipped %v), tally %+v; want kind %d, %+v", tc.name, d, flipped, fi.Injected(), tc.kind, tc.want)
		}
		// A torn write lands at least one packet and never all of them; a
		// corrupted one any clean prefix, possibly empty.
		if lo, hi := map[faultKind]int{kindTornWrite: 1}[d.kind], tc.pkts-1; tc.op == OpRDMAWrite && d.kind != kindNone && (d.pkts < lo || d.pkts > hi) {
			t.Errorf("%s: %d of %d packets landed, want %d..%d", tc.name, d.pkts, tc.pkts, lo, hi)
		}
	}
}

// TestVerdictsDoNotAllocate: a draw is a lock, a few comparisons and at most
// three random numbers.
func TestVerdictsDoNotAllocate(t *testing.T) {
	fi := NewFaultInjector(1)
	fi.SlowProb, fi.SlowTime, fi.DropProb, fi.ReorderProb, fi.DupProb, fi.FlapProb = 0.5, 5, 0.3, 0, 0.3, 0.3
	fi.CorruptProb, fi.RCCorruptProb, fi.TornWriteProb = 0.5, 0.5, 0.5
	fi.FailPort(1, 0, 1000)
	payload := make([]byte, 64)
	d := udDelivery{c: Completion{Data: payload}}
	if n := testing.AllocsPerRun(1000, func() {
		fi.admitUD(1, 2, 2, 500, payload)
		fi.landUD(&d, false)
		fi.admitRC(1, 2, 0, 500)
		fi.damageRC(OpSend, payload, 0)
		fi.damageRC(OpRDMAWrite, nil, 4)
		fi.damageRC(OpRDMARead, nil, 0)
	}); n != 0 {
		t.Errorf("%v allocs per round of verdicts, want 0", n)
	}
}

// TestCleanUDSendAllocatesOnlyThePayload guards the closure a clean datagram
// used to build for the reorder window it would never enter.
func TestCleanUDSendAllocatesOnlyThePayload(t *testing.T) {
	r := newRig(t, nil)
	u1, u2 := udPair(t, r)
	wr := SendWR{Op: OpSend, Dest: u2.Addr(), Data: make([]byte, 64)}
	if n := testing.AllocsPerRun(1000, func() {
		if err := u1.PostSend(wr); err != nil {
			t.Fatal(err)
		}
		r.cq2.Poll()
	}); n > 1 {
		t.Errorf("lossless UD send: %v allocs, want <= 1 (the payload copy)", n)
	}
}

// TestFaultFreeFabricAnswersClean: with no injector every question the fabric
// forwards to the fault plane has its healthy answer, and nothing panics.
func TestFaultFreeFabricAnswersClean(t *testing.T) {
	f := NewFabric(vclock.Default(), nil)
	var fi *FaultInjector
	dark, heal := f.Severed(1, 2, 1<<40)
	if dark || heal != 0 || !f.RailLive(1, 2, 0, 1<<40) || f.SeveredDuring(1, 2, 0, 1<<40) ||
		f.PEFate(0, 1<<40) != PEAlive || f.PEFaulty() || f.NetFaulty() || f.Lossy() || f.Sched() != nil ||
		fi.Injected() != (Injected{}) {
		t.Error("a fault-free fabric reported a fault")
	}
	fi.ReleaseHeld()
}
