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

	// landUD: a held datagram comes back due, untouched, after
	// 1..ReorderWindow later sends, lost ones aging the window too.
	fi := NewFaultInjector(1)
	fi.ReorderWindow = 3
	held := &udDelivery{c: Completion{Data: []byte{7, 9}}, clean: true}
	if due := fi.landUD(held, true); len(due) != 0 {
		t.Errorf("held datagram due at once (%d)", len(due))
	}
	overtaken := 0
	for {
		due := fi.landUD(nil, false)
		if overtaken++; len(due) == 1 {
			if !due[0].clean || due[0].c.Data[0] != 7 || due[0].c.Data[1] != 9 {
				t.Errorf("held datagram came back as %+v", due[0])
			}
			break
		}
		if overtaken > 3 {
			t.Fatal("held datagram outlived its reorder window")
		}
	}
	if fi.Injected() != (Injected{}) {
		t.Errorf("landUD tallied %+v: it injects nothing", fi.Injected())
	}
}

// TestRCFate walks admitRC and damageRC: every kind against every opcode it
// can hit, and the cap on consecutive corrupted transmissions.
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

	cases := []struct {
		name string
		arm  func(fi *FaultInjector)
		op   Opcode
		pkts int
		dmg  rcDamage
		want Injected
	}{
		{name: "zero injector", arm: func(*FaultInjector) {}, op: OpRDMAWrite, pkts: 4},
		{name: "send", arm: every, op: OpSend, dmg: rcDamage{hits: RetryCnt}, want: Injected{RCCorrupts: RetryCnt}},
		{name: "each retransmission is drawn anew, up to the cap", arm: func(fi *FaultInjector) { every(fi); fi.MaxRCCorrupts = 3 },
			op: OpSend, dmg: rcDamage{hits: 3}, want: Injected{RCCorrupts: 3}},
		{name: "multi-packet write tears first", arm: every, op: OpRDMAWrite, pkts: 3, dmg: rcDamage{torn: 1}, want: Injected{TornWrites: 1}},
		{name: "single packet never tears", arm: every, op: OpRDMAWrite, pkts: 1, dmg: rcDamage{hits: RetryCnt}, want: Injected{RCCorrupts: RetryCnt}},
		{name: "spent tear cap falls through to corruption", arm: func(fi *FaultInjector) { every(fi); fi.MaxTornWrites, fi.n.TornWrites = 1, 1 },
			op: OpRDMAWrite, pkts: 3, dmg: rcDamage{hits: RetryCnt}, want: Injected{TornWrites: 1, RCCorrupts: RetryCnt}},
		{name: "empty write", arm: every, op: OpRDMAWrite, dmg: rcDamage{hits: RetryCnt}, want: Injected{RCCorrupts: RetryCnt}},
		{name: "read", arm: every, op: OpRDMARead, dmg: rcDamage{hits: RetryCnt}, want: Injected{RCCorrupts: RetryCnt}},
		{name: "read under a spent cap", arm: func(fi *FaultInjector) { every(fi); fi.MaxRCCorrupts, fi.n.RCCorrupts = 2, 2 },
			op: OpRDMARead, want: Injected{RCCorrupts: 2}},
	}
	for _, tc := range cases {
		fi := NewFaultInjector(1)
		tc.arm(fi)
		d := fi.damageRC(tc.op, tc.pkts)
		if fi.Injected() != tc.want || (d.torn > 0) != (tc.dmg.torn > 0) || d.hits != tc.dmg.hits {
			t.Errorf("%s: damage %+v, tally %+v; want %+v, %+v", tc.name, d, fi.Injected(), tc.dmg, tc.want)
		}
		// A torn write lands at least one packet and never all of them.
		if d.torn > 0 && (d.torn < 1 || d.torn > tc.pkts-1) {
			t.Errorf("%s: %d of %d packets landed, want 1..%d", tc.name, d.torn, tc.pkts, tc.pkts-1)
		}
	}
}

// TestVerdictsDoNotAllocate: a draw is a lock, a few comparisons and a few
// random numbers.
func TestVerdictsDoNotAllocate(t *testing.T) {
	fi := NewFaultInjector(1)
	fi.SlowProb, fi.SlowTime, fi.DropProb, fi.ReorderProb, fi.DupProb, fi.FlapProb = 0.5, 5, 0.3, 0, 0.3, 0.3
	fi.RCCorruptProb, fi.TornWriteProb = 0.5, 0.5
	fi.FailPort(1, 0, 1000)
	payload := make([]byte, 64)
	d := udDelivery{c: Completion{Data: payload}}
	if n := testing.AllocsPerRun(1000, func() {
		fi.admitUD(1, 2, 2, 500, payload)
		fi.landUD(&d, false)
		fi.admitRC(1, 2, 0, 500)
		fi.damageRC(OpSend, 0)
		fi.damageRC(OpRDMAWrite, 4)
		fi.damageRC(OpRDMARead, 0)
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
