package obs

import (
	"reflect"
	"testing"
)

type sampleStats struct {
	Ops     int   `ctr:"x.ops" faultfree:"nonzero" help:"ops issued"`
	Bytes   int64 `ctr:"x.bytes" help:"bytes moved"`
	Peers   int   // untagged: not a counter
	Retries int   `ctr:"x.retries" label:"retries" table:"resilience" help:"ops retried"`
	Notes   []string
}

func TestCounterHelpersFollowTheTags(t *testing.T) {
	var defs []CounterDef
	var vals []int64
	EachCounter(&sampleStats{Ops: 3, Bytes: 40, Peers: 7, Retries: 2}, func(d CounterDef, v int64) {
		d.field = 0 // compare the declared part only
		defs = append(defs, d)
		vals = append(vals, v)
	})
	wantDefs := []CounterDef{
		{Name: "x.ops", Help: "ops issued", FaultFreeNonzero: true},
		{Name: "x.bytes", Help: "bytes moved"},
		{Name: "x.retries", Label: "retries", Table: "resilience", Help: "ops retried"},
	}
	if !reflect.DeepEqual(defs, wantDefs) {
		t.Errorf("defs = %+v, want %+v", defs, wantDefs)
	}
	if want := []int64{3, 40, 2}; !reflect.DeepEqual(vals, want) {
		t.Errorf("values = %v, want %v", vals, want)
	}

	sum := sampleStats{Ops: 1, Peers: 5, Notes: []string{"kept"}}
	AddCounters(&sum, sampleStats{Ops: 3, Bytes: 40, Peers: 7, Retries: 2})
	AddCounters(&sum, &sampleStats{Bytes: 2})
	want := sampleStats{Ops: 4, Bytes: 42, Peers: 5, Retries: 2, Notes: []string{"kept"}}
	if !reflect.DeepEqual(sum, want) {
		t.Errorf("sum = %+v, want %+v (untagged fields must be left alone)", sum, want)
	}
}
