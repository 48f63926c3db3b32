package obs

import (
	"fmt"
	"reflect"
	"sync"
)

// CounterDef is the single declaration of one exported counter, read off the
// struct tags of the field that counts it in its owning layer's stats struct
// (gasnet.Stats, ib.HCAStats):
//
//	Retries int `ctr:"layer.retries" label:"retries" table:"resilience" help:"ops retried after a transient fault"`
//
// Every view of the counter — the job-wide sum, the metric registry, the
// text report and the TELEMETRY.md catalogue — is derived from these defs, so
// adding a counter means adding one tagged field and incrementing it.
// Untagged fields are not counters (per-PE values that do not sum, such as
// gasnet.Stats.PeersContacted) and are skipped by every helper here.
type CounterDef struct {
	Name  string // `ctr`: registry name, e.g. "gasnet.link_faults"
	Label string // `label`: row label in the text report table named by Table
	Table string // `table`: text report table the counter is a row of ("resilience"), or ""
	Help  string // `help`: one-line meaning (the TELEMETRY.md row)
	// FaultFreeNonzero is `faultfree:"nonzero"`: the counter moves on a clean
	// run. Every other counter stays zero unless a fault, budget or cap is in
	// play.
	FaultFreeNonzero bool
	// Lanes is `lanes`: the comma-separated class/kind incident-ledger lanes
	// an injected-fault counter is reconciled against (ib.Injected), or "".
	Lanes string

	field int // index of the field in its struct
}

var counterTables sync.Map // reflect.Type -> []CounterDef

// counterTable returns the defs of struct type t in declaration order. The
// table is built by reflection once per type; callers are job-end and
// report-time paths only, never a per-operation one.
func counterTable(t reflect.Type) []CounterDef {
	if tab, ok := counterTables.Load(t); ok {
		return tab.([]CounterDef)
	}
	var tab []CounterDef
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, ok := f.Tag.Lookup("ctr")
		if !ok {
			continue
		}
		if k := f.Type.Kind(); k != reflect.Int && k != reflect.Int64 {
			panic(fmt.Sprintf("obs: counter field %s.%s must be int or int64, is %s", t, f.Name, f.Type))
		}
		tab = append(tab, CounterDef{
			Name: name, Label: f.Tag.Get("label"), Table: f.Tag.Get("table"),
			Help: f.Tag.Get("help"), FaultFreeNonzero: f.Tag.Get("faultfree") == "nonzero",
			Lanes: f.Tag.Get("lanes"), field: i,
		})
	}
	counterTables.Store(t, tab)
	return tab
}

// EachCounter calls f with every counter def of v (a stats struct or a
// pointer to one) and the field's current value, in declaration order.
func EachCounter(v any, f func(def CounterDef, value int64)) {
	rv := reflect.Indirect(reflect.ValueOf(v))
	for _, def := range counterTable(rv.Type()) {
		f(def, rv.Field(def.field).Int())
	}
}

// AddCounters adds every counter field of src into the same field of dst.
// dst is a pointer to a stats struct; src is a struct of the same type or a
// pointer to one. Untagged fields of dst are left alone.
func AddCounters(dst, src any) {
	d := reflect.ValueOf(dst).Elem()
	s := reflect.Indirect(reflect.ValueOf(src))
	if d.Type() != s.Type() {
		panic(fmt.Sprintf("obs: AddCounters(%s, %s): mismatched types", d.Type(), s.Type()))
	}
	for _, def := range counterTable(d.Type()) {
		f := d.Field(def.field)
		f.SetInt(f.Int() + s.Field(def.field).Int())
	}
}
