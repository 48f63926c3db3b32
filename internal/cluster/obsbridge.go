package cluster

import "goshmem/internal/obs"

// mirrorCounters publishes the job-wide conduit counters, the per-HCA verbs
// counters and — on a faulted fabric — the injector's tally into the plane's
// metric registry after the run, under the names their fields declare. Mirroring once at the end keeps the hot path
// free of double accounting: the layers keep their cheap struct counters,
// and the registry is the generic aggregated view the CLI reports from.
func mirrorCounters(plane *obs.Plane, res *Result) {
	if plane == nil || !plane.Config().Metrics {
		return
	}
	reg := plane.Registry()
	publish := func(def obs.CounterDef, v int64) { reg.Counter(def.Name).Add(v) }
	obs.EachCounter(res.Counters(), publish)
	for i := range res.HCA {
		obs.EachCounter(&res.HCA[i], publish)
	}
	if fi := res.Cfg.Faults; fi != nil {
		obs.EachCounter(fi.Injected(), publish)
	}
}

// mirrorIncidents publishes the swept ledger's detection-latency and MTTR
// samples into the metric registry as per-(class, kind) histograms, so the
// generic -metrics machinery (and its JSON serialization) carries MTTR
// attribution without a bespoke code path. Runs after Ledger.Sweep: only
// resolved incidents have final timestamps.
func mirrorIncidents(plane *obs.Plane) {
	led := plane.Ledger()
	if led == nil || !plane.Config().Metrics {
		return
	}
	reg := plane.Registry()
	for _, in := range led.Snapshot() {
		if in.State != obs.IncidentClosed && in.State != obs.IncidentAborted {
			continue
		}
		key := in.Class + "-" + in.Kind
		reg.Hist("incident.detect_ns." + key).Record(in.DetectLatency())
		reg.Hist("incident.mttr_ns." + key).Record(in.MTTR())
	}
}
