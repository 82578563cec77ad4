package serve

import "repro/internal/obs"

// metrics is a Service's one record of every serving quantity: its own
// obs.Registry, which Stats() reads for /stats and oniond writes after
// obs.Default for /metrics, so the two endpoints are views of the same
// counters. Label children are resolved once in newMetrics, so the hot
// paths touch only pre-looked-up atomics; every update is per-request
// (never per row), and with obs.SetEnabled(false) each mutation is a
// single atomic load.
type metrics struct {
	reg *obs.Registry

	dur       [OutcomeShed + 1]*obs.Histogram // query latency, by Outcome
	queueWait *obs.Histogram

	hits, negHits, diskHits, misses, coalesced, evictions, demotions *obs.Counter
	rungFull, rungDegraded, rungMin                                  *obs.Counter

	spilled, mutations, shed, diskFaults, breakerTrips *obs.Counter
	breakerState                                       *obs.Gauge
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	dur := reg.HistogramVec(
		"onion_serve_query_seconds",
		"Service query latency by outcome (hit, coalesced, miss, queued, shed), parse/validate errors included under the outcome they returned.",
		"outcome", obs.LatencyBuckets)
	events := reg.CounterVec(
		"onion_serve_cache_events_total",
		"Result-cache tier events: hit (memory), negative_hit, disk_hit, miss (executed), coalesced, eviction, demotion.",
		"event")
	rungs := reg.CounterVec(
		"onion_serve_admission_grants_total",
		"Admissions by degradation-ladder rung: full (the ask fit), degraded (halved below the ask), min (floored at the minimum grant).",
		"rung")
	m := &metrics{
		reg: reg,
		queueWait: reg.Histogram(
			"onion_serve_queue_wait_seconds",
			"Admission-queue wait per queued singleflight leader, admitted and expired waits alike. Supersedes the lossy stats queue_wait_ns sum for latency analysis.",
			obs.LatencyBuckets),

		hits:      events.With("hit"),
		negHits:   events.With("negative_hit"),
		diskHits:  events.With("disk_hit"),
		misses:    events.With("miss"),
		coalesced: events.With("coalesced"),
		evictions: events.With("eviction"),
		demotions: events.With("demotion"),

		rungFull:     rungs.With("full"),
		rungDegraded: rungs.With("degraded"),
		rungMin:      rungs.With("min"),

		spilled: reg.Counter(
			"onion_serve_spilled_queries_total",
			"Executed queries whose joins degraded to grace-hash spilling under a memory limit."),
		mutations: reg.Counter(
			"onion_serve_mutations_total",
			"Facts inserted through the service (duplicates and facts after a failing one excluded)."),
		shed: reg.Counter(
			"onion_serve_shed_total",
			"Requests refused by admission control: immediate sheds and expired queue waits."),
		diskFaults: reg.Counter(
			"onion_serve_disk_faults_total",
			"Failed disk-tier I/O attempts, retried ones included; corrupt entries excluded."),
		breakerTrips: reg.Counter(
			"onion_serve_breaker_trips_total",
			"Times repeated disk-tier faults opened the circuit breaker."),
		breakerState: reg.Gauge(
			"onion_serve_breaker_state",
			"Disk-tier circuit breaker state: 0 closed (healthy), 1 probing, 2 open (tier degraded to memory-only)."),
	}
	for o := range m.dur {
		m.dur[o] = dur.With(Outcome(o).String())
	}
	return m
}
