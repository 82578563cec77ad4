package main

import (
	"encoding/json"
	"time"
)

// layerSums accumulates the traced pass: wall-clock time charged to
// each layer, and the execution counters of the answers that ran the
// engine (outcome "miss"; a cached answer repeats the counters of the
// execution that filled the cache, and did none of that work itself).
type layerSums struct {
	roots    []*span
	queries  int                // traced answers decoded
	executed int                // of those, answers the engine executed
	ns       map[string]float64 // layer metric → nanoseconds charged
	wallNs   float64            // summed client.request durations
	stats    map[string]float64 // summed engine counters of executed answers
	planHits int
	rows     int // rows returned by all decoded answers
	execRows int // rows returned by executed answers
}

// readTraces decodes the traced answers that were held back. Each is
// checked like an untraced one (outcome and rows), wrapped in the
// client's own span, and charged to layers.
func readTraces(p *loadPlan, held []kept, res *result) *layerSums {
	l := &layerSums{ns: map[string]float64{}, stats: map[string]float64{}}
	for _, h := range held {
		var reply queryReply
		if json.Unmarshal(h.payload, &reply) != nil || !p.outcomes[reply.Outcome] || !reply.matches(p.reqs[h.req].want) {
			res.Failed++
			continue
		}
		l.queries++
		l.rows += len(reply.Rows)
		if reply.Outcome == "miss" {
			l.executed++
			l.execRows += len(reply.Rows)
			for name, v := range reply.Stats {
				switch v := v.(type) {
				case float64:
					l.stats[name] += v
				case bool:
					if name == "PlanCacheHit" && v {
						l.planHits++
					}
				}
			}
		}
		if reply.Trace == nil {
			continue
		}
		// The daemon's tree counts from its own root; it is placed at
		// the start of the client's span, since neither clock knows the
		// lead of the request on the wire. Only durations are summed.
		root := &span{Name: "client.request", DurNs: int64(h.lat), Children: []*span{reply.Trace}}
		root.Attrs = []attr{{"request", p.reqs[h.req].text}}
		attribute(root, l.ns)
		l.wallNs += float64(h.lat)
		l.roots = append(l.roots, root)
	}
	return l
}

// report writes the per-layer metrics the traced pass supports. Times
// are milliseconds of wall clock per traced query; they sum to
// client.traced_request_ms.
func (l *layerSums) report(rep report, memLimit int64) {
	traced := len(l.roots)
	if traced > 0 {
		rep.set("client.traced_request_ms", l.wallNs/float64(traced)/1e6, traced)
		for layer, ns := range l.ns {
			rep.set(layer, ns/float64(traced)/1e6, traced)
		}
	}
	if l.queries == 0 {
		return
	}
	perQuery := func(metric string, counters ...string) {
		var sum float64
		for _, c := range counters {
			sum += l.stats[c]
		}
		rep.set(metric, sum/float64(l.queries), l.queries)
	}
	perQuery("query.expanded_terms_per_query", "ExpandedTerms")
	perQuery("query.conversions_per_query", "Conversions")
	perQuery("query.joined_rows_per_query", "JoinedRows")
	perQuery("query.batches_per_query", "Batches")
	perQuery("query.spilled_partitions_per_query", "SpilledPartitions")
	perQuery("query.spilled_bytes_per_query", "SpilledBytes")
	perQuery("query.hybrid_joins_per_query", "HybridJoins")
	perQuery("query.projection_spills_per_query", "ProjectionSpills")
	rep.set("query.result_rows_per_query", float64(l.rows)/float64(l.queries), l.queries)
	if l.executed == 0 {
		return
	}
	rep.set("query.plan_cache_hit_ratio", float64(l.planHits)/float64(l.executed), l.executed)
	rep.set("query.bytes_reserved_per_query", l.stats["BytesReserved"]/float64(l.executed), l.executed)
	if memLimit > 0 {
		rep.set("query.reserved_over_limit", l.stats["BytesReserved"]/float64(l.executed)/float64(memLimit), l.executed)
	}
	if l.execRows > 0 {
		rep.set("query.rows_examined_per_row", (l.stats["FactRows"]+l.stats["EdgeRows"])/float64(l.execRows), l.executed)
	}
}

// clientMetrics reports the benchmark's own view of the run: how many
// samples the percentiles rest on, the tail it does not gate on, how
// punctual the open-loop generator was, and what tracing cost.
func clientMetrics(rep report, win window, lats, tracedLats, mutLats []time.Duration) {
	n := len(lats)
	rep.set("client.samples", float64(n), n)
	rep.set("client.query_p99_ms", ms(percentile(lats, 99)), n)
	rep.set("client.query_max_ms", ms(percentile(lats, 100)), n)
	var lags []time.Duration
	var size, oks float64
	for _, s := range win.samples {
		lags = append(lags, s.lag)
		if s.ok {
			size += float64(s.bytes)
			oks++
		}
	}
	rep.set("client.sched_lag_p95_ms", ms(percentile(sortedCopy(lags), 95)), len(lags))
	if oks > 0 {
		rep.set("oniond.resp_bytes_per_query", size/oks, int(oks))
	}
	if len(mutLats) > 0 {
		rep.set("client.mutate_p50_ms", ms(percentile(mutLats, 50)), len(mutLats))
		rep.set("client.mutate_p90_ms", ms(percentile(mutLats, 90)), len(mutLats))
	}
	if n > 0 && len(tracedLats) > 0 {
		plain, traced := percentile(lats, 50), percentile(tracedLats, 50)
		rep.set("oniond.trace_overhead_pct", 100*(float64(traced)/float64(plain)-1), len(tracedLats))
	}
}

// daemonMetrics reports what the daemon's own counters say about the
// untraced window: allocation per operation, and where the result cache
// answered from.
func daemonMetrics(rep report, before, after counters, ops int) {
	if ops > 0 {
		rep.set("oniond.allocs_per_op", (after.mallocs-before.mallocs)/float64(ops), ops)
		rep.set("oniond.alloc_bytes_per_op", (after.allocated-before.allocated)/float64(ops), ops)
	}
	delta := func(name string) float64 { return after.serve[name] - before.serve[name] }
	lookups := delta("cache_hits") + delta("negative_hits") + delta("disk_hits") + delta("coalesced") + delta("cache_misses")
	if lookups > 0 {
		rep.set("serve.cache_hit_ratio", delta("cache_hits")/lookups, int(lookups))
		rep.set("serve.disk_hit_ratio", delta("disk_hits")/lookups, int(lookups))
		rep.set("serve.coalesced_ratio", delta("coalesced")/lookups, int(lookups))
	}
	rep.set("serve.cache_misses", delta("cache_misses"), int(lookups))
	rep.set("serve.evictions", delta("evictions"), int(lookups))
	rep.set("serve.disk_demotions", delta("disk_demotions"), int(lookups))
}
