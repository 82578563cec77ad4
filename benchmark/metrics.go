package main

import (
	"math"
	"slices"
	"time"
)

// metricDef names one reported number. The two tables below are the
// benchmark's contract and BENCHMARK.json repeats them; a test keeps
// the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the base by which it may worsen
}

// End-to-end metrics: what a user of oniond sees on each workload.
// Every workload reports every one of them, from an untraced window.
//
// The bounds follow the measured run-to-run spread, not a wish: on the
// 2-vCPU sandbox ten seeds spread 2–10% (quartile distance over median)
// in a quiet stretch and up to 15% in a noisy one, and the whole box
// drifts by up to 18% between stretches, so every bound sits at the
// 25% the contract allows. README.md has the tables.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// Per-layer metrics, by module. They come from a separate traced run
// and carry no bound. A metric that does not apply to a workload reads
// 0 there, which is itself the claim that the layer stayed idle.
var perLayer = []metricDef{
	{"client.samples", "count", "higher", 0},
	{"client.query_p99_ms", "ms", "lower", 0},
	{"client.query_max_ms", "ms", "lower", 0},
	{"client.sched_lag_p95_ms", "ms", "lower", 0},
	{"client.traced_request_ms", "ms", "lower", 0},
	{"client.mutate_p50_ms", "ms", "lower", 0},
	{"client.mutate_p90_ms", "ms", "lower", 0},
	{"oniond.http_self_ms", "ms", "lower", 0},
	{"oniond.resp_bytes_per_query", "B", "lower", 0},
	{"oniond.allocs_per_op", "count", "lower", 0},
	{"oniond.alloc_bytes_per_op", "B", "lower", 0},
	{"oniond.trace_overhead_pct", "%", "lower", 0},
	{"serve.request_self_ms", "ms", "lower", 0},
	{"serve.cache_hit_ms", "ms", "lower", 0},
	{"serve.coalesce_wait_ms", "ms", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.disk_hit_ratio", "ratio", "higher", 0},
	{"serve.coalesced_ratio", "ratio", "higher", 0},
	{"serve.cache_misses", "count", "lower", 0},
	{"serve.evictions", "count", "lower", 0},
	{"serve.disk_demotions", "count", "lower", 0},
	{"query.parse_us", "us", "lower", 0},
	{"query.validate_ms", "ms", "lower", 0},
	{"query.plan_ms", "ms", "lower", 0},
	{"query.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"query.scan_ms", "ms", "lower", 0},
	{"query.rows_examined_per_row", "ratio", "lower", 0},
	{"query.expanded_terms_per_query", "count", "lower", 0},
	{"query.conversions_per_query", "count", "lower", 0},
	{"query.join_ms", "ms", "lower", 0},
	{"query.joined_rows_per_query", "count", "lower", 0},
	{"query.batches_per_query", "count", "lower", 0},
	{"query.spill_ms", "ms", "lower", 0},
	{"query.spilled_partitions_per_query", "count", "lower", 0},
	{"query.spilled_bytes_per_query", "B", "lower", 0},
	{"query.hybrid_joins_per_query", "count", "lower", 0},
	{"query.projection_spills_per_query", "count", "lower", 0},
	{"query.bytes_reserved_per_query", "B", "lower", 0},
	{"query.reserved_over_limit", "ratio", "lower", 0},
	{"query.project_ms", "ms", "lower", 0},
	{"query.result_rows_per_query", "count", "lower", 0},
	{"query.execute_self_ms", "ms", "lower", 0},
	{"kb.add_us_per_fact", "us", "lower", 0},
	{"persist.append_us_per_fact", "us", "lower", 0},
	{"persist.log_bytes_per_fact", "B", "lower", 0},
	{"persist.data_dir_mb", "MB", "lower", 0},
	{"persist.recover_ms", "ms", "lower", 0},
	{"persist.first_query_ms", "ms", "lower", 0},
	{"persist.snapshot_ms", "ms", "lower", 0},
	{"core.addfacts_ms_per_batch", "ms", "lower", 0},
	{"articulation.generate_ms", "ms", "lower", 0},
}

// metric is one reported value. Samples is how many observations a
// timing rests on; the driver's result line leaves it out.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report collects a run's values by metric name.
type report map[string]metric

func (r report) set(name string, value float64, samples int) {
	if !slices.ContainsFunc(endToEnd, func(d metricDef) bool { return d.name == name }) &&
		!slices.ContainsFunc(perLayer, func(d metricDef) bool { return d.name == name }) {
		panic("benchmark: metric " + name + " is in neither table")
	}
	r[name] = metric{Value: value, Samples: samples}
}

// only keeps the metrics of one table, gives each its unit, and makes
// the ones the workload left unset read 0.
func (r report) only(defs []metricDef) report {
	out := make(report, len(defs))
	for _, d := range defs {
		m := r[d.name]
		m.Unit = d.unit
		out[d.name] = m
	}
	return out
}

// percentile is the nearest-rank percentile of ascending samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// tailPercentile is the highest percentile of the ladder that still has
// at least ten of n samples beyond it — the highest one worth
// reporting. It is 0 when not even the median qualifies.
func tailPercentile(n int) float64 {
	for _, permille := range []int{999, 990, 950, 900, 750, 500} {
		if n*(1000-permille)/1000 >= 10 {
			return float64(permille) / 10
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedCopy(ds []time.Duration) []time.Duration {
	out := slices.Clone(ds)
	slices.Sort(out)
	return out
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
