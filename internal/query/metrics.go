package query

import "repro/internal/obs"

// Package-wide executor metrics, registered on obs.Default and exposed
// by oniond's /metrics. Every update happens once per planned execution
// (recordQueryMetrics), never per row or per tuple batch, so the
// instrumented path adds no per-row allocations (TestTracingOffAllocs).
var (
	qmExecutions = obs.Default.CounterVec(
		"onion_query_executions_total",
		"Planned query executions completed successfully, by plan-cache outcome.",
		"cache")
	qmSpillRuns = obs.Default.Counter(
		"onion_query_spill_runs_total",
		"Spill runs created: join build and probe runs, and projection runs.")
	qmSpilledBytes = obs.Default.Counter(
		"onion_query_spilled_bytes_total",
		"Bytes written to spill runs (join and projection), record framing included.")
	qmSpilledPartitions = obs.Default.Counter(
		"onion_query_spilled_partitions_total",
		"Join partitions that spilled tuples to disk under a memory limit.")
	qmJoinPartitions = obs.Default.Histogram(
		"onion_query_join_partitions",
		"Hash partitions used by an execution's widest partitioned join step.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	qmBudgetPeak = obs.Default.Histogram(
		"onion_query_budget_peak_bytes",
		"Peak accounted memory-budget bytes per execution (0 when the path does not account).",
		[]float64{1 << 10, 16 << 10, 256 << 10, 1 << 20, 16 << 20, 256 << 20, 1 << 30})
)

// recordQueryMetrics folds one successful planned execution's stats
// into the package metrics.
func recordQueryMetrics(st *Stats) {
	cache := "compiled"
	if st.PlanCacheHit {
		cache = "hit"
	}
	qmExecutions.With(cache).Inc()
	qmSpillRuns.Add(uint64(st.SpillRuns))
	qmSpilledBytes.Add(uint64(st.SpilledBytes))
	qmSpilledPartitions.Add(uint64(st.SpilledPartitions))
	widest := 0
	for _, p := range st.StepPartitions {
		widest = max(widest, p)
	}
	qmJoinPartitions.Observe(float64(widest))
	qmBudgetPeak.Observe(float64(st.BytesReserved))
}
