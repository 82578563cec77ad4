package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/query"
)

// e15Cap is the default execution budget of the E15 bounded-memory world:
// the E13 deep chain at full depth, executed under a memory cap far below
// the unbounded build-table footprint so the grace-hash spill path
// carries the join. The unbounded run's accounted peak on this world is
// several times larger, so the cap forces spilling while leaving the
// per-partition reservations big enough that only the oversized builds
// degrade.
const e15Cap = int64(8 << 20)

// e15Result is one measured leg pair, shared by the table and the shape
// test.
type e15Result struct {
	cap            int64
	rows           int
	unboundedPeak  int64
	unbounded      time.Duration
	capped         time.Duration
	cappedPeak     int64
	spilledParts   int
	spillRuns      int
	adaptiveSteps  int
	identical      bool
	slowdown       float64
	peakUnderCap   bool
	forcedSpilling bool
}

// runE15 measures the depth-5 chain world unbounded vs. capped, best of
// reps with a GC between runs (the E13 methodology), and diffs the
// capped rows against both the unbounded pipeline and the sequential
// reference.
func runE15(cap int64) e15Result {
	const depth = 5
	const reps = 3
	eng, q := buildChainWorld(chainSources, chainInstances, depth, chainDup)
	unbounded := query.Options{Workers: chainWorkers}
	capped := query.Options{Workers: chainWorkers, MemoryLimit: cap}

	best := func(opts query.Options) (*query.Result, time.Duration) {
		res, err := eng.ExecuteWith(q, opts) // cold run compiles the plan
		if err != nil {
			panic(err)
		}
		d := time.Duration(math.MaxInt64)
		for i := 0; i < reps; i++ {
			runtime.GC()
			di := timeIt(func() {
				if res, err = eng.ExecuteWith(q, opts); err != nil {
					panic(err)
				}
			})
			if di < d {
				d = di
			}
		}
		return res, d
	}
	resUn, dUn := best(unbounded)
	resCap, dCap := best(capped)
	resSeq, err := eng.ExecuteWith(q, query.Options{Sequential: true})
	if err != nil {
		panic(err)
	}

	r := e15Result{
		cap:            cap,
		rows:           len(resCap.Rows),
		unboundedPeak:  resUn.Stats.BytesReserved,
		unbounded:      dUn,
		capped:         dCap,
		cappedPeak:     resCap.Stats.BytesReserved,
		spilledParts:   resCap.Stats.SpilledPartitions,
		spillRuns:      resCap.Stats.SpillRuns,
		adaptiveSteps:  resCap.Stats.AdaptivePartitions,
		identical:      resCap.EqualRows(resUn) && resCap.EqualRows(resSeq),
		peakUnderCap:   resCap.Stats.BytesReserved <= cap,
		forcedSpilling: resCap.Stats.SpilledPartitions > 0,
	}
	if dUn > 0 {
		r.slowdown = float64(dCap) / float64(dUn)
	}
	return r
}

// E15BoundedMemory measures memory-governed execution: the 32-source
// deep chain under a byte cap that undercuts the unbounded build-table
// footprint, so every oversized join partition degrades to a grace-hash
// spilling join. The capped leg must return byte-identical rows
// (EqualRows against both the unbounded pipeline and the sequential
// reference) and keep its accounted peak under the cap. The wall-clock
// slowdown against the unbounded run (disk I/O and the extra
// encode/decode pass, the honest cost of bounding memory) is reported,
// not gated: 1.5–2.2x on a 2-CPU box.
func E15BoundedMemory(caps []int64) *Table {
	if caps == nil {
		caps = []int64{e15Cap}
	}
	t := &Table{
		ID:    "E15",
		Title: "bounded-memory execution — grace-hash spilling under a byte cap",
		Columns: []string{"cap MB", "rows", "unbounded ms", "capped ms", "slowdown",
			"unbounded peak MB", "capped peak MB", "under cap", "spilled parts", "spill runs", "identical"},
		Notes: []string{
			fmt.Sprintf("E13 world at depth 5: %d sources, %d instances/source, frontier widens %dx per join; %d workers, planner-derived partitions",
				chainSources, chainInstances, chainDup, chainWorkers),
			"capped leg runs with Options{MemoryLimit}: join partitions that cannot reserve from the shared pool spill build+probe to temp-file runs (rowkey wire format) and join from disk in budget-sized build chunks",
			"bar: accounted peak under the cap, rows EqualRows-identical to unbounded and sequential; the slowdown column is reported, not gated",
			"both legs best-of-reps with a GC between runs (the E13 methodology)",
		},
	}
	for _, cap := range caps {
		r := runE15(cap)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", float64(r.cap)/(1<<20)),
			fmt.Sprintf("%d", r.rows),
			ms(r.unbounded), ms(r.capped),
			fmt.Sprintf("%.2fx", r.slowdown),
			fmt.Sprintf("%.1f", float64(r.unboundedPeak)/(1<<20)),
			fmt.Sprintf("%.1f", float64(r.cappedPeak)/(1<<20)),
			okMark(r.peakUnderCap),
			fmt.Sprintf("%d", r.spilledParts),
			fmt.Sprintf("%d", r.spillRuns),
			okMark(r.identical),
		})
	}
	return t
}
