package query

import (
	"context"
	"runtime"

	"repro/internal/kb"
	"repro/internal/query/mem"
)

// This file is the planned execution entry point plus the row-major
// tuple the grace-hash spill runs (spill.go) encode and replay. Every
// compiled plan — one step or many, keyed chain or cross product, one
// worker or a pool — runs the columnar batch pipeline (batchpipe.go);
// Options{Sequential} is the only other path. The compiled plan assigns
// every query variable a fixed slot (plan.go), and joins key on the
// precomputed slot lists — no shared-variable re-derivation over row
// sets, no formatted string keys, no per-row map copies.

// tuple is one row-major execution row: a fixed-width value vector
// indexed by plan slot, the spill runs' record currency. Slots not bound
// at the point a row was spilled hold the zero Value and are never read
// — which slots are bound is a plan-level property, uniform across all
// rows at a given step, so tuples carry no per-row bound mask.
type tuple []kb.Value

// tupleArena hands out fixed-width tuples from shared blocks of
// spillDecodeBlock rows — one allocation per block instead of one per
// decoded record. An arena belongs to a single goroutine, so an abandoned
// next() can safely reuse its memory: the next row writes the same slot
// set before any slot is read.
type tupleArena struct {
	width int
	block []kb.Value
}

// next returns the arena's pending tuple without committing it.
func (a *tupleArena) next() tuple {
	if len(a.block) < a.width {
		//lint:onion-ignore decode blocks are spillDecodeBlock rows; a consumer that retains decoded tuples charges them itself (chunkedJoin reserves tupleCost per table row)
		a.block = make([]kb.Value, a.width*spillDecodeBlock)
	}
	return a.block[:a.width:a.width]
}

// commit finalises the pending tuple; the next next() returns fresh
// memory.
func (a *tupleArena) commit() { a.block = a.block[a.width:] }

// keySlotsEqual verifies a hash match between two spilled tuples: true
// when they agree on every key slot under the engine's join equality —
// sameCell: kind-strict, string payloads byte-equal, and for numbers
// float bit equality with every NaN in one class (NaN joins NaN, and +0
// does not join -0).
func keySlotsEqual(l, r tuple, slots []int) bool {
	for _, s := range slots {
		if !sameCell(l[s], r[s]) {
			return false
		}
	}
	return true
}

// resolveWorkers turns the Workers option into a concrete pool size.
func resolveWorkers(opts Options) int {
	if opts.Workers > 0 {
		return opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// executePlanned is the planned execution path: compiled (cached) plan,
// per-source scans fanned out to a bounded worker pool, hash joins in
// selectivity order streaming into each other, filters applied as soon
// as their variable is bound, all charged to one per-query memory budget.
func (e *Engine) executePlanned(ctx context.Context, q Query, opts Options) (*Result, error) {
	ps := opts.Trace.Child("plan")
	plan, hit := e.cachedPlan(q)
	if hit {
		ps.SetAttr("cache", "hit")
	} else {
		ps.SetAttr("cache", "compiled")
	}
	ps.SetInt("steps", int64(len(plan.steps)))
	ps.SetInt("est_rows", int64(plan.totalEst))
	ps.End()
	res := &Result{Vars: q.Select}
	st := &res.Stats
	st.PlanCacheHit = hit
	st.ReorderedTriples = plan.reordered
	st.Workers = 1
	st.accrue(plan.expand)
	// The per-query memory budget: every executor component charges it
	// (batches, build tables, pending probe queues, projection sets,
	// spill buffers), and under Options{MemoryLimit} the joins and the
	// projection degrade to spill runs rather than outgrow it.
	bud := mem.New(opts.MemoryLimit)
	err := e.executeBatched(ctx, q, plan, opts, bud, res)
	st.BytesReserved = bud.Peak()
	if err != nil {
		return nil, err
	}
	recordQueryMetrics(st)
	return res, nil
}
