package query

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/query/mem"
)

// This file is the planned execution entry point and the per-step tuple
// executor: the path the planner picks when the batch pipeline
// (batchpipe.go) cannot or should not run — a single worker, a single
// step, a disconnected cross product, or a shallow chain too small to
// repay the pipeline's setup (plan.pipelines). The compiled plan assigns
// every query variable a fixed slot (plan.go), scans emit flat []kb.Value
// tuples, and joins key on the precomputed slot lists — no shared-variable
// re-derivation over row sets, no formatted string keys, no per-row map
// copies. When the worker pool is larger than one, each keyed join is
// hash-partitioned across the pool and scan output streams into the probe
// workers in batches, so probing starts while slower sources are still
// scanning.

// tuple is one execution row: a fixed-width value vector indexed by plan
// slot. Slots not yet bound after the current step hold the zero Value
// and are never read — which slots are bound is a plan-level property,
// uniform across all tuples at a given step, so tuples carry no
// per-row bound mask.
type tuple []kb.Value

// arenaBlock is how many tuples a tupleArena carves from one allocation;
// budgetedArenaBlock is the smaller block used under Options{MemoryLimit}
// so the fixed (non-spillable) working set stays well below the cap.
const (
	arenaBlock         = 256
	budgetedArenaBlock = 16
)

// tupleArena hands out fixed-width tuples from shared blocks: one
// allocation per block of rows instead of one per row. An arena belongs
// to a single goroutine and a single step, so an abandoned next() (a
// repeated-variable rejection) can safely reuse its memory — the next
// row writes the same slot set before any slot is read.
type tupleArena struct {
	width int
	block []kb.Value
	// blockTuples overrides the tuples carved per allocation (0 =
	// arenaBlock).
	blockTuples int
	// bud, when non-nil, is charged for the arena's *current* block and
	// released when the block rotates or the arena closes. Handed-off
	// tuples' retention is the consumer's ledger (build tables, pending
	// probe queues, projection sets, spill runs), so the arena accounts
	// only the block it is still filling.
	bud     *mem.Budget
	charged int64
}

// newArena returns an arena charged to the execution budget; blocks
// shrink under a memory limit so the fixed working set stays small.
func newArena(width int, bud *mem.Budget) *tupleArena {
	bt := 0
	if bud.Limit() > 0 {
		bt = budgetedArenaBlock
	}
	return &tupleArena{width: width, blockTuples: bt, bud: bud}
}

// next returns the arena's pending tuple without committing it. All slots
// are zero except any written by a previously abandoned row, which are a
// subset of the slots the caller is about to write.
func (a *tupleArena) next() tuple {
	if len(a.block) < a.width {
		bt := a.blockTuples
		if bt == 0 {
			bt = arenaBlock
		}
		a.bud.Release(a.charged)
		a.charged = int64(a.width*bt) * valueBytes
		a.bud.MustReserve(a.charged)
		a.block = make([]kb.Value, a.width*bt)
	}
	return a.block[:a.width:a.width]
}

// commit finalises the pending tuple; the next next() returns fresh
// memory.
func (a *tupleArena) commit() { a.block = a.block[a.width:] }

// close releases the charge for the arena's current block.
func (a *tupleArena) close() {
	a.bud.Release(a.charged)
	a.charged = 0
}

// appendSlotKey appends a collision-free join-key encoding of the key
// slots to buf — appendValueKey (rowkey.go) per slot, the same encoding
// the projection dedups and sorts on. Like Value.Equal (and unlike
// Format), the encoding is kind-strict — Term("3000") and Number(3000)
// must not join — and the escape/terminator framing keeps payloads
// containing separator bytes unambiguous.
func appendSlotKey(buf []byte, tup tuple, slots []int) []byte {
	for _, s := range slots {
		buf = appendValueKey(buf, tup[s])
	}
	return buf
}

// hashKey is FNV-1a over the encoded join key; it keys the join hash
// tables and routes tuples to join partitions. Hash collisions are
// resolved by keySlotsEqual at probe time, so no per-row key string is
// ever materialised.
func hashKey(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// keySlotsEqual verifies a hash match: true when the two tuples agree on
// every key slot under the engine's join equality — sameCell, the
// equality appendValueKey encodes: kind-strict, string payloads
// byte-equal, and for numbers float bit equality with every NaN in one
// class (NaN joins NaN, and +0 does not join -0).
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

// partsForBuild sizes the per-step path's hash-partition count from the
// accumulated frontier's actual cardinality — on this path the frontier
// *is* the build side (the pipeline sizes from the planner's scan
// estimate instead, because its build side is the step's own scan
// output). Never below the worker pool — a small-scan step of a
// wide-frontier chain must not serialise its probe workers — and at
// most 4x the pool, like the planner's hints.
func partsForBuild(buildRows int, opts Options, workers int) int {
	if opts.Partitions > 0 {
		return opts.Partitions
	}
	p := (buildRows + partitionRowTarget - 1) / partitionRowTarget
	if p < workers {
		p = workers
	}
	if lim := 4 * workers; p > lim {
		p = lim
	}
	return p
}

// executePlanned is the planned execution path: compiled (cached) plan,
// per-source scans fanned out to a bounded worker pool, hash joins in
// selectivity order, filters applied as soon as their variable is bound,
// all charged to one per-query memory budget.
func (e *Engine) executePlanned(ctx context.Context, q Query, opts Options) (*Result, error) {
	var ps *obs.Span
	if opts.Trace != nil {
		ps = opts.Trace.Child("plan")
	}
	plan, hit := e.cachedPlan(q)
	if ps != nil {
		if hit {
			ps.SetAttr("cache", "hit")
		} else {
			ps.SetAttr("cache", "compiled")
		}
		ps.SetInt("steps", int64(len(plan.steps)))
		ps.SetInt("est_rows", int64(plan.totalEst))
		ps.End()
	}
	res := &Result{Vars: q.Select}
	st := &res.Stats
	st.PlanCacheHit = hit
	st.ReorderedTriples = plan.reordered
	st.Workers = 1
	st.accrue(plan.expand)
	// The per-query memory budget: every executor component charges it
	// (batches, arenas, build tables, pending probe queues, projection
	// sets, spill buffers), and under Options{MemoryLimit} the pipelined
	// joins degrade to grace-hash spills rather than outgrow it.
	bud := mem.New(opts.MemoryLimit)
	err := e.executeTuples(ctx, q, plan, opts, bud, res)
	st.BytesReserved = bud.Peak()
	if err != nil {
		return nil, err
	}
	recordQueryMetrics(st)
	return res, nil
}

// executeTuples runs the compiled plan. When plan.pipelines says so (more
// than one worker, a keyed join chain, enough volume or a memory limit)
// it hands off to the batch pipeline (batchpipe.go); otherwise it runs
// the per-step path on slot tuples, where each join step materialises its
// output before the next step's scans dispatch — so an empty join
// short-circuits the remaining steps' scan work just like the sequential
// path.
func (e *Engine) executeTuples(ctx context.Context, q Query, plan *execPlan, opts Options, bud *mem.Budget, res *Result) error {
	st := &res.Stats
	width := len(plan.slotNames)
	workers := resolveWorkers(opts)
	if plan.pipelines(opts, workers) {
		return e.executeBatched(ctx, q, plan, opts, bud, res)
	}

	var rows []tuple
	bound := make(map[string]bool)
	applied := make([]bool, len(q.Filters))
	stepParts := make([]int, 0, len(plan.steps))
	st.StepRows = make([]int, 0, len(plan.steps))
	st.StepDurNs = make([]int64, 0, len(plan.steps))
	tr := opts.Trace
	// The per-step path materialises the frontier between steps by
	// construction; the budget accounts it (release the previous step's
	// frontier, charge the new one) but only the pipeline can spill.
	var frontierCharge int64
	defer func() { bud.Release(frontierCharge) }()
	chargeFrontier := func() {
		bud.Release(frontierCharge)
		frontierCharge = int64(len(rows)) * tupleCost(width)
		bud.MustReserve(frontierCharge)
	}
	for si := range plan.steps {
		if err := ctx.Err(); err != nil {
			return err
		}
		stp := &plan.steps[si]
		var span *obs.Span
		if tr != nil {
			span = tr.Child("step " + strconv.Itoa(si+1) + ": " + stp.triple.String())
			span.SetInt("est_rows", int64(stp.est))
		}
		stepT0 := time.Now()
		// Every (triple, source) pair counts as a source scan, skipped
		// or not, matching the sequential accounting.
		st.SourceScans += len(stp.scans)
		var tasks []int
		for j, sc := range stp.scans {
			if !sc.view.skip {
				tasks = append(tasks, j)
			}
		}
		switch {
		case si == 0:
			rows = e.gatherScans(ctx, stp, width, workers, tasks, bud, st, span)
			stepParts = append(stepParts, 0)
		case len(stp.keySlots) == 0:
			right := e.gatherScans(ctx, stp, width, workers, tasks, bud, st, span)
			rows = crossJoinTuples(rows, right, stp, width, bud)
			stepParts = append(stepParts, 0)
		case workers > 1 && len(tasks) > 0:
			parts := partsForBuild(len(rows), opts, workers)
			if opts.Partitions == 0 {
				st.AdaptivePartitions++
			}
			rows = e.joinStreamed(ctx, rows, stp, width, workers, parts, tasks, bud, st, span)
			stepParts = append(stepParts, parts)
		default:
			rows = e.joinInline(ctx, rows, stp, width, tasks, bud, st, span)
			stepParts = append(stepParts, 0)
		}
		for _, v := range stp.vars {
			bound[v] = true
		}
		rows = applyTupleFilters(rows, q.Filters, plan, applied, bound)
		chargeFrontier()
		st.StepRows = append(st.StepRows, len(rows))
		st.StepDurNs = append(st.StepDurNs, time.Since(stepT0).Nanoseconds())
		if span != nil {
			span.SetInt("rows", int64(len(rows)))
			span.End()
		}
		if len(rows) == 0 {
			break
		}
	}
	// A cancellation that landed mid-step left the frontier partial;
	// report the error rather than a truncated result.
	if err := ctx.Err(); err != nil {
		return err
	}
	if st.JoinPartitions > 0 {
		st.StepPartitions = stepParts
	}
	st.JoinedRows = len(rows)
	var span *obs.Span
	if tr != nil {
		span = tr.Child("project")
	}
	projectTuples(res, rows, q, plan, bud)
	if span != nil {
		span.SetInt("rows", int64(len(res.Rows)))
		span.End()
	}
	return nil
}

// runScanTasks executes the step's live scans — inline, or fanned out on
// a bounded worker pool — giving each task a private Stats merged in
// source order afterwards, so the counters are deterministic under any
// scheduling. A cancelled context stops dispatch between tasks (the
// per-request deadline hook); the caller detects the cancellation via
// ctx.Err() and discards the partial output. When sp is non-nil each
// scan records a child span under it (the scan fan-out in the trace).
func (e *Engine) runScanTasks(ctx context.Context, stp *planStep, tasks []int, workers int, st *Stats, sp *obs.Span, run func(j int, ts *Stats)) {
	if sp != nil {
		inner := run
		run = func(j int, ts *Stats) {
			c := sp.Child("scan " + stp.scans[j].name)
			inner(j, ts)
			c.SetInt("rows", int64(ts.EdgeRows+ts.FactRows))
			c.End()
		}
	}
	taskStats := make([]Stats, len(stp.scans))
	w := workers
	if w > len(tasks) {
		w = len(tasks)
	}
	if w <= 1 {
		for _, j := range tasks {
			if ctx.Err() != nil {
				break
			}
			run(j, &taskStats[j])
		}
	} else {
		if w > st.Workers {
			st.Workers = w
		}
		st.ParallelScans += len(tasks)
		jobs := make(chan int)
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					run(j, &taskStats[j])
				}
			}()
		}
		for _, j := range tasks {
			if ctx.Err() != nil {
				break
			}
			jobs <- j
		}
		close(jobs)
		wg.Wait()
	}
	for j := range stp.scans {
		st.accrue(taskStats[j])
	}
}

// tupleEmit adapts scanMatch's (s, p, o) callback into slot-tuple
// construction for one step: variable positions write their slot on
// first occurrence and enforce equality on repeats ("?x Likes ?x");
// constant positions were already matched by the scan view.
func tupleEmit(stp *planStep, arena *tupleArena, sink func(tuple)) func(s, p, o kb.Value) bool {
	return func(s, p, o kb.Value) bool {
		vals := [3]kb.Value{s, p, o}
		tup := arena.next()
		for i := 0; i < 3; i++ {
			sl := stp.spec[i]
			if sl < 0 {
				continue
			}
			if stp.firstPos[i] {
				tup[sl] = vals[i]
			} else if !tup[sl].Equal(vals[i]) {
				return false
			}
		}
		arena.commit()
		sink(tup)
		return true
	}
}

// gatherScans materialises one step's scan output as tuples (first step,
// and the rare disconnected cross-product step).
func (e *Engine) gatherScans(ctx context.Context, stp *planStep, width, workers int, tasks []int, bud *mem.Budget, st *Stats, sp *obs.Span) []tuple {
	results := make([][]tuple, len(stp.scans))
	e.runScanTasks(ctx, stp, tasks, workers, st, sp, func(j int, ts *Stats) {
		sc := stp.scans[j]
		arena := newArena(width, bud)
		defer arena.close()
		var out []tuple
		e.scanMatch(sc.name, sc.src, stp.triple, sc.view, ts, true,
			tupleEmit(stp, arena, func(t tuple) { out = append(out, t) }))
		results[j] = out
	})
	var all []tuple
	for _, r := range results {
		all = append(all, r...)
	}
	return all
}

// mergeTuple combines a left row with a right row from the current step:
// copy the accumulated slots, then overlay the step's newly bound ones.
func mergeTuple(arena *tupleArena, l, r tuple, newSlots []int) tuple {
	out := arena.next()
	copy(out, l)
	for _, s := range newSlots {
		out[s] = r[s]
	}
	arena.commit()
	return out
}

// crossJoinTuples merges every left tuple with every right tuple — the
// disconnected-query case with no shared slots.
func crossJoinTuples(left, right []tuple, stp *planStep, width int, bud *mem.Budget) []tuple {
	if len(left) == 0 || len(right) == 0 {
		return nil
	}
	arena := newArena(width, bud)
	defer arena.close()
	out := make([]tuple, 0, len(left)*len(right))
	for _, l := range left {
		for _, r := range right {
			out = append(out, mergeTuple(arena, l, r, stp.newSlots))
		}
	}
	return out
}

// joinInline hash-joins the accumulated rows with the step's scan output
// on the precomputed key slots, single-threaded: the left side is indexed
// once by key hash, then every scan-emitted tuple probes it immediately —
// the scan side is never materialised and no key string ever is (hash
// keys plus keySlotsEqual verification).
func (e *Engine) joinInline(ctx context.Context, left []tuple, stp *planStep, width int, tasks []int, bud *mem.Budget, st *Stats, sp *obs.Span) []tuple {
	if len(left) == 0 {
		return nil
	}
	buildCharge := int64(len(left)) * tupleCost(width)
	bud.MustReserve(buildCharge)
	defer bud.Release(buildCharge)
	build := make(map[uint64][]tuple, len(left))
	var buf []byte
	for _, l := range left {
		buf = appendSlotKey(buf[:0], l, stp.keySlots)
		h := hashKey(buf)
		build[h] = append(build[h], l)
	}
	mergeArena := newArena(width, bud)
	defer mergeArena.close()
	var out []tuple
	e.runScanTasks(ctx, stp, tasks, 1, st, sp, func(j int, ts *Stats) {
		sc := stp.scans[j]
		scanArena := newArena(width, bud)
		defer scanArena.close()
		e.scanMatch(sc.name, sc.src, stp.triple, sc.view, ts, true,
			tupleEmit(stp, scanArena, func(r tuple) {
				buf = appendSlotKey(buf[:0], r, stp.keySlots)
				for _, l := range build[hashKey(buf)] {
					if keySlotsEqual(l, r, stp.keySlots) {
						out = append(out, mergeTuple(mergeArena, l, r, stp.newSlots))
					}
				}
			}))
	})
	return out
}

// streamBatch is how many tuples a scan accumulates per partition before
// streaming them to the probe worker.
const streamBatch = 128

// streamedBatch is one batch of scan tuples routed to a join partition,
// carrying the key hashes computed at routing time so probe workers
// never re-encode the keys.
type streamedBatch struct {
	tups   []tuple
	hashes []uint64
}

// hashedTuple pairs a left tuple with its key hash (computed once during
// partitioning, reused to index the partition).
type hashedTuple struct {
	tup  tuple
	hash uint64
}

// joinStreamed is the partitioned, streaming hash join of the per-step
// path: the accumulated left side is split by key hash into parts
// partitions (Options{Partitions}, decoupled from the worker count) and
// indexed concurrently, while the step's scans fan out on the worker pool
// and stream their tuples — routed by the same hash — to per-partition
// probe workers in batches. Probing therefore starts as soon as the first
// batch lands, while slower sources are still scanning; there is no
// barrier between scan and join (the barrier sits between steps; the
// batch pipeline removes that one too). Per-partition outputs are
// concatenated in partition order and per-task counters merge in source
// order, so everything observable is deterministic.
func (e *Engine) joinStreamed(ctx context.Context, left []tuple, stp *planStep, width, workers, parts int, tasks []int, bud *mem.Budget, st *Stats, sp *obs.Span) []tuple {
	if len(left) == 0 {
		return nil
	}
	if st.JoinPartitions < parts {
		st.JoinPartitions = parts
	}
	// The left side is the build table, materialised by construction on
	// this path; account it for the whole join.
	buildCharge := int64(len(left)) * tupleCost(width)
	bud.MustReserve(buildCharge)
	defer bud.Release(buildCharge)
	partCh := make([]chan streamedBatch, parts)
	for p := range partCh {
		partCh[p] = make(chan streamedBatch, 4)
	}

	// Scans start first so sources stream while the left side is being
	// partitioned; buffered channels absorb the head start.
	scansDone := make(chan struct{})
	go func() {
		defer close(scansDone)
		e.runScanTasks(ctx, stp, tasks, workers, st, sp, func(j int, ts *Stats) {
			sc := stp.scans[j]
			arena := newArena(width, bud)
			defer arena.close()
			local := make([]streamedBatch, parts)
			var buf []byte
			batches := 0
			e.scanMatch(sc.name, sc.src, stp.triple, sc.view, ts, true,
				tupleEmit(stp, arena, func(r tuple) {
					buf = appendSlotKey(buf[:0], r, stp.keySlots)
					h := hashKey(buf)
					p := int(h % uint64(parts))
					local[p].tups = append(local[p].tups, r)
					local[p].hashes = append(local[p].hashes, h)
					if len(local[p].tups) >= streamBatch {
						partCh[p] <- local[p]
						local[p] = streamedBatch{}
						batches++
					}
				}))
			for p, b := range local {
				if len(b.tups) > 0 {
					partCh[p] <- b
					batches++
				}
			}
			ts.StreamedBatches += batches
		})
		for _, ch := range partCh {
			close(ch)
		}
	}()

	// Partition the left side in parallel chunks (hashing each key
	// once); each probe worker then indexes its own partition before
	// draining its channel.
	chunks := workers
	if chunks > len(left) {
		chunks = len(left)
	}
	leftParts := make([][][]hashedTuple, chunks) // leftParts[c][p]
	var wgPart sync.WaitGroup
	per := (len(left) + chunks - 1) / chunks
	for c := 0; c < chunks; c++ {
		lo := min(c*per, len(left))
		hi := min(lo+per, len(left))
		wgPart.Add(1)
		go func(c, lo, hi int) {
			defer wgPart.Done()
			local := make([][]hashedTuple, parts)
			var buf []byte
			for _, l := range left[lo:hi] {
				buf = appendSlotKey(buf[:0], l, stp.keySlots)
				h := hashKey(buf)
				p := int(h % uint64(parts))
				local[p] = append(local[p], hashedTuple{tup: l, hash: h})
			}
			leftParts[c] = local
		}(c, lo, hi)
	}
	wgPart.Wait()

	outs := make([][]tuple, parts)
	var wgProbe sync.WaitGroup
	for p := 0; p < parts; p++ {
		wgProbe.Add(1)
		go func(p int) {
			defer wgProbe.Done()
			build := make(map[uint64][]tuple)
			for c := 0; c < chunks; c++ {
				for _, l := range leftParts[c][p] {
					build[l.hash] = append(build[l.hash], l.tup)
				}
			}
			arena := newArena(width, bud)
			defer arena.close()
			var out []tuple
			for batch := range partCh[p] {
				for i, r := range batch.tups {
					for _, l := range build[batch.hashes[i]] {
						if keySlotsEqual(l, r, stp.keySlots) {
							out = append(out, mergeTuple(arena, l, r, stp.newSlots))
						}
					}
				}
			}
			outs[p] = out
		}(p)
	}
	wgProbe.Wait()
	<-scansDone

	var all []tuple
	for _, o := range outs {
		all = append(all, o...)
	}
	return all
}

// applyTupleFilters runs every not-yet-applied filter whose variable's
// slot is bound, reading the slot directly.
func applyTupleFilters(rows []tuple, filters []Filter, plan *execPlan, applied []bool, bound map[string]bool) []tuple {
	for i, f := range filters {
		if applied[i] || !bound[f.Var] {
			continue
		}
		applied[i] = true
		sl := plan.slotOf[f.Var]
		kept := rows[:0]
		for _, t := range rows {
			if f.Accepts(t[sl]) {
				kept = append(kept, t)
			}
		}
		rows = kept
	}
	return rows
}

// projectTuples dedups the surviving tuples onto the SELECT slots and
// sorts the rows into the deterministic output order shared by every
// execution path. The dedup key is computed straight from the slots, so
// duplicate rows are dropped before any output row is materialised.
func projectTuples(res *Result, rows []tuple, q Query, plan *execPlan, bud *mem.Budget) {
	sel := make([]int, len(q.Select))
	for i, v := range q.Select {
		sel[i] = plan.slotOf[v]
	}
	keys := make(map[string]bool, len(rows))
	var keep []keyedRow
	var sb []byte
	for _, t := range rows {
		sb = sb[:0]
		for _, s := range sel {
			sb = appendValueKey(sb, t[s])
		}
		if keys[string(sb)] {
			continue
		}
		key := string(sb)
		keys[key] = true
		out := make([]kb.Value, len(sel))
		for i, s := range sel {
			out[i] = t[s]
		}
		// The kept row is final output that cannot spill: charge it as
		// fixed working state, at the streaming projection's per-row cost.
		bud.MustReserve(projRowCost(key, len(sel)))
		keep = append(keep, keyedRow{key, out})
	}
	res.Rows = sortKeyedRows(keep)
}
