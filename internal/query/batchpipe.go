package query

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/query/mem"
)

// This file is the cross-step streaming pipeline on columnar batches: the
// planned execution path whenever the worker pool has more than one
// worker and the plan is a keyed join chain worth pipelining
// (plan.pipelines). The per-step executor (exec.go) fully materialises
// each join step's output before the next step's scans dispatch; here
// every step runs concurrently instead:
//
//   - all steps' scans share one bounded worker pool, dispatched in step
//     order, so a later step's sources scan while earlier joins probe;
//   - each join step is a set of partition workers that build a hash
//     table from the step's own scan output (routed by key hash) and
//     probe it with the accumulated rows streamed from the previous
//     step — no frontier is ever materialised between steps;
//   - a step's probe output is re-hashed on the *next* step's key slots
//     at production time (plan.nextKeySlots) and streamed straight into
//     the next step's partition channels in batches;
//   - when a step's output is provably empty the pipeline cancels:
//     undispatched scans are skipped (the pipelined form of the per-step
//     empty-join short-circuit) and the stages drain out.
//
// Partition counts are planner-derived per step (plan.stepPartCount:
// estimate-proportional, skew-aware) unless Options{Partitions} pins a
// global count. The final step's output never materialises either: each
// last-stage partition dedups its probe output straight onto the SELECT
// slots (the streaming projection, pipeline.go) and the executor merges
// the sorted per-partition row sets.
//
// The currency between stages is a colBatch (batch.go), and the three
// per-row hot loops run vectorized:
//
//   - hash computation is one pass per key column into the batch's
//     []uint64 hash vector (hashKeys), with no rowkey byte
//     materialisation;
//   - join-key verification probes the columnar build store by hash
//     vector and verifies matches column-wise (keysEqualAt);
//   - filters clear bits in the batch's selection mask
//     (applyFiltersVec) instead of copying survivors.
//
// Memory governance: the budget (internal/query/mem) is charged once per
// batch at column capacity (batchAlloc), and every stage partition
// charges a child reservation for its build store and pending probe
// batches. A partition whose reservation runs out degrades in two steps:
// first the pending probe queue overflows to a temp-file run (the build
// store stays in memory and the run is replayed through it once
// complete); if the build store itself cannot reserve, the partition
// becomes a grace-hash join (spill.go) — hybrid: the already-reserved
// build prefix stays in memory and only the overflow spills
// (Stats.HybridJoins), recursively sub-partitioned until each piece joins
// within budget. Batch rows bridge to the rowkey wire format through a
// reusable scratch tuple (spillRun.add encodes immediately and never
// retains its argument), and grace-join emissions re-enter the columnar
// flow through batchOutput.
//
// Rows, JoinedRows and the projection are byte-identical to every other
// path, spilled or not: batch arrival order varies run to run, but the
// row *set* per partition is fixed by the key hash (a match pair routes
// to the same partition under any key-hash function), the spill wire
// format round-trips kind-strictly, every partition's row set is deduped
// and sorted, and the final ordered merge normalises the global order.
// JoinedRows/StepRows count post-filter emissions, which are match-pair
// counts independent of partitioning and batching.

// batchRouter scatters selected batch rows toward one step's partition
// channels, one local batch per destination, sending each as it fills.
// In-flight accounting is the batch pool charge itself: a routed batch
// stays checked out (charged at the root) until its consumer returns it.
type batchRouter struct {
	chans []chan *colBatch
	local []*colBatch
	alloc *batchAlloc
	// slots is the copy list: the slots bound in the rows being routed.
	slots   []int
	batches int
}

func newBatchRouter(chans []chan *colBatch, alloc *batchAlloc, slots []int) *batchRouter {
	return &batchRouter{chans: chans, local: make([]*colBatch, len(chans)), alloc: alloc, slots: slots}
}

func (rt *batchRouter) route(src *colBatch, i int, h uint64) {
	p := int(h % uint64(len(rt.chans)))
	lb := rt.local[p]
	if lb == nil {
		lb = rt.alloc.get()
		rt.local[p] = lb
	}
	lb.copyRow(src, i, h, rt.slots)
	if lb.full() {
		rt.chans[p] <- lb
		rt.local[p] = nil
		rt.batches++
	}
}

// forward hands a whole batch to one destination without copying rows —
// the aligned fast path: when a stage's carried hashes are already the
// downstream routing hashes and the two stages run the same partition
// count, every row of this partition's output lands on the same
// downstream partition, so the staging batch itself is the routed batch.
func (rt *batchRouter) forward(b *colBatch, p int) {
	rt.chans[p] <- b
	rt.batches++
}

func (rt *batchRouter) flush() {
	for p, b := range rt.local {
		if b == nil {
			continue
		}
		rt.local[p] = nil
		if b.n > 0 {
			rt.chans[p] <- b
			rt.batches++
		} else {
			rt.alloc.put(b)
		}
	}
}

// batchScanSink accumulates one scan task's accepted rows in a staging
// batch and flushes it through the vectorized passes: step-0 filters on
// the selection mask, one hash pass over the routing key columns, then a
// scatter of the selected rows to the consuming step's partitions.
type batchScanSink struct {
	plan    *execPlan
	filters []Filter // step-0 filter set; nil on build-side scans
	slots   []int    // routing key slots (hash target)
	staging *colBatch
	rt      *batchRouter

	batches              int
	rows                 int64
	kept                 int64
	filterIn, filterKept int64
}

func (snk *batchScanSink) flush() {
	b := snk.staging
	if b.n == 0 {
		return
	}
	snk.batches++
	snk.rows += int64(b.n)
	if len(snk.filters) > 0 {
		snk.filterIn += int64(b.n)
		b.applyFiltersVec(snk.filters, snk.plan)
	}
	b.hashKeys(snk.slots)
	kept := int64(0)
	for i := 0; i < b.n; i++ {
		if b.live(i) {
			snk.rt.route(b, i, b.hashes[i])
			kept++
		}
	}
	if len(snk.filters) > 0 {
		snk.filterKept += kept
	}
	snk.kept += kept
	b.n = 0
	b.sel = nil
}

// batchEmit adapts scanMatch's (s, p, o) callback into columnar row
// construction — tupleEmit's exact semantics (first-occurrence positions
// write their slot, repeats enforce equality, the report gates the scan
// row counters) writing straight into the staging batch's columns. A
// rejected row never advances n, so its partial writes are overwritten
// by the next row (which writes a superset of the same slots).
func batchEmit(stp *planStep, snk *batchScanSink) func(s, p, o kb.Value) bool {
	return func(s, p, o kb.Value) bool {
		b := snk.staging
		vals := [3]kb.Value{s, p, o}
		j := b.n
		for i := 0; i < 3; i++ {
			sl := stp.spec[i]
			if sl < 0 {
				continue
			}
			if stp.firstPos[i] {
				b.cols[sl][j] = vals[i]
			} else if !b.cols[sl][j].Equal(vals[i]) {
				return false
			}
		}
		b.n++
		if b.full() {
			snk.flush()
		}
		return true
	}
}

// batchOutput is one stage partition's probe-output sink: matched rows
// accumulate in a staging batch (probe row's columns plus the build
// side's new slots, under the carried key hash), and each full batch
// flushes through the vectorized passes — the step's filters on the
// selection mask, a rehash on the next step's key slots (skipped on
// aligned chains, where the carried hash is already the downstream
// hash), then either a scatter to the next stage or the streaming
// projection.
type batchOutput struct {
	stp     *planStep
	plan    *execPlan
	filters []Filter
	// probeSlots is the probe side's bound-slot list (everything bound
	// before this step); merged output rows carry probeSlots ∪ newSlots.
	probeSlots []int
	out        *colBatch
	rt         *batchRouter // nil on the last stage
	proj       *stageProj   // non-nil on the last stage
	// direct enables whole-batch forwarding: the chain is aligned (carried
	// hashes are the downstream routing hashes) and the downstream stage
	// runs the same partition count, so every output row of partition
	// `part` routes to downstream partition `part` — the staging batch is
	// handed over as-is and a fresh one checked out, skipping the
	// row-by-row scatter copy entirely.
	direct bool
	part   int
	alloc  *batchAlloc
	// directProj enables unstaged projection on the last stage: with no
	// last-step filters pending, a matched row's SELECT cells resolve
	// straight from their side (probe batch or build store) into the
	// streaming projection, skipping the full-width staging copy. out is
	// nil in this mode. selFromBuild[k] reports whether SELECT slot k is
	// bound by the last step (build side) or earlier (probe side).
	directProj   bool
	selFromBuild []bool

	batches              int
	rows                 int64
	emitted              int64
	filterIn, filterKept int64
}

// rowFrom stages the merge of probe row (src, i) with build-store row j.
func (o *batchOutput) rowFrom(src *colBatch, i int, bs *buildStore, j int32, h uint64) {
	ob := o.out
	k := ob.n
	for _, s := range o.probeSlots {
		ob.cols[s][k] = src.cols[s][i]
	}
	for _, s := range o.stp.newSlots {
		ob.cols[s][k] = bs.cols[s][j]
	}
	ob.hashes[k] = h
	ob.n++
	if ob.full() {
		o.flush()
	}
}

// rowFromTupleStore is rowFrom for a row-major probe tuple (the
// probe-overflow replay against the in-memory build prefix).
func (o *batchOutput) rowFromTupleStore(l tuple, bs *buildStore, j int32, h uint64) {
	ob := o.out
	k := ob.n
	for _, s := range o.probeSlots {
		ob.cols[s][k] = l[s]
	}
	for _, s := range o.stp.newSlots {
		ob.cols[s][k] = bs.cols[s][j]
	}
	ob.hashes[k] = h
	ob.n++
	if ob.full() {
		o.flush()
	}
}

// rowFromTuples stages the merge of two row-major tuples (grace-join
// completion, where both sides replay from disk).
func (o *batchOutput) rowFromTuples(l, r tuple, h uint64) {
	ob := o.out
	k := ob.n
	for _, s := range o.probeSlots {
		ob.cols[s][k] = l[s]
	}
	for _, s := range o.stp.newSlots {
		ob.cols[s][k] = r[s]
	}
	ob.hashes[k] = h
	ob.n++
	if ob.full() {
		o.flush()
	}
}

// projRowFrom projects the match of probe row (src, i) with build row j
// without staging it — stageProj.addBatchRow's encoding, dedup and
// charge, with each SELECT cell read from its own side.
func (o *batchOutput) projRowFrom(src *colBatch, i int, bs *buildStore, j int32) {
	o.emitted++
	pp := o.proj
	pp.buf = pp.buf[:0]
	for k, s := range pp.sel {
		if o.selFromBuild[k] {
			pp.buf = appendValueKey(pp.buf, bs.cols[s][j])
		} else {
			pp.buf = appendValueKey(pp.buf, src.cols[s][i])
		}
	}
	if _, dup := pp.keys[string(pp.buf)]; dup {
		return
	}
	key := string(pp.buf)
	pp.ensure(projRowCost(key, len(pp.sel)))
	pp.keys[key] = struct{}{}
	out := make([]kb.Value, len(pp.sel))
	for k, s := range pp.sel {
		if o.selFromBuild[k] {
			out[k] = bs.cols[s][j]
		} else {
			out[k] = src.cols[s][i]
		}
	}
	pp.rows = append(pp.rows, keyedRow{key, out})
}

// projRowFromTupleStore is projRowFrom for a row-major probe tuple (the
// probe-overflow replay against the in-memory build prefix).
func (o *batchOutput) projRowFromTupleStore(l tuple, bs *buildStore, j int32) {
	o.emitted++
	pp := o.proj
	pp.buf = pp.buf[:0]
	for k, s := range pp.sel {
		if o.selFromBuild[k] {
			pp.buf = appendValueKey(pp.buf, bs.cols[s][j])
		} else {
			pp.buf = appendValueKey(pp.buf, l[s])
		}
	}
	if _, dup := pp.keys[string(pp.buf)]; dup {
		return
	}
	key := string(pp.buf)
	pp.ensure(projRowCost(key, len(pp.sel)))
	pp.keys[key] = struct{}{}
	out := make([]kb.Value, len(pp.sel))
	for k, s := range pp.sel {
		if o.selFromBuild[k] {
			out[k] = bs.cols[s][j]
		} else {
			out[k] = l[s]
		}
	}
	pp.rows = append(pp.rows, keyedRow{key, out})
}

// projRowFromTuples is projRowFrom for two row-major tuples (grace-join
// completion).
func (o *batchOutput) projRowFromTuples(l, r tuple) {
	o.emitted++
	pp := o.proj
	pp.buf = pp.buf[:0]
	for k, s := range pp.sel {
		if o.selFromBuild[k] {
			pp.buf = appendValueKey(pp.buf, r[s])
		} else {
			pp.buf = appendValueKey(pp.buf, l[s])
		}
	}
	if _, dup := pp.keys[string(pp.buf)]; dup {
		return
	}
	key := string(pp.buf)
	pp.ensure(projRowCost(key, len(pp.sel)))
	pp.keys[key] = struct{}{}
	out := make([]kb.Value, len(pp.sel))
	for k, s := range pp.sel {
		if o.selFromBuild[k] {
			out[k] = r[s]
		} else {
			out[k] = l[s]
		}
	}
	pp.rows = append(pp.rows, keyedRow{key, out})
}

func (o *batchOutput) flush() {
	b := o.out
	if b == nil || b.n == 0 {
		return
	}
	o.batches++
	o.rows += int64(b.n)
	if len(o.filters) > 0 {
		o.filterIn += int64(b.n)
		b.applyFiltersVec(o.filters, o.plan)
	}
	kept := int64(0)
	if o.rt != nil {
		// Downstream consumers expect dense batches, so a selection mask
		// (step filters fired) falls back to the scatter, which compacts.
		if o.direct && b.sel == nil {
			o.emitted += int64(b.n)
			o.rt.forward(b, o.part)
			o.out = o.alloc.get()
			return
		}
		if !o.stp.alignedNext {
			b.hashKeys(o.stp.nextKeySlots)
		}
		for i := 0; i < b.n; i++ {
			if b.live(i) {
				o.rt.route(b, i, b.hashes[i])
				kept++
			}
		}
	} else {
		for i := 0; i < b.n; i++ {
			if b.live(i) {
				o.proj.addBatchRow(b, i)
				kept++
			}
		}
	}
	if len(o.filters) > 0 {
		o.filterKept += kept
	}
	o.emitted += kept
	b.n = 0
	b.sel = nil
}

// executeBatched runs a keyed join chain on the columnar batch pipeline.
// Callers guarantee (plan.pipelines): more than one worker, at least two
// steps, and every step after the first has key slots (plan.chainKeyed).
// A cancelled context rides the same machinery as the provably-empty
// short-circuit: remaining scan dispatch is skipped, the stages drain,
// and ctx.Err() is returned instead of the partial result. A spill I/O
// failure drains the same way and surfaces as the returned error.
func (e *Engine) executeBatched(ctx context.Context, q Query, plan *execPlan, opts Options, bud *mem.Budget, res *Result) error {
	st := &res.Stats
	width := len(plan.slotNames)
	workers := resolveWorkers(opts)
	n := len(plan.steps)
	filters := stepFilterSets(q, plan)
	tc := tupleCost(width)
	alloc := newBatchAlloc(width, bud)
	pipeT0 := time.Now()

	// Copy lists: which slots a row actually carries at each point in
	// the chain. Columns outside a row's list are never copied, spilled
	// or read — the batch equivalent of the tuple executor's "unbound
	// slots are never read" invariant, and most of the win over copying
	// full-width rows at every stage boundary.
	boundAfter := make([][]int, n) // slots bound once step si has run
	scanRowSlots := make([][]int, n)
	{
		var acc []int
		for si := range plan.steps {
			stp := &plan.steps[si]
			acc = append(acc, stp.newSlots...)
			boundAfter[si] = append([]int(nil), acc...)
			// A build-side scan row binds exactly its triple's slots:
			// the join keys plus the step's newly bound slots.
			scanRowSlots[si] = append(append([]int(nil), stp.keySlots...), stp.newSlots...)
		}
	}

	parts := make([]int, n)
	for si := 1; si < n; si++ {
		parts[si] = plan.stepPartCount(si, opts, workers)
	}
	if opts.Partitions == 0 {
		st.AdaptivePartitions = n - 1
	}

	var stepSpans []*obs.Span
	if opts.Trace != nil {
		stepSpans = make([]*obs.Span, n)
		for si := range plan.steps {
			s := opts.Trace.Child("step " + strconv.Itoa(si+1) + ": " + plan.steps[si].triple.String())
			s.SetInt("est_rows", int64(plan.steps[si].est))
			if si > 0 {
				s.SetInt("partitions", int64(parts[si]))
			}
			s.SetAttr("exec", "batch")
			stepSpans[si] = s
		}
	}
	stepSpan := func(si int) *obs.Span {
		if stepSpans == nil {
			return nil
		}
		return stepSpans[si]
	}

	// Budget wiring: every stage partition's spillable retention (build
	// store + pending probe batches) reserves from one shared pool — half
	// the cap — so memory fills first-come and only the overflow degrades
	// to disk (the fleet-level hybrid: a 2x-over-cap workload spills
	// roughly half its partitions, not all of them). The other half of
	// the cap is headroom for the fixed working state charged via
	// MustReserve (the batch pool's capacity charges, spill write
	// buffers, the projected rows) and for the grace joins' finish-time
	// chunk reservations, which draw on the root directly.
	limit := opts.MemoryLimit
	chanDepth := pipeChanDepth
	poolLimit := int64(0)
	if limit > 0 {
		chanDepth = budgetedChanDepth
		// Floor at one byte: a degenerate limit must yield a pool that
		// refuses everything (spill-everything), not an unlimited one.
		poolLimit = max(limit/2, 1)
	}
	spillPool := bud.Child(poolLimit)
	// The last stage's projection dedup sets draw on the same pool —
	// but only under a limit; unbounded executions keep the historical
	// root accounting and never rotate.
	var projPool *mem.Budget
	if limit > 0 {
		projPool = spillPool
	}

	upCh := make([][]chan *colBatch, n)
	scanCh := make([][]chan *colBatch, n)
	mkChans := func(parts int) []chan *colBatch {
		chs := make([]chan *colBatch, parts)
		for p := range chs {
			chs[p] = make(chan *colBatch, chanDepth)
		}
		return chs
	}
	for si := 1; si < n; si++ {
		upCh[si] = mkChans(parts[si])
		scanCh[si] = mkChans(parts[si])
	}

	// cancel fires when some step's output is provably empty (the final
	// result is empty regardless of the remaining scans) or when a spill
	// I/O error makes the result unreachable: dispatch stops and the
	// stages drain.
	cancel := make(chan struct{})
	var cancelOnce sync.Once
	cancelFn := func() { cancelOnce.Do(func() { close(cancel) }) }
	var errOnce sync.Once
	var pipeErr error
	setErr := func(err error) {
		if err == nil {
			return
		}
		errOnce.Do(func() { pipeErr = err })
		cancelFn()
	}

	// Per-(step, scan) private stats, merged in (step, source) order
	// after the pipeline drains, so the work counters are deterministic
	// under any scheduling (modulo cancellation, which is timing-
	// dependent by nature and only ever skips work).
	taskStats := make([][]Stats, n)
	liveTasks := make([][]int, n)
	total := 0
	for si := range plan.steps {
		stp := &plan.steps[si]
		st.SourceScans += len(stp.scans)
		taskStats[si] = make([]Stats, len(stp.scans))
		for j, sc := range stp.scans {
			if !sc.view.skip {
				liveTasks[si] = append(liveTasks[si], j)
			}
		}
		total += len(liveTasks[si])
	}

	// stepOut[si] counts the rows step si emitted downstream (step 0:
	// scan output after filters; stages: probe output after filters).
	// stepDur[si] is the step's wall-clock from pipeline start to its
	// completion, stamped by the step's closer (Stats.StepDurNs).
	stepOut := make([]int64, n)
	stepDur := make([]int64, n)
	// Per-stage-partition counters, merged in (step, partition) order.
	stageStream := make([][]int, n)
	stageBatchCnt := make([][]int, n)
	stageBatchRows := make([][]int64, n)
	stageSpilled := make([][]int, n)
	stageHybrid := make([][]int, n)
	stageRuns := make([][]int, n)
	stageBytes := make([][]int64, n)
	for si := 1; si < n; si++ {
		stageStream[si] = make([]int, parts[si])
		stageBatchCnt[si] = make([]int, parts[si])
		stageBatchRows[si] = make([]int64, parts[si])
		stageSpilled[si] = make([]int, parts[si])
		stageHybrid[si] = make([]int, parts[si])
		stageRuns[si] = make([]int, parts[si])
		stageBytes[si] = make([]int64, parts[si])
	}
	// Last-stage projection spill counters (one slot per partition).
	projSpills := make([]int, parts[n-1])
	projRunCnt := make([]int, parts[n-1])
	projRunBytes := make([]int64, parts[n-1])
	// Filter-pass totals for Stats.SelectivityPct. Plain sums, so atomic
	// accumulation is still deterministic whatever the scheduling.
	var filterInTot, filterKeptTot int64

	// Scan worker pool, shared by every step's scans, dispatched in step
	// order: step 0 feeds upCh[1] directly (hashed on step 1's keys);
	// step si>=1 feeds its own build side scanCh[si].
	scanWg := make([]sync.WaitGroup, n)
	for si := range plan.steps {
		scanWg[si].Add(len(liveTasks[si]))
	}
	runScan := func(si, j int) {
		defer scanWg[si].Done()
		stp := &plan.steps[si]
		sc := stp.scans[j]
		ts := &taskStats[si][j]
		var ss *obs.Span
		if sp := stepSpan(si); sp != nil {
			ss = sp.Child("scan " + sc.name)
			defer func() {
				ss.SetInt("rows", int64(ts.EdgeRows+ts.FactRows))
				ss.End()
			}()
		}
		snk := &batchScanSink{plan: plan, staging: alloc.get()}
		if si == 0 {
			snk.filters = filters[0]
			snk.slots = stp.nextKeySlots
			snk.rt = newBatchRouter(upCh[1], alloc, boundAfter[0])
		} else {
			snk.slots = stp.keySlots
			snk.rt = newBatchRouter(scanCh[si], alloc, scanRowSlots[si])
		}
		e.scanMatch(sc.name, sc.src, stp.triple, sc.view, ts, true, batchEmit(stp, snk))
		snk.flush()
		snk.rt.flush()
		alloc.put(snk.staging)
		ts.StreamedBatches += snk.rt.batches
		ts.Batches += snk.batches
		ts.BatchRows += int(snk.rows)
		atomic.AddInt64(&filterInTot, snk.filterIn)
		atomic.AddInt64(&filterKeptTot, snk.filterKept)
		if si == 0 {
			atomic.AddInt64(&stepOut[0], snk.kept)
		}
	}

	poolSize := workers
	if poolSize > total {
		poolSize = total
	}
	if poolSize > st.Workers {
		st.Workers = poolSize
	}
	type scanJob struct{ si, j int }
	jobs := make(chan scanJob)
	var poolWg sync.WaitGroup
	for w := 0; w < poolSize; w++ {
		poolWg.Add(1)
		go func() {
			defer poolWg.Done()
			for jb := range jobs {
				runScan(jb.si, jb.j)
			}
		}()
	}
	dispatcherDone := make(chan struct{})
	var dispatched, cancelled int
	go func() {
		defer close(dispatcherDone)
		defer close(jobs)
		for si := 0; si < n; si++ {
			for _, j := range liveTasks[si] {
				select {
				case jobs <- scanJob{si, j}:
					dispatched++
				case <-cancel:
					// Provably-empty output upstream (or a spill error):
					// skip this and every remaining scan, releasing the
					// per-step completion counts so the stages drain.
					cancelled++
					scanWg[si].Done()
				case <-ctx.Done():
					// Deadline/cancellation: same drain path; the caller
					// discards the partial result and reports ctx.Err().
					cancelled++
					scanWg[si].Done()
				}
			}
		}
	}()

	// Per-step closers: a step's scan side closes when its scans finish
	// (or are skipped). Step 0's "scan side" is stage 1's probe side.
	// Closers also stamp the step's duration and close its trace span;
	// closersWg gives the final stat merge a happens-before edge on
	// those writes.
	var closersWg sync.WaitGroup
	closersWg.Add(n)
	go func() {
		defer closersWg.Done()
		scanWg[0].Wait()
		stepDur[0] = time.Since(pipeT0).Nanoseconds()
		if sp := stepSpan(0); sp != nil {
			sp.SetInt("rows", atomic.LoadInt64(&stepOut[0]))
			sp.End()
		}
		for _, ch := range upCh[1] {
			close(ch)
		}
		if atomic.LoadInt64(&stepOut[0]) == 0 {
			cancelFn()
		}
	}()
	for si := 1; si < n; si++ {
		go func(si int) {
			scanWg[si].Wait()
			for _, ch := range scanCh[si] {
				close(ch)
			}
		}(si)
	}

	// Join stages: one partition worker per (step, partition), building a
	// columnar store from the scan side while *always* staying ready to
	// buffer (or spill) early probe batches — the select keeps every
	// producer unblocked, so the shared scan pool can never wedge behind a
	// stage. Degradation is hybrid from the start: a failed
	// build reservation freezes the already-reserved prefix in memory and
	// routes only the overflow to disk — every overflowed probe row is
	// written to the probe run (before any probing, so the encoded bytes
	// predate any in-place merge) and later both replays against the
	// frozen prefix and grace-joins against the spilled build rows; the
	// two match sets are disjoint because every build row lives on
	// exactly one side.
	projParts := make([][]keyedRow, parts[n-1])
	stageWg := make([]sync.WaitGroup, n)
	for si := 1; si < n; si++ {
		stageWg[si].Add(parts[si])
		for p := 0; p < parts[si]; p++ {
			go func(si, p int) {
				defer stageWg[si].Done()
				stp := &plan.steps[si]
				var partSpan, buildSpan *obs.Span
				if ssp := stepSpan(si); ssp != nil {
					partSpan = ssp.Child("part " + strconv.Itoa(p))
					buildSpan = partSpan.Child("build")
				}
				partBud := spillPool.Child(0)
				bs := newBuildStore(stp, width)
				var pending []*colBatch
				var buildCharged, pendCharged int64
				sp := &spillPart{dir: opts.SpillDir, width: width, bud: partBud, io: bud}
				// One scratch tuple per spilled slot list, so slots
				// outside a list stay zero (the wire format's unbound-
				// slot convention) and spilled bytes are deterministic.
				buildScratch := make(tuple, width)
				probeScratch := make(tuple, width)
				buildSpilled, probeSpilled, hybrid := false, false, false
				var spillErr error
				fail := func(err error) {
					if err != nil && spillErr == nil {
						spillErr = err
						setErr(err)
					}
				}
				writeProbeRows := func(b *colBatch) {
					for i := 0; i < b.n; i++ {
						if err := sp.probe.add(b.rowTuple(i, probeScratch, boundAfter[si-1]), b.hashes[i]); err != nil {
							fail(err)
							return
						}
					}
				}
				degradeBuild := func() {
					if buildSpilled || spillErr != nil {
						return
					}
					if err := sp.ensureBuild(); err != nil {
						fail(err)
						return
					}
					if err := sp.ensureProbe(); err != nil {
						fail(err)
						return
					}
					buildSpilled = true
					stageSpilled[si][p] = 1
					// Hybrid grace: the reserved prefix stays resident and
					// frozen; only rows from here on go to disk.
					if bs.rows() > 0 {
						hybrid = true
						stageHybrid[si][p] = 1
					}
					for _, b := range pending {
						if spillErr == nil {
							writeProbeRows(b)
						}
						alloc.put(b)
					}
					pending = nil
					partBud.Release(pendCharged)
					pendCharged = 0
				}
				takeBuild := func(b *colBatch) {
					defer alloc.put(b)
					if spillErr != nil {
						return
					}
					cost := int64(b.n) * tc
					if !buildSpilled && partBud.Reserve(cost) {
						buildCharged += cost
						bs.appendBatch(b)
						return
					}
					degradeBuild()
					if spillErr != nil {
						return
					}
					for i := 0; i < b.n; i++ {
						if err := sp.build.add(b.rowTuple(i, buildScratch, scanRowSlots[si]), b.hashes[i]); err != nil {
							fail(err)
							return
						}
					}
				}
				takeProbeEarly := func(b *colBatch) {
					if spillErr != nil {
						alloc.put(b)
						return
					}
					if buildSpilled {
						writeProbeRows(b)
						alloc.put(b)
						return
					}
					// A parked batch is spillable retention, not fixed working
					// state: move its capacity charge from the root (taken at
					// alloc.get) into the partition's pool reservation, so a
					// pending batch is accounted once and alloc.put later
					// releases nothing.
					if cost := b.cost; partBud.Reserve(cost) {
						bud.Release(cost)
						b.cost = 0
						pendCharged += cost
						pending = append(pending, b)
						return
					}
					// Pending overflow: the build store stays in memory; probe
					// rows overflow to a run replayed once the build side is
					// complete. Counts as a spilled partition — it is writing
					// rows to disk.
					if err := sp.ensureProbe(); err != nil {
						fail(err)
						alloc.put(b)
						return
					}
					probeSpilled = true
					stageSpilled[si][p] = 1
					writeProbeRows(b)
					alloc.put(b)
				}
				sc, up := scanCh[si][p], upCh[si][p]
				for sc != nil {
					select {
					case b, ok := <-sc:
						if !ok {
							sc = nil
							continue
						}
						takeBuild(b)
					case b, ok := <-up:
						if !ok {
							up = nil
							continue
						}
						takeProbeEarly(b)
					}
				}
				if buildSpan != nil {
					buildSpan.SetAttr("spilled", strconv.FormatBool(buildSpilled))
					buildSpan.SetAttr("hybrid", strconv.FormatBool(hybrid))
					buildSpan.SetInt("rows", int64(bs.rows()))
					buildSpan.End()
				}
				var probeSpan *obs.Span
				if partSpan != nil {
					probeSpan = partSpan.Child("probe")
				}
				o := &batchOutput{stp: stp, plan: plan, filters: filters[si],
					probeSlots: boundAfter[si-1]}
				if si+1 < n {
					o.out = alloc.get()
					o.rt = newBatchRouter(upCh[si+1], alloc, boundAfter[si])
					o.direct = stp.alignedNext && parts[si+1] == parts[si]
					o.part = p
					o.alloc = alloc
				} else {
					o.proj = newStageProj(q, plan, bud, projPool, opts.SpillDir)
					if len(filters[si]) == 0 {
						// No filters pending on the last step: project each
						// match straight from its sides, no staging batch.
						o.directProj = true
						o.selFromBuild = make([]bool, len(o.proj.sel))
						for k, s := range o.proj.sel {
							for _, ns := range stp.newSlots {
								if s == ns {
									o.selFromBuild[k] = true
									break
								}
							}
						}
					} else {
						o.out = alloc.get()
					}
				}
				probeBatch := func(b *colBatch) {
					if bs.rows() == 0 {
						return // drain only; nothing can join
					}
					for i := 0; i < b.n; i++ {
						h := b.hashes[i]
						for j := bs.head(h); j >= 0; j = bs.next[j] {
							if bs.keysEqualAt(b, i, j, stp.keySlots) {
								if o.directProj {
									o.projRowFrom(b, i, bs, j)
								} else {
									o.rowFrom(b, i, bs, j, h)
								}
							}
						}
					}
				}
				probeTuple := func(t tuple, h uint64) {
					for j := bs.head(h); j >= 0; j = bs.next[j] {
						if bs.keysEqualTuple(t, j, stp.keySlots) {
							if o.directProj {
								o.projRowFromTupleStore(t, bs, j)
							} else {
								o.rowFromTupleStore(t, bs, j, h)
							}
						}
					}
				}
				if spillErr == nil && !buildSpilled {
					for _, b := range pending {
						probeBatch(b)
						alloc.put(b)
					}
					pending = nil
					partBud.Release(pendCharged)
					pendCharged = 0
					if probeSpilled {
						var spillSpan *obs.Span
						if partSpan != nil {
							spillSpan = partSpan.Child("spill")
						}
						decodeArena := &tupleArena{width: width, blockTuples: spillDecodeBlock}
						fail(sp.probe.replay(width, decodeArena, func(t tuple, h uint64) error {
							if bs.rows() > 0 {
								probeTuple(t, h)
							}
							return nil
						}))
						sp.probe.close()
						sp.probe = nil
						if spillSpan != nil {
							spillSpan.SetInt("runs", int64(sp.runs))
							spillSpan.SetInt("bytes", sp.bytes)
							spillSpan.End()
						}
					}
					if up != nil {
						for b := range up {
							if spillErr == nil {
								probeBatch(b)
							}
							alloc.put(b)
						}
					}
				} else {
					if up != nil {
						for b := range up {
							if spillErr == nil && buildSpilled {
								writeProbeRows(b)
							}
							alloc.put(b)
						}
					}
					if spillErr == nil && buildSpilled {
						var spillSpan *obs.Span
						if partSpan != nil {
							spillSpan = partSpan.Child("spill")
						}
						if hybrid {
							// The frozen prefix's matches: every overflowed
							// probe row replays through the in-memory half
							// before the disk half grace-joins — the probe
							// run is re-readable, so the grace join streams
							// it again afterwards.
							decodeArena := &tupleArena{width: width, blockTuples: spillDecodeBlock}
							fail(sp.probe.replay(width, decodeArena, func(t tuple, h uint64) error {
								probeTuple(t, h)
								return nil
							}))
						}
						if spillErr == nil {
							fail(sp.join(stp, func(l tuple, h uint64, rs []tuple) {
								for _, r := range rs {
									if o.directProj {
										o.projRowFromTuples(l, r)
									} else {
										o.rowFromTuples(l, r, h)
									}
								}
							}))
						}
						if spillSpan != nil {
							spillSpan.SetInt("runs", int64(sp.runs))
							spillSpan.SetInt("bytes", sp.bytes)
							spillSpan.End()
						}
					}
				}
				bs.release()
				o.flush()
				sp.close()
				stageRuns[si][p] = sp.runs
				stageBytes[si][p] = sp.bytes
				partBud.Release(buildCharged + pendCharged)
				if o.rt != nil {
					o.rt.flush()
					stageStream[si][p] = o.rt.batches
				} else {
					rows, perr := o.proj.finish()
					fail(perr)
					projParts[p] = rows
					if o.proj.spilled {
						projSpills[p] = 1
						projRunCnt[p] = len(o.proj.runs)
						projRunBytes[p] = o.proj.bytes
					}
				}
				if o.out != nil {
					alloc.put(o.out)
				}
				stageBatchCnt[si][p] = o.batches
				stageBatchRows[si][p] = o.rows
				atomic.AddInt64(&filterInTot, o.filterIn)
				atomic.AddInt64(&filterKeptTot, o.filterKept)
				if probeSpan != nil {
					probeSpan.SetInt("rows", o.emitted)
					probeSpan.End()
				}
				partSpan.End()
				atomic.AddInt64(&stepOut[si], o.emitted)
			}(si, p)
		}
	}
	// Per-stage closers: when stage si finishes, its downstream probe
	// side closes; an empty stage output cancels remaining scan work.
	for si := 1; si < n; si++ {
		go func(si int) {
			defer closersWg.Done()
			stageWg[si].Wait()
			stepDur[si] = time.Since(pipeT0).Nanoseconds()
			if sp := stepSpan(si); sp != nil {
				sp.SetInt("rows", atomic.LoadInt64(&stepOut[si]))
				sp.End()
			}
			if si+1 < n {
				for _, ch := range upCh[si+1] {
					close(ch)
				}
			}
			if atomic.LoadInt64(&stepOut[si]) == 0 {
				cancelFn()
			}
		}(si)
	}

	stageWg[n-1].Wait()
	poolWg.Wait()
	<-dispatcherDone
	closersWg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if pipeErr != nil {
		return pipeErr
	}

	// Deterministic stat merge: task stats in (step, source) order, then
	// the per-partition counters in (step, partition) order.
	for si := range plan.steps {
		for j := range taskStats[si] {
			st.accrue(taskStats[si][j])
		}
	}
	for si := 1; si < n; si++ {
		for p := 0; p < parts[si]; p++ {
			st.StreamedBatches += stageStream[si][p]
			st.Batches += stageBatchCnt[si][p]
			st.BatchRows += int(stageBatchRows[si][p])
			st.SpilledPartitions += stageSpilled[si][p]
			st.HybridJoins += stageHybrid[si][p]
			st.SpillRuns += stageRuns[si][p]
			st.SpilledBytes += stageBytes[si][p]
		}
	}
	for p := 0; p < parts[n-1]; p++ {
		st.ProjectionSpills += projSpills[p]
		st.SpillRuns += projRunCnt[p]
		st.SpilledBytes += projRunBytes[p]
	}
	st.StepRows = make([]int, n)
	st.StepDurNs = make([]int64, n)
	for si := 0; si < n; si++ {
		st.StepRows[si] = int(stepOut[si])
		st.StepDurNs[si] = stepDur[si]
	}
	st.ParallelScans += dispatched
	st.ScansCancelled += cancelled
	st.PipelinedSteps = n - 1
	for si := 1; si < n; si++ {
		if st.JoinPartitions < parts[si] {
			st.JoinPartitions = parts[si]
		}
	}
	st.StepPartitions = make([]int, n)
	copy(st.StepPartitions[1:], parts[1:])
	if in := atomic.LoadInt64(&filterInTot); in > 0 {
		st.SelectivityPct = 100 * float64(atomic.LoadInt64(&filterKeptTot)) / float64(in)
	} else {
		st.SelectivityPct = 100
	}

	// The streaming projection's ordered merge: every partition's rows
	// arrive deduplicated and sorted; the merge drops cross-partition
	// duplicates and yields the deterministic global order shared by all
	// execution paths.
	st.JoinedRows = int(stepOut[n-1])
	res.Rows = mergeSortedKeyed(projParts, bud)
	return nil
}
