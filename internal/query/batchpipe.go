package query

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/query/mem"
	"repro/internal/rowcodec"
)

// This file is the planned execution entry point (executePlanned) and
// the cross-step streaming pipeline on columnar batches it runs — the one
// planned executor: every compiled plan runs here, whatever its shape or
// worker count; Options{Sequential} is the only other path. The compiled
// plan assigns every query variable a fixed slot (plan.go), and joins key
// on the precomputed slot lists. Every step runs concurrently:
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
//     undispatched scans are skipped (the empty-join short-circuit) and
//     the stages drain out;
//   - on a semi-join plan (planSemiJoin) the scans bound to step 0's
//     subjects are held until step 0's scans are done: step 0's sinks
//     collect their survivors' subjects, and each bound scan walks only
//     those through the subject index (the stages keep absorbing step
//     0's output meanwhile, so the hold cannot wedge the pipeline).
//
// Partition counts are planner-derived per step (plan.stepPartCount:
// estimate-proportional, skew-aware) unless Options{Partitions} pins a
// global count. The final step's output never materialises either: each
// last-stage partition dedups its probe output straight onto the SELECT
// slots (the streaming projection, pipeline.go) and the executor merges
// the sorted per-partition row sets. A single-step plan has no join
// stage: each scan task projects its own rows and the executor merges
// the tasks' row sets the same way. A disconnected (keyless) step needs
// no special case: every row hashes to batchHashSeed, so the step lands
// in one partition, and keysEqualAt over zero key slots matches every
// pair — a cross product.
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
// batches. A partition whose reservation runs out degrades to a hybrid
// grace-hash join (spill.go): a refused probe batch goes to a probe run,
// and once the build store itself cannot reserve, its reserved prefix
// stays resident (Stats.HybridJoins when non-empty) while later build
// rows go to a build run and every probe row to the probe run. At stage
// end the probe run replays through the resident store, and a build run
// joins against the probe run in reservation-sized chunks. Rows never
// leave the batch currency: a spill run encodes records straight from
// batch columns (only the side's bound slots) and replays them back into
// batches, so the replay and every grace-join chunk run the live probe's
// match loop (batchOutput.probe) against a buildStore.
//
// Rows, JoinedRows and the projection are byte-identical to the
// Sequential reference, spilled or not: batch arrival order varies run
// to run, but the row *set* per partition is fixed by the key hash (a
// match pair routes to the same partition under any key-hash function),
// the spill wire format round-trips kind-strictly, every partition's row
// set is deduped and sorted, and the final ordered merge normalises the
// global order.
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
// scatter of the selected rows to the consuming step's partitions — or,
// on a single-step plan, straight into the task's projection.
type batchScanSink struct {
	plan    *execPlan
	filters []Filter // step-0 filter set; nil on build-side scans
	slots   []int    // routing key slots (hash target)
	staging *colBatch
	rt      *batchRouter // nil on a single-step plan
	proj    *stageProj   // non-nil on a single-step plan
	// subjects, on a step-0 scan of a semi-join plan, collects the
	// surviving rows' subjects (slot plan.steps[0].spec[0]) into source
	// src's set.
	subjects *semiJoinSet
	src      int

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
	if snk.rt != nil {
		b.hashKeys(snk.slots)
	}
	kept := int64(0)
	for i := 0; i < b.n; i++ {
		if !b.live(i) {
			continue
		}
		if snk.rt != nil {
			snk.rt.route(b, i, b.hashes[i])
		} else {
			snk.proj.addBatchRow(b, i)
		}
		kept++
	}
	if len(snk.filters) > 0 {
		snk.filterKept += kept
	}
	if snk.subjects != nil {
		snk.subjects.add(snk.src, b, snk.plan.steps[0].spec[0])
	}
	snk.kept += kept
	b.n = 0
	b.sel = nil
}

// semiJoinSet is the sideways semi-join's subject sets: per source, the
// qualified subjects of step 0's surviving rows from that source, which
// the bound scans of later steps walk instead of their predicate index
// (planSemiJoin). Each source's step-0 sink adds its flushed batches to
// the source's own set; the dispatcher seals the sets once step 0's scans
// are done, and the bound scans read them without locking.
//
// Each entry is charged semiJoinEntryBytes. A pushed step-0 scan's
// estimate is its exact row count, which bounds its distinct subjects, so
// the set reserves that many entries up front and presizes the source's
// map and order: they never grow. Entries past the reservation are
// charged per batch, and seal releases the slots left unfilled. When the
// up-front reservation is refused, every entry is charged per batch. A
// refused per-batch charge overflows the set (srcs becomes nil) and the
// bound scans run unrestricted — exact either way, since the restriction
// only drops rows no join with step 0 can match.
type semiJoinSet struct {
	mu      sync.Mutex
	bud     *mem.Budget
	srcs    []*boundSubjects // by source (step-0 scan) index
	charged int64
}

// boundSubjects is one source's sealed set, which that source's bound
// scans read: has answers the edge walk's membership probes, and order
// lists the same subjects in the order the source's one step-0 scan first
// emitted them. That scan reads its range in store order, so a bound scan
// visits its subjects — and feeds the joins its rows — in the same order
// on every execution (a map range would reshuffle them per query, and the
// join and projection costs with them).
type boundSubjects struct {
	has   map[string]struct{}
	order []string
	// reserved is how many entries the up-front reservation paid for.
	reserved int
	// ords[k] is order[k]'s fact ordinals in the source's store, resolved
	// by the first bound scan that walks the facts and shared by the
	// source's other bound scans (ordinals).
	once sync.Once
	ords [][]int
}

// semiJoinEntryBytes is the accounted cost of one subject: its share of
// the map's slots (a string header each), one string header in the walk
// order and one slice header in the resolved ordinals.
const semiJoinEntryBytes = 80

// newSemiJoinSet returns an empty set with one source per entry of exact:
// that source's exact step-0 row count, or 0 when it is not known.
func newSemiJoinSet(bud *mem.Budget, exact []int) *semiJoinSet {
	total := 0
	for _, n := range exact {
		total += n
	}
	s := &semiJoinSet{bud: bud, srcs: make([]*boundSubjects, len(exact))}
	presize := total > 0 && bud.Reserve(int64(total)*semiJoinEntryBytes)
	if presize {
		s.charged = int64(total) * semiJoinEntryBytes
	}
	for j, n := range exact {
		if !presize {
			n = 0
		}
		s.srcs[j] = &boundSubjects{has: make(map[string]struct{}, n), order: make([]string, 0, n), reserved: n}
	}
	return s
}

// add puts the live subjects of b's column slot into source j's set.
func (s *semiJoinSet) add(j int, b *colBatch, slot int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srcs == nil {
		return
	}
	bs := s.srcs[j]
	live := 0
	for i := 0; i < b.n; i++ {
		if b.live(i) {
			live++
		}
	}
	// Reserve for every live row the up-front reservation's empty slots
	// cannot hold, and give back what the dedup did not use.
	before := len(bs.order)
	free := max(bs.reserved-before, 0)
	cost := int64(max(live-free, 0)) * semiJoinEntryBytes
	if cost > 0 && !s.bud.Reserve(cost) {
		s.srcs = nil
		s.release()
		return
	}
	col := b.cols[slot]
	for i := 0; i < b.n; i++ {
		if !b.live(i) {
			continue
		}
		if _, dup := bs.has[col[i].Str]; !dup {
			bs.has[col[i].Str] = struct{}{}
			bs.order = append(bs.order, col[i].Str)
		}
	}
	used := int64(max(len(bs.order)-before-free, 0)) * semiJoinEntryBytes
	s.bud.Release(cost - used)
	s.charged += used
}

// seal returns the collected sets, or nil after an overflow, and releases
// the reserved slots no subject filled.
func (s *semiJoinSet) seal() []*boundSubjects {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, bs := range s.srcs {
		if unfilled := int64(bs.reserved-len(bs.order)) * semiJoinEntryBytes; unfilled > 0 {
			s.bud.Release(unfilled)
			s.charged -= unfilled
			bs.reserved = len(bs.order)
		}
	}
	return s.srcs
}

// release returns the set's charge once no bound scan reads it.
func (s *semiJoinSet) release() {
	s.bud.Release(s.charged)
	s.charged = 0
}

// ordinals returns each subject's fact ordinals in store, in order's
// order, resolving them on the first call. The subjects are source
// name's, each qualified as name + "." + the store's subject.
func (bs *boundSubjects) ordinals(name string, store *kb.Store) [][]int {
	bs.once.Do(func() {
		bs.ords = make([][]int, len(bs.order))
		for k, subj := range bs.order {
			bs.ords[k] = store.SubjectOrdinals(subj[len(name)+1:])
		}
	})
	return bs.ords
}

// batchEmit adapts scanMatch's (s, p, o) callback into columnar row
// construction: variable positions write their slot on first occurrence
// and enforce equality on repeats ("?x Likes ?x"), constant positions
// were already matched by the scan view, and the report gates the scan
// row counters. Rows are written straight into the staging batch's
// columns; a rejected row never advances n, so its partial writes are
// overwritten by the next row (which writes a superset of the same
// slots).
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

// projRowFrom projects the match of probe row (src, i) with build row j
// without staging it — stageProj.addBatchRow's encoding, dedup and
// charge, with each SELECT cell read from its own side.
func (o *batchOutput) projRowFrom(src *colBatch, i int, bs *buildStore, j int32) {
	o.emitted++
	pp := o.proj
	pp.buf = pp.buf[:0]
	for k, s := range pp.sel {
		if o.selFromBuild[k] {
			pp.buf = rowcodec.AppendValue(pp.buf, bs.cols[s][j])
		} else {
			pp.buf = rowcodec.AppendValue(pp.buf, src.cols[s][i])
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

// probe joins probe batch pb against build store bs, merging every
// key-equal (probe row, build row) pair into the output — the one match
// loop behind the live probe, the probe-overflow and hybrid-prefix
// replays, and every grace-join chunk.
func (o *batchOutput) probe(pb *colBatch, bs *buildStore) {
	if bs.rows() == 0 {
		return // nothing can join
	}
	for i := 0; i < pb.n; i++ {
		h := pb.hashes[i]
		for j := bs.head(h); j >= 0; j = bs.next[j] {
			if bs.keysEqualAt(pb, i, j, o.stp.keySlots) {
				if o.directProj {
					o.projRowFrom(pb, i, bs, j)
				} else {
					o.rowFrom(pb, i, bs, j, h)
				}
			}
		}
	}
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
func (e *Engine) executePlanned(ctx context.Context, q Query, opts Options, tabs []*reformTable) (*Result, error) {
	ps := opts.Trace.Child("plan")
	plan, hit := e.cachedPlan(q, tabs)
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

// executeBatched runs a compiled plan on the columnar batch pipeline —
// any plan: one step or a chain, keyed joins or cross products, one scan
// worker or a pool. A cancelled context rides the same machinery as the
// provably-empty short-circuit: remaining scan dispatch is skipped, the
// stages drain, and ctx.Err() is returned instead of the partial result.
// A spill I/O failure drains the same way and surfaces as the returned
// error.
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
	// or read — which slots are bound is a plan-level property — and this
	// is most of the win over copying full-width rows at every stage
	// boundary.
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
	// spilled and hybrid are 0/1 (SpilledPartitions, HybridJoins).
	type partCounts struct {
		streamed, batches, spilled, hybrid, runs int
		rows, bytes                              int64
	}
	stageCounts := make([][]partCounts, n)
	for si := 1; si < n; si++ {
		stageCounts[si] = make([]partCounts, parts[si])
	}
	// The projected row sets the final merge combines, with their spill
	// counters (spilled: ProjectionSpills): one per last-stage partition,
	// or — on a single-step plan, which has no join stage — one per scan
	// task.
	projN := len(plan.steps[0].scans)
	if n > 1 {
		projN = parts[n-1]
	}
	projParts := make([][]keyedRow, projN)
	projCounts := make([]partCounts, projN)
	finishProj := func(i int, pp *stageProj) {
		rows, err := pp.finish()
		setErr(err)
		projParts[i] = rows
		c := &projCounts[i]
		for _, r := range pp.runs {
			c.spilled = 1
			c.runs++
			c.bytes += r.bytes
		}
	}
	// Filter-pass totals for Stats.SelectivityPct. Plain sums, so atomic
	// accumulation is still deterministic whatever the scheduling.
	var filterInTot, filterKeptTot int64

	// The sideways semi-join: step 0's sinks collect their survivors'
	// subjects, and the dispatcher holds the bound scans until step 0 is
	// done and the set sealed (boundSubj is written before the first
	// bound job is sent, so the workers read it race-free; it stays nil
	// after an overflow).
	var subjects *semiJoinSet
	var boundSubj []*boundSubjects
	if plan.semiJoin {
		exact := make([]int, len(plan.steps[0].scans))
		for j, sc := range plan.steps[0].scans {
			if sc.view.pushed != nil {
				exact[j] = sc.est
			}
		}
		subjects = newSemiJoinSet(bud, exact)
		defer subjects.release()
	}

	// Scan worker pool, shared by every step's scans, dispatched in step
	// order: step 0 feeds upCh[1] directly (hashed on step 1's keys), or
	// its task's own projection when it is the only step; step si>=1
	// feeds its own build side scanCh[si].
	scanWg := make([]sync.WaitGroup, n)
	for si := range plan.steps {
		scanWg[si].Add(len(liveTasks[si]))
	}
	runScan := func(si, j int) {
		defer scanWg[si].Done()
		stp := &plan.steps[si]
		sc := stp.scans[j]
		view := sc.view
		if sc.bound && boundSubj != nil {
			view.boundSubj = boundSubj[j]
		}
		ts := &taskStats[si][j]
		var ss *obs.Span
		if sp := stepSpan(si); sp != nil {
			ss = sp.Child("scan " + sc.name)
			if view.pushed != nil {
				ss.SetAttr("pushed", pushedString(view.pushed))
			}
			if view.boundSubj != nil {
				ss.SetInt("bound_subjects", int64(len(view.boundSubj.order)))
			}
			defer func() {
				ss.SetInt("rows", int64(ts.EdgeRows+ts.FactRows))
				ss.End()
			}()
		}
		snk := &batchScanSink{plan: plan, staging: alloc.get()}
		switch {
		case n == 1:
			snk.filters = filters[0]
			snk.proj = newStageProj(q, plan, bud, projPool, opts.SpillDir)
		case si == 0:
			snk.filters = filters[0]
			snk.slots = stp.nextKeySlots
			snk.rt = newBatchRouter(upCh[1], alloc, boundAfter[0])
			snk.subjects, snk.src = subjects, j
		default:
			snk.slots = stp.keySlots
			snk.rt = newBatchRouter(scanCh[si], alloc, scanRowSlots[si])
		}
		e.scanMatch(sc.name, sc.src, stp.triple, view, ts, true, batchEmit(stp, snk))
		snk.flush()
		alloc.put(snk.staging)
		if snk.rt != nil {
			snk.rt.flush()
			ts.StreamedBatches += snk.rt.batches
		} else {
			finishProj(j, snk.proj)
		}
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
		sealed := false
		for si := 0; si < n; si++ {
			for _, j := range liveTasks[si] {
				if plan.steps[si].scans[j].bound && !sealed {
					// Every step-0 job was handed to a worker (or skipped)
					// before this point, so the wait always ends.
					scanWg[0].Wait()
					boundSubj = subjects.seal()
					sealed = true
				}
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
		if n > 1 {
			for _, ch := range upCh[1] {
				close(ch)
			}
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
	// stage. Degradation is hybrid from the start: a failed build
	// reservation freezes the already-reserved prefix in memory and routes
	// only the overflow to disk. A spilled probe row is written to the
	// probe run before it is ever probed, so the encoded bytes predate any
	// in-place merge; the stage-end sequence below completes the join.
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
				sp := &spillPart{dir: opts.SpillDir, alloc: alloc,
					buildSlots: scanRowSlots[si], probeSlots: boundAfter[si-1]}
				var spillErr error
				fail := func(err error) {
					if err != nil && spillErr == nil {
						spillErr = err
						setErr(err)
					}
				}
				spillProbe := func(b *colBatch) {
					if spillErr == nil {
						fail(sp.probe.addRows(b))
					}
					alloc.put(b)
				}
				takeBuild := func(b *colBatch) {
					defer alloc.put(b)
					if spillErr != nil {
						return
					}
					cost := int64(b.n) * tc
					if sp.build == nil && partBud.Reserve(cost) {
						buildCharged += cost
						bs.appendBatch(b)
						return
					}
					if sp.build == nil {
						// The build side overflows: the reserved prefix
						// stays resident and frozen, build rows from here
						// on go to the build run, and every probe row —
						// the parked ones first — to the probe run.
						if err := sp.ensureBuild(); err != nil {
							fail(err)
							return
						}
						if err := sp.ensureProbe(); err != nil {
							fail(err)
							return
						}
						for _, pb := range pending {
							spillProbe(pb)
						}
						pending = nil
						partBud.Release(pendCharged)
						pendCharged = 0
					}
					fail(sp.build.addRows(b))
				}
				takeProbeEarly := func(b *colBatch) {
					if spillErr == nil && sp.build == nil {
						// A parked batch is spillable retention, not fixed
						// working state: move its capacity charge from the
						// root (taken at alloc.get) into the partition's pool
						// reservation, so a pending batch is accounted once
						// and alloc.put later releases nothing.
						if cost := b.cost; partBud.Reserve(cost) {
							bud.Release(cost)
							b.cost = 0
							pendCharged += cost
							pending = append(pending, b)
							return
						}
						// Pending overflow: the batch goes to the probe run,
						// replayed through the build store at stage end.
						fail(sp.ensureProbe())
					}
					spillProbe(b)
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
				hybrid := sp.build != nil && bs.rows() > 0
				if buildSpan != nil {
					buildSpan.SetAttr("spilled", strconv.FormatBool(sp.build != nil))
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
				// Stage end, one sequence for every partition. Parked
				// batches probe in memory. With a build run, late probe
				// batches must join from disk too, so they append to the
				// probe run. The probe run then replays through the
				// resident store — the frozen prefix, or after a probe
				// overflow alone the whole build side — and a build run
				// grace-joins against the probe run; the two match sets
				// are disjoint because every build row lives on exactly
				// one side. Late batches without a build run probe in
				// memory.
				for _, b := range pending {
					if spillErr == nil {
						o.probe(b, bs)
					}
					alloc.put(b)
				}
				pending = nil
				partBud.Release(pendCharged)
				if sp.build != nil && up != nil {
					for b := range up {
						spillProbe(b)
					}
					up = nil
				}
				if sp.probe != nil && spillErr == nil {
					var spillSpan *obs.Span
					if partSpan != nil {
						spillSpan = partSpan.Child("spill")
					}
					if bs.rows() > 0 {
						fail(sp.probe.replay(alloc, func(pb *colBatch) error {
							o.probe(pb, bs)
							return nil
						}))
					}
					if sp.build != nil && spillErr == nil {
						fail(sp.join(stp, o.probe))
					}
					if spillSpan != nil {
						runs, bytes := sp.totals()
						spillSpan.SetInt("runs", int64(runs))
						spillSpan.SetInt("bytes", bytes)
						spillSpan.End()
					}
				}
				sp.close()
				if up != nil {
					for b := range up {
						if spillErr == nil {
							o.probe(b, bs)
						}
						alloc.put(b)
					}
				}
				bs.release()
				o.flush()
				partBud.Release(buildCharged)
				c := &stageCounts[si][p]
				c.runs, c.bytes = sp.totals()
				if sp.probe != nil {
					c.spilled = 1
				}
				if hybrid {
					c.hybrid = 1
				}
				if o.rt != nil {
					o.rt.flush()
					c.streamed = o.rt.batches
				} else {
					finishProj(p, o.proj)
				}
				if o.out != nil {
					alloc.put(o.out)
				}
				c.batches, c.rows = o.batches, o.rows
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
		for _, c := range stageCounts[si] {
			st.StreamedBatches += c.streamed
			st.Batches += c.batches
			st.BatchRows += int(c.rows)
			st.SpilledPartitions += c.spilled
			st.HybridJoins += c.hybrid
			st.SpillRuns += c.runs
			st.SpilledBytes += c.bytes
		}
	}
	for _, c := range projCounts {
		st.ProjectionSpills += c.spilled
		st.SpillRuns += c.runs
		st.SpilledBytes += c.bytes
	}
	st.StepRows = make([]int, n)
	st.StepDurNs = make([]int64, n)
	for si := 0; si < n; si++ {
		st.StepRows[si] = int(stepOut[si])
		st.StepDurNs[si] = stepDur[si]
	}
	st.ParallelScans += dispatched
	st.ScansCancelled += cancelled
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
	// execution paths. The project span times it (a nil Trace records
	// nothing and allocates nothing).
	st.JoinedRows = int(stepOut[n-1])
	ps := opts.Trace.Child("project")
	res.Rows = mergeSortedKeyed(projParts, bud)
	ps.SetInt("rows", int64(len(res.Rows)))
	ps.End()
	return nil
}
