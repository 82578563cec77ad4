package query

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/kb"
	"repro/internal/obs"
)

// Options tune query execution.
type Options struct {
	// Workers bounds the scan worker pool. 0 means GOMAXPROCS; 1 runs
	// every scan inline (no goroutines). The pool is per execution, so
	// concurrent Execute calls do not share or contend for workers.
	Workers int
	// Partitions pins the hash-partition count of every partitioned
	// join, decoupled from the scan worker count. 0 lets the planner
	// size each step from its estimate; values above the worker count
	// trade goroutines for better load balance under key skew. Ignored
	// when the pool has a single worker (joins run inline).
	Partitions int
	// Sequential forces the reference execution path: textual join
	// order, unindexed full scans, no plan cache, no parallelism. It
	// exists for determinism tests and benchmarks; results are always
	// byte-identical to the planned path.
	Sequential bool
	// MemoryLimit caps the accounted bytes of one execution (0 = no
	// cap). The pipelined executor honours it by degrading: a join
	// partition whose build table (or pending probe queue) cannot
	// reserve its next batch spills both sides to temp-file grace-hash
	// runs and joins partition-by-partition within budget, and a
	// budgeted execution always pipelines when the plan allows it (the
	// shallow-chain fast path is bypassed — only the pipeline can
	// spill). Rows are byte-identical with or without a limit. The
	// per-step tuple executor (single worker, single step, cross
	// product) accounts its materialised frontiers in
	// Stats.BytesReserved but never spills; the Sequential reference
	// path neither accounts nor spills (BytesReserved stays 0).
	MemoryLimit int64
	// SpillDir is where grace-hash runs are created ("" = the OS temp
	// directory). Run files are unlinked at creation, so they cannot
	// outlive the process.
	SpillDir string
	// Trace, when non-nil, is the parent span under which the executor
	// records this execution's span tree: plan lookup, every scan
	// fan-out, each join step (with per-partition build/probe/spill
	// sub-spans on the pipelined path) and the projection. The tree is
	// also attached to Result.Trace. A nil Trace disables tracing
	// entirely — the executor performs no span work and allocates
	// nothing for it, so the hot paths are unchanged.
	Trace *obs.Span
}

// sourceScan is one (triple, source) unit of work in a compiled plan.
type sourceScan struct {
	name string
	src  *Source
	view scanView
	est  int // estimated result rows (selectivity probe)
}

// planStep is one WHERE conjunct with its per-source scans, placed in
// join order by the planner.
type planStep struct {
	triple  Triple
	origIdx int // textual position in the query
	vars    []string
	scans   []sourceScan // in sorted source order
	est     int          // total estimate across sources

	// Slot wiring for the tuple executor, all fixed at compile time so
	// execution never re-derives shared variables or builds map keys.
	spec     [3]int  // slot per triple position (S, P, O); -1 = constant
	firstPos [3]bool // position is the first occurrence of its slot in this triple
	keySlots []int   // slots shared with earlier steps (the hash-join key), ascending
	newSlots []int   // slots first bound by this step, ascending

	// nextKeySlots is the following step's keySlots (nil on the last
	// step): the cross-step pipeline re-hashes this step's probe output
	// on them at production time and streams it straight into the next
	// step's partition channels, so downstream never re-encodes keys.
	nextKeySlots []int
	// partHint is the planner's hash-partition count for this step's
	// join, derived from the scan estimates (see adaptiveParts): wider
	// fan-out for the heaviest step, a single partition for provably
	// small builds. Options{Partitions} overrides it globally, and the
	// executor clamps it to the resolved worker pool (stepPartCount).
	partHint int
	// alignedNext reports nextKeySlots == keySlots (a chain joining on
	// the same variables throughout). The pipeline then forwards probe
	// output under its incoming key hash — partitions align across the
	// steps and no key is ever re-encoded between them.
	alignedNext bool
}

// execPlan is a compiled query: per-source constant expansions hoisted
// out of the scan loops, selectivity estimates, the join order, and the
// variable→slot assignment of the tuple executor. Plans are immutable
// once built and cached per engine, so repeated queries skip the
// articulation-expansion work entirely.
type execPlan struct {
	steps     []planStep
	reordered int   // steps executed off their textual position
	expand    Stats // expansion counters accrued while compiling

	// slotOf assigns every WHERE variable a fixed tuple index, in
	// first-occurrence (textual) order; slotNames is the inverse. SELECT
	// and FILTER variables resolve through the same table (Validate
	// guarantees they occur in WHERE), so the assignment depends only on
	// the cache key.
	slotOf    map[string]int
	slotNames []string

	// chainKeyed reports that every step after the first hash-joins on a
	// non-empty key — the shape the cross-step pipeline executes; a
	// disconnected cross-product step forces the per-step path.
	chainKeyed bool
	// totalEst is the summed scan estimate across every step — the
	// planner's proxy for how much work the pipeline can overlap, used by
	// the shallow-chain executor choice.
	totalEst int
}

// maxCachedPlans bounds the per-engine plan cache; at the cap the cache
// is flushed wholesale (plans are cheap to recompile) so a long-lived
// engine serving ad-hoc query strings cannot grow without limit.
const maxCachedPlans = 512

// planKey renders the WHERE clause into an unambiguous cache key. A plan
// depends only on the triples (SELECT and FILTER apply at execution), and
// the key tags every constant with its value kind plus length — q.String()
// alone would collide Term("5") with Number(5), whose Format is identical.
func planKey(q Query) string {
	var b strings.Builder
	writeTerm := func(t Term) {
		if t.IsVar() {
			fmt.Fprintf(&b, "?%d:%s\x00", len(t.Var), t.Var)
			return
		}
		s := t.Value.Format()
		fmt.Fprintf(&b, "%d:%d:%s\x00", t.Value.Kind, len(s), s)
	}
	for _, tr := range q.Where {
		writeTerm(tr.S)
		writeTerm(tr.P)
		writeTerm(tr.O)
	}
	return b.String()
}

// cachedPlan returns the compiled plan for q, building and caching it on
// first use. The bool reports a cache hit.
func (e *Engine) cachedPlan(q Query) (*execPlan, bool) {
	key := planKey(q)
	e.mu.RLock()
	p := e.plans[key]
	e.mu.RUnlock()
	if p != nil {
		return p, true
	}
	built := e.compile(q)
	e.mu.Lock()
	if p = e.plans[key]; p == nil {
		if len(e.plans) >= maxCachedPlans {
			e.plans = make(map[string]*execPlan)
		}
		e.plans[key] = built
		p = built
	}
	e.mu.Unlock()
	return p, false
}

// InvalidateCache drops the compiled plans and every per-source index
// (edges, qualified names, fact-ordinal qualifications).
// Since per-source epoch validation landed, calling it after mutating a
// source is no longer required — every query validates the caches
// against the sources' epochs and heals exactly the stale state — so
// this remains only as a forced wholesale flush (for example after
// swapping in state the epochs cannot see, such as replacing a Source's
// Ont or KB pointer in place).
func (e *Engine) InvalidateCache() {
	e.mu.Lock()
	e.plans = make(map[string]*execPlan)
	e.edgeIdx = make(map[string]map[string][]graph.Edge)
	e.qualIdx = make(map[string]map[string]string)
	e.factQIdx = make(map[string][]factQual)
	e.sourceEpochs(e.epochs)
	e.mu.Unlock()
}

// edgeIndex returns the label → edges index for one source, building it
// lazily on first use.
func (e *Engine) edgeIndex(name string) map[string][]graph.Edge {
	e.mu.RLock()
	idx := e.edgeIdx[name]
	e.mu.RUnlock()
	if idx != nil {
		return idx
	}
	g := e.sources[name].Ont.Graph()
	built := make(map[string][]graph.Edge)
	for _, edge := range g.Edges() {
		built[edge.Label] = append(built[edge.Label], edge)
	}
	e.mu.Lock()
	if idx = e.edgeIdx[name]; idx == nil {
		e.edgeIdx[name] = built
		idx = built
	}
	e.mu.Unlock()
	return idx
}

// qualTable returns the term → source-qualified-name table for one
// source, building it lazily on first use (ontology labels, KB subjects
// and term-valued objects). Indexed scans qualify every emitted term
// through it instead of concatenating a fresh string per row; the table
// is immutable once built, so scans read it without locking.
func (e *Engine) qualTable(name string) map[string]string {
	e.mu.RLock()
	t := e.qualIdx[name]
	e.mu.RUnlock()
	if t != nil {
		return t
	}
	src := e.sources[name]
	built := make(map[string]string)
	g := src.Ont.Graph()
	for _, id := range g.Nodes() {
		l := g.Label(id)
		built[l] = qualify(name, l)
	}
	if src.KB != nil {
		src.KB.ForEach(func(f kb.Fact) bool {
			if _, ok := built[f.Subject]; !ok {
				built[f.Subject] = qualify(name, f.Subject)
			}
			if f.Object.IsTerm() {
				if _, ok := built[f.Object.Str]; !ok {
					built[f.Object.Str] = qualify(name, f.Object.Str)
				}
			}
			return true
		})
	}
	e.mu.Lock()
	if t = e.qualIdx[name]; t == nil {
		e.qualIdx[name] = built
		t = built
	}
	e.mu.Unlock()
	return t
}

// factQuals returns the fact-ordinal-aligned qualification cache for one
// source's KB: entry i holds fact i's subject (and term object) already
// qualified, sharing the qualTable's strings. Indexed scans emit through
// it with a slice index instead of a map probe per fact — on the
// join-heavy worlds that probe was the single largest per-row scan cost.
// Built lazily under the same epoch discipline as qualTable; facts
// appended after the build (ordinals past the cache's length) fall back
// to the table.
func (e *Engine) factQuals(name string) []factQual {
	e.mu.RLock()
	fq := e.factQIdx[name]
	e.mu.RUnlock()
	if fq != nil {
		return fq
	}
	src := e.sources[name]
	if src.KB == nil {
		return nil
	}
	qt := e.qualTable(name)
	qual := func(term string) kb.Value {
		if q, ok := qt[term]; ok {
			return kb.Value{Kind: kb.KindTerm, Str: q}
		}
		return kb.Term(qualify(name, term))
	}
	built := make([]factQual, 0, src.KB.Len())
	src.KB.ForEach(func(f kb.Fact) bool {
		q := factQual{subj: qual(f.Subject)}
		if f.Object.IsTerm() {
			q.obj = qual(f.Object.Str)
		}
		built = append(built, q)
		return true
	})
	e.mu.Lock()
	if fq = e.factQIdx[name]; fq == nil {
		e.factQIdx[name] = built
		fq = built
	}
	e.mu.Unlock()
	return fq
}

// compile reformulates every (triple, source) pair once, estimates scan
// cardinalities from the ontology and KB indexes, orders the joins
// smallest-first, and wires the slot assignment the tuple executor runs
// on.
func (e *Engine) compile(q Query) *execPlan {
	p := &execPlan{slotOf: make(map[string]int)}
	// Assign slots in textual first-occurrence order, so the assignment
	// is a pure function of the WHERE clause (the plan cache key).
	for _, t := range q.Where {
		for _, term := range [3]Term{t.S, t.P, t.O} {
			if term.IsVar() {
				if _, ok := p.slotOf[term.Var]; !ok {
					p.slotOf[term.Var] = len(p.slotNames)
					p.slotNames = append(p.slotNames, term.Var)
				}
			}
		}
	}
	for i, t := range q.Where {
		step := planStep{triple: t, origIdx: i, vars: tripleVars(t)}
		occupied := make(map[int]bool, 3)
		for pos, term := range [3]Term{t.S, t.P, t.O} {
			step.spec[pos] = -1
			if term.IsVar() {
				sl := p.slotOf[term.Var]
				step.spec[pos] = sl
				step.firstPos[pos] = !occupied[sl]
				occupied[sl] = true
			}
		}
		for _, name := range e.names {
			src := e.sources[name]
			sc := sourceScan{name: name, src: src, view: e.compileView(name, t, &p.expand)}
			// Pre-sort the constant sets once; the indexed scans walk
			// them on every execution.
			sc.view.predList = sortedSet(sc.view.preds)
			sc.view.subjList = sortedSet(sc.view.subj)
			sc.est = e.estimateScan(name, src, sc.view)
			step.scans = append(step.scans, sc)
			step.est += sc.est
		}
		p.steps = append(p.steps, step)
	}
	p.steps, p.reordered = orderSteps(p.steps)
	// With the join order fixed, split each step's slots into the join
	// key (already bound upstream) and the slots it binds first.
	boundSlot := make([]bool, len(p.slotNames))
	for i := range p.steps {
		step := &p.steps[i]
		for _, v := range step.vars {
			sl := p.slotOf[v]
			if boundSlot[sl] {
				step.keySlots = append(step.keySlots, sl)
			} else {
				step.newSlots = append(step.newSlots, sl)
			}
		}
		sort.Ints(step.keySlots)
		sort.Ints(step.newSlots)
		for _, sl := range step.newSlots {
			boundSlot[sl] = true
		}
	}
	p.chainKeyed = true
	for i := range p.steps {
		if i > 0 && len(p.steps[i].keySlots) == 0 {
			p.chainKeyed = false
		}
		if i+1 < len(p.steps) {
			p.steps[i].nextKeySlots = p.steps[i+1].keySlots
			p.steps[i].alignedNext = i > 0 && slices.Equal(p.steps[i].keySlots, p.steps[i].nextKeySlots)
		}
		p.totalEst += p.steps[i].est
	}
	p.adaptiveParts()
	return p
}

// Adaptive partition sizing: instead of one global hash-partition count,
// the planner sizes every join step from its own scan estimate.
const (
	// partitionRowTarget is the build-row volume one partition is sized
	// to absorb; a step estimated at k·target rows fans out k ways.
	partitionRowTarget = 1024
	// maxPartHint bounds the planner's raw fan-out before the executor
	// clamps it to the resolved worker pool.
	maxPartHint = 64
)

// adaptiveParts derives every join step's hash-partition hint from the
// planner's scan estimates, skew-aware: the heaviest step of a deeper
// chain gets twice the proportional fan-out (its build and probe volume
// dominate the wall clock, and extra partitions shrink the largest build
// table — the one a memory budget would otherwise spill first), while a
// provably small build collapses to a single partition (partitioning
// overhead would exceed the join). Options{Partitions} overrides all
// hints globally; stepPartCount applies the override and the worker
// clamp at execution time.
func (p *execPlan) adaptiveParts() {
	maxEst := 0
	for i := 1; i < len(p.steps); i++ {
		if p.steps[i].est > maxEst {
			maxEst = p.steps[i].est
		}
	}
	for i := 1; i < len(p.steps); i++ {
		st := &p.steps[i]
		hint := (st.est + partitionRowTarget - 1) / partitionRowTarget
		if st.est == maxEst && len(p.steps) > 2 {
			hint *= 2
		}
		if hint < 1 {
			hint = 1
		}
		if hint > maxPartHint {
			hint = maxPartHint
		}
		st.partHint = hint
	}
}

// stepPartCount resolves one join step's hash-partition count for an
// execution: an explicit Options{Partitions} pins every step; otherwise
// the planner's estimate-derived hint applies, clamped to four times the
// worker pool (beyond that, extra partitions only add channel wiring).
func (p *execPlan) stepPartCount(si int, opts Options, workers int) int {
	if opts.Partitions > 0 {
		return opts.Partitions
	}
	h := p.steps[si].partHint
	if lim := 4 * workers; h > lim {
		h = lim
	}
	if h < 1 {
		h = 1
	}
	return h
}

// Shallow-chain executor choice: a chain of at most shallowJoinSteps
// keyed joins only ties the per-step executor unless there is enough
// scan volume for cross-step overlap to repay the pipeline's fixed setup
// (per-stage partition workers, channel wiring, batch routing). The
// planner's summed scan estimate is the cost proxy: below
// shallowPipelineMinEst the per-step executor (exec.go) runs instead. Deeper chains always pipeline — each extra step is another
// materialisation barrier avoided.
//
// shallowPipelineMinEst is calibrated, not guessed: a best-of-7 sweep of
// two-keyed-join chains on the E13 world shape (buildChainWorld at
// 8 sources, 3 triples, dup 2, instances 4..96; 8 workers, the E11/E13
// methodology — warm plan, GC between reps) measured barrier/pipeline
// wall-clock ratios of ~0.95-1.1x (noise) for summed estimates up to
// ~2240, then a clean break: ~1.4-1.6x at 2560 and ~1.7-2.2x from 2880
// up, stable across repeated sweeps. The constant sits just below the
// measured break because the mistake costs are asymmetric there — under
// it the barrier wins by at most ~5%, above it the pipeline's margin
// grows quickly with volume. The seed value 4096 left the 2560-3840
// band (a reliable ~1.5-1.9x pipeline win) on the slow executor.
const (
	shallowJoinSteps      = 2
	shallowPipelineMinEst = 2400
)

// pipelines reports whether the given options execute this plan on the
// columnar batch pipeline (batchpipe.go) — the one dispatch predicate
// shared by executeTuples and Explain, so the explanation can never drift
// from what the engine actually runs. Shallow keyed chains fall back to
// the per-step executor when the planner's cost estimate says the
// pipeline's setup would not pay for itself.
func (p *execPlan) pipelines(opts Options, workers int) bool {
	if !(workers > 1 && !opts.Sequential && p.chainKeyed && len(p.steps) > 1) {
		return false
	}
	// A budgeted execution always pipelines when the plan allows it:
	// only the pipeline can degrade to grace-hash spilling, so the
	// shallow fast path would trade the memory bound for a few
	// microseconds of setup.
	if opts.MemoryLimit > 0 {
		return true
	}
	if len(p.steps)-1 <= shallowJoinSteps && p.totalEst < shallowPipelineMinEst {
		return false
	}
	return true
}

// estimateScan predicts how many rows the scan will produce, using the
// per-label edge index and the KB's cardinality probes. Constant
// positions tighten the estimate; a skipped view costs nothing.
func (e *Engine) estimateScan(name string, src *Source, v scanView) int {
	if v.skip {
		return 0
	}
	g := src.Ont.Graph()
	edges := g.NumEdges()
	if v.preds != nil {
		idx := e.edgeIndex(name)
		edges = 0
		for p := range v.preds {
			edges += len(idx[p])
		}
	}
	if v.subj != nil {
		deg := 0
		for s := range v.subj {
			if id, ok := g.NodeByLabel(s); ok {
				deg += g.OutDegree(id)
			}
		}
		if deg < edges {
			edges = deg
		}
	}
	facts := 0
	if src.KB != nil && name != e.art.Ont.Name() {
		facts = src.KB.Len()
		if v.preds != nil {
			facts = 0
			for p := range v.preds {
				facts += src.KB.CountByPredicate(p)
			}
		}
		if v.subj != nil {
			bySubj := 0
			for s := range v.subj {
				bySubj += src.KB.CountBySubject(s)
			}
			if bySubj < facts {
				facts = bySubj
			}
		}
	}
	return edges + facts
}

// orderSteps greedily orders the join: the most selective step first,
// then repeatedly the cheapest step sharing a variable with what is
// already bound (hash-joinable), falling back to the cheapest remaining
// step when nothing connects. Ties keep textual order, so the order is
// deterministic. Returns the order and how many steps moved.
func orderSteps(steps []planStep) ([]planStep, int) {
	n := len(steps)
	if n < 2 {
		return steps, 0
	}
	used := make([]bool, n)
	bound := make(map[string]bool)
	out := make([]planStep, 0, n)
	for len(out) < n {
		best := -1
		bestConn := false
		for i, st := range steps {
			if used[i] {
				continue
			}
			conn := len(bound) == 0 || sharesVar(st.vars, bound)
			switch {
			case best == -1:
				best, bestConn = i, conn
			case conn && !bestConn:
				best, bestConn = i, conn
			case conn == bestConn && st.est < steps[best].est:
				best, bestConn = i, conn
			}
		}
		used[best] = true
		out = append(out, steps[best])
		for _, v := range steps[best].vars {
			bound[v] = true
		}
	}
	moved := 0
	for i, st := range out {
		if st.origIdx != i {
			moved++
		}
	}
	return out, moved
}

func sharesVar(vars []string, bound map[string]bool) bool {
	for _, v := range vars {
		if bound[v] {
			return true
		}
	}
	return false
}

func tripleVars(t Triple) []string {
	var vs []string
	seen := make(map[string]bool, 3)
	for _, term := range []Term{t.S, t.P, t.O} {
		if term.IsVar() && !seen[term.Var] {
			seen[term.Var] = true
			vs = append(vs, term.Var)
		}
	}
	return vs
}
