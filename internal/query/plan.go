package query

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/kb"
	"repro/internal/obs"
)

// Options tune query execution.
type Options struct {
	// Workers bounds the scan worker pool. 0 means GOMAXPROCS; 1 runs
	// the scans one at a time on a single worker (join partitions still
	// run as their own stage goroutines). The pool is per execution, so
	// concurrent Execute calls do not share or contend for workers.
	Workers int
	// Partitions pins the hash-partition count of every join step,
	// decoupled from the scan worker count. 0 lets the planner size each
	// step from its estimate (at most four times the pool); values above
	// the worker count trade goroutines for better load balance under
	// key skew.
	Partitions int
	// Sequential forces the reference execution path: textual join
	// order, unindexed full scans, no plan cache, no parallelism. It
	// exists for determinism tests and benchmarks; results are always
	// byte-identical to the planned path.
	Sequential bool
	// MemoryLimit caps the accounted bytes of one execution (0 = no
	// cap). Every planned execution honours it by degrading: a join
	// partition whose build table (or pending probe queue) cannot
	// reserve its next batch spills both sides to temp-file grace-hash
	// runs and joins partition-by-partition within budget, and a
	// projection dedup set that cannot reserve rotates to sorted runs.
	// Rows are byte-identical with or without a limit. The Sequential
	// reference path neither accounts nor spills (BytesReserved stays 0).
	MemoryLimit int64
	// SpillDir is where grace-hash runs are created ("" = the OS temp
	// directory). Run files are unlinked at creation, so they cannot
	// outlive the process.
	SpillDir string
	// Trace, when non-nil, is the parent span under which the executor
	// records this execution's span tree: plan lookup, every scan
	// fan-out, each join step (with per-partition build/probe/spill
	// sub-spans) and the projection's final merge. The tree is
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
	// bound marks a later step's scan that walks only step 0's surviving
	// subjects (planSemiJoin); est is then the planner's walk estimate.
	bound bool
	// why says why a skipped view is skipped: the triple has no
	// denotation in the source, or pruneDeadSources proved its rows
	// cannot join.
	why string
}

// planStep is one WHERE conjunct with its per-source scans, placed in
// join order by the planner.
type planStep struct {
	triple  Triple
	origIdx int // textual position in the query
	vars    []string
	scans   []sourceScan // in sorted source order
	est     int          // total estimate across sources

	// Slot wiring, all fixed at compile time so execution never
	// re-derives shared variables or builds map keys.
	spec     [3]int  // slot per triple position (S, P, O); -1 = constant
	firstPos [3]bool // position is the first occurrence of its slot in this triple
	keySlots []int   // slots shared with earlier steps (the hash-join key; empty on a cross product), ascending
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
// variable→slot assignment the executor runs on. Plans are immutable
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

	// totalEst is the summed scan estimate across every step, reported
	// on the plan span.
	totalEst int

	// semiJoin reports that some scan is bound: step 0's sinks then
	// collect their surviving subjects (slot steps[0].spec[0]) and the
	// dispatcher holds the bound scans until step 0 is done.
	semiJoin bool
}

// maxCachedPlans bounds the per-engine plan cache; at the cap the cache
// is flushed wholesale (plans are cheap to recompile) so a long-lived
// engine serving ad-hoc query strings cannot grow without limit.
const maxCachedPlans = 512

// planKey renders the WHERE clause into an unambiguous cache key. A plan
// depends on the triples and on the pushable filters, whose constants fix
// the pushed scans' source-unit ranges (pushdown.go); SELECT and every
// other filter apply at execution, so a query without pushable filters
// keys on its triples alone. The key tags every constant with its value
// kind plus length — q.String() alone would collide Term("5") with
// Number(5), whose Format is identical.
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
	for _, f := range pushableFilters(q) {
		fmt.Fprintf(&b, "F%d", f.Op)
		writeTerm(V(f.Var))
		writeTerm(C(f.Value))
	}
	return b.String()
}

// cachedPlan returns the compiled plan for q, building and caching it on
// first use against tabs, the reformulation tables validateEpochs
// published for this query. The bool reports a cache hit.
func (e *Engine) cachedPlan(q Query, tabs []*reformTable) (*execPlan, bool) {
	key := planKey(q)
	e.mu.RLock()
	p := e.plans[key]
	e.mu.RUnlock()
	if p != nil {
		return p, true
	}
	built := e.compile(q, tabs)
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

// qualTerm is term qualified in source name, sharing qt's string when
// the table has one.
func qualTerm(qt map[string]string, name, term string) kb.Value {
	if q, ok := qt[term]; ok {
		return kb.Value{Kind: kb.KindTerm, Str: q}
	}
	return kb.Term(qualify(name, term))
}

// compile reformulates every (triple, source) pair once, pushes the
// pushable filters into the scans that bind their variable, estimates
// scan cardinalities from the ontology and KB indexes (a pushed scan's
// estimate is its exact range count), orders the joins smallest-first,
// binds later scans to step 0's subjects where that is cheaper, and wires
// the slot assignment the executor runs on.
func (e *Engine) compile(q Query, tabs []*reformTable) *execPlan {
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
	pushable := pushableFilters(q)
	for i, t := range q.Where {
		step := planStep{triple: t, origIdx: i, vars: tripleVars(t)}
		var pushed []Filter
		if !t.P.IsVar() && t.O.IsVar() {
			for _, f := range pushable {
				if f.Var == t.O.Var {
					pushed = append(pushed, f)
				}
			}
		}
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
		for j, name := range e.names {
			src := e.sources[name]
			sc := sourceScan{name: name, src: src, view: e.compileView(tabs[j], name, t, &p.expand)}
			if sc.view.skip {
				sc.why = "no denotation"
			}
			// Pre-sort the constant sets once; the indexed scans walk
			// them on every execution.
			sc.view.predList = sortedSet(sc.view.preds)
			sc.view.subjList = sortedSet(sc.view.subj)
			if sc.view.pushed = e.pushScan(sc.view, pushed); sc.view.pushed != nil {
				sc.est = e.pushedCount(name, sc.view)
			} else {
				sc.est = e.estimateScan(name, src, sc.view)
			}
			step.scans = append(step.scans, sc)
			step.est += sc.est
		}
		p.steps = append(p.steps, step)
	}
	e.pruneDeadSources(p.steps)
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
	if !e.dottedNames {
		p.planSemiJoin()
	}
	for i := range p.steps {
		if i+1 < len(p.steps) {
			p.steps[i].nextKeySlots = p.steps[i+1].keySlots
			p.steps[i].alignedNext = i > 0 && slices.Equal(p.steps[i].keySlots, p.steps[i].nextKeySlots)
		}
		p.totalEst += p.steps[i].est
	}
	p.adaptiveParts()
	return p
}

// pruneDeadSources skips the scans whose rows provably cannot join. A
// source qualifies every term it emits as "source.term", so a subject
// from source S only ever equals another subject from S. When one step
// whose subject is the variable ?x has a provably empty scan of S, no
// answer binds ?x to a term of S, and every scan of S in a step whose
// subject is ?x feeds only rows that die at that join: each is skipped
// (est 0). A scan is provably empty when its view is skipped, or when
// none of the predicates it matches has a fact or an edge in the source.
//
// The argument needs a qualified subject to name its source, which holds
// only when no source name contains a dot: with sources "a" and "a.b",
// a's "b.x" and a.b's "x" are one string. So the prune is off on such an
// engine. A plan is dropped at any epoch move (validateEpochs), so an
// append that gives S one of the predicates un-prunes S at the next
// query.
func (e *Engine) pruneDeadSources(steps []planStep) {
	if e.dottedNames {
		return
	}
	dead := make(map[string][]string) // subject variable → per source, why it cannot bind ("" = it may)
	for _, st := range steps {
		if !st.triple.S.IsVar() {
			continue
		}
		v := st.triple.S.Var
		if dead[v] == nil {
			dead[v] = make([]string, len(st.scans))
		}
		for j, sc := range st.scans {
			if dead[v][j] != "" {
				continue
			}
			if why := e.emptyBecause(sc, st.triple); why != "" {
				dead[v][j] = why + ": ?" + v + " cannot join"
			}
		}
	}
	for i := range steps {
		st := &steps[i]
		if !st.triple.S.IsVar() {
			continue
		}
		why := dead[st.triple.S.Var]
		st.est = 0
		for j := range st.scans {
			sc := &st.scans[j]
			if why[j] != "" && !sc.view.skip {
				sc.view.skip, sc.est, sc.why = true, 0, why[j]
			}
			st.est += sc.est
		}
	}
}

// emptyBecause says why scan sc of triple t provably emits no row, or ""
// when it may emit some.
func (e *Engine) emptyBecause(sc sourceScan, t Triple) string {
	if sc.view.skip {
		return "no denotation of " + t.String()
	}
	if sc.view.predList == nil {
		return ""
	}
	edges := e.index(sc.name).edges
	facts := sc.src.KB != nil && sc.name != e.art.Ont.Name()
	for _, p := range sc.view.predList {
		if len(edges[p]) > 0 || facts && sc.src.KB.CountByPredicate(p) > 0 {
			return ""
		}
	}
	return "no " + strings.Join(sc.view.predList, "/") + " facts"
}

// planSemiJoin binds later scans to step 0's surviving subjects — the
// sideways semi-join. It applies when step 0 carries a pushed range
// (its estimate is then an exact count) and a later step's subject is
// step 0's subject variable: that step can only join rows whose subject
// step 0 emitted, so its scan may walk those subjects' facts through the
// subject index instead of the whole predicate. A scan is bound when the
// walk is cheaper than the scan's predicate-index estimate (one visit per
// fact): per step-0 row in the same source the walk pays one subject-set
// insert and one subject-index probe, plus the source's facts per
// subject. A bound scan walks only its own source's step-0 subjects,
// which is exact by pruneDeadSources' argument, so compile binds nothing
// on an engine with a dotted source name.
func (p *execPlan) planSemiJoin() {
	if len(p.steps) < 2 {
		return
	}
	s0 := &p.steps[0]
	xs := s0.spec[0]
	pushed := false
	for _, sc := range s0.scans {
		pushed = pushed || sc.view.pushed != nil
	}
	if xs < 0 || !pushed {
		return
	}
	for si := 1; si < len(p.steps); si++ {
		st := &p.steps[si]
		if st.spec[0] != xs {
			continue
		}
		st.est = 0
		for j := range st.scans {
			sc := &st.scans[j]
			store := sc.src.KB
			if !sc.view.skip && sc.view.preds != nil && store != nil && store.NumSubjects() > 0 {
				// ⌈count × facts / subjects⌉, the facts the walk visits.
				n := s0.scans[j].est
				walk := (n*store.Len() + store.NumSubjects() - 1) / store.NumSubjects()
				if 2*n+walk < sc.est {
					sc.bound, sc.est = true, walk
					p.semiJoin = true
				}
			}
			st.est += sc.est
		}
	}
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
		idx := e.index(name).edges
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
