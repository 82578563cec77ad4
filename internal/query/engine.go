package query

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/articulation"
	"repro/internal/graph"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/rowcodec"
)

// Source is one knowledge source: an ontology and (optionally) the
// knowledge base beneath it, plus the one record of scan indexes derived
// from it, which every engine over the same *Source shares. A Source must
// not be copied after first use.
type Source struct {
	Ont *ontology.Ontology
	KB  *kb.Store
	mu  sync.RWMutex
	rec *sourceIndex // as of rec.state; written by heal and numIndex
}

// Stats counts the work one execution performed; the query benchmarks
// (BenchmarkQueryArticulationLevel and its neighbours) report these
// alongside wall-clock times.
type Stats struct {
	// SourceScans is the number of per-source triple scans.
	SourceScans int
	// EdgeRows / FactRows count rows produced from ontology edges and KB
	// facts respectively.
	EdgeRows int
	FactRows int
	// JoinedRows counts rows surviving all joins (before projection).
	JoinedRows int
	// Conversions counts functional-bridge value conversions applied.
	Conversions int
	// ExpandedTerms counts articulation-term → source-term expansions.
	ExpandedTerms int
	// PlanCacheHit reports whether a cached compiled plan was reused
	// (always false on the sequential path, which does not plan).
	PlanCacheHit bool
	// ReorderedTriples counts WHERE conjuncts the planner executed off
	// their textual position (selectivity-ordered joins).
	ReorderedTriples int
	// ParallelScans counts per-source scans dispatched to the worker
	// pool (0 on the Sequential reference path).
	ParallelScans int
	// Workers is the scan worker-pool size the execution used (1 on the
	// Sequential reference path).
	Workers int
	// StreamedBatches counts column batches streamed into the joins —
	// from scans and from step to step (0 on a single-step plan).
	StreamedBatches int
	// StepPartitions records each step's hash-partition count in join
	// order (0 for the leading scan step; nil on the Sequential
	// reference path and on plans the batch pipeline does not run). Its
	// length less one is the number of join steps that received their
	// probe input streamed from the previous step, and its maximum is
	// the widest join's partition count. The counts are planner-derived
	// per step unless Options{Partitions} pins them all, and decouple
	// from Workers either way.
	StepPartitions []int
	// ScansCancelled counts source scans whose dispatch was skipped
	// because a pipeline step's output was provably empty — the
	// pipelined form of the empty-join short-circuit. Timing-dependent
	// (an in-flight scan runs to completion), unlike the row counters,
	// which are deterministic.
	ScansCancelled int
	// BytesReserved is the peak accounted bytes of the execution's
	// memory budget (internal/query/mem): build tables, pending probe
	// queues, arena blocks, projection dedup sets and spill buffers.
	// Reported whether or not Options{MemoryLimit} caps it (0 on the
	// sequential reference path, which does not account).
	BytesReserved int64
	// SpilledPartitions counts join partitions that spilled rows to
	// disk under Options{MemoryLimit} — a pending probe queue
	// overflowing to a run (build table still in memory), or the full
	// grace-hash degrade when the build table itself could not reserve.
	// Deterministic: 0 without a limit; > 0 whenever one join step's
	// build side alone exceeds the shared pool (MemoryLimit/2), since a
	// step's partitions hold their build rows concurrently; equal to
	// the step's partition count when every partition's build side
	// does. Which partitions lose a reservation otherwise is decided by
	// arrival order in the first-come pool, so between those bounds the
	// count varies run to run.
	SpilledPartitions int
	// SpillRuns counts the temp-file runs created: at most one build and
	// one probe run per spilled join partition, plus one run per
	// projection rotation (ProjectionSpills).
	SpillRuns int
	// SpilledBytes counts bytes written to the SpillRuns runs (record
	// framing included). Deterministic for a given spilled-partition
	// set; 0 without a memory limit.
	SpilledBytes int64
	// Batches counts the column batches the planned executor produced
	// (scan-side and stage-output batches; 0 on the Sequential path).
	// Deterministic: batch boundaries are fixed by per-producer row
	// counts and the batch capacity, not by scheduling.
	Batches int
	// BatchRows counts the rows those batches carried before selection
	// masks dropped filtered rows — alongside Batches it gives the
	// realised batch fill (BatchRows/Batches) on the batch path.
	BatchRows int
	// SelectivityPct is the percentage of rows entering the batch
	// executor's vectorized filter passes that survived them (100 when
	// no filter applied; 0 only when every filtered row dropped).
	// Deterministic, like the row counters it derives from.
	SelectivityPct float64
	// HybridJoins counts join partitions that degraded as hybrid
	// grace-hash joins: the build prefix already reserved stayed in
	// memory and only the overflow spilled to runs. Deterministic: 0
	// without a limit; never above SpilledPartitions; > 0 when every
	// partition's build side exceeds the pool and the limit covers the
	// probe side plus the batch pool's fixed state, so the first build
	// batch always reserves (TestHybridGraceJoin's world). Otherwise a
	// partition keeps a prefix only if a build batch lands before early
	// probe batches fill the pool — a race, and the count can be 0.
	HybridJoins int
	// ProjectionSpills counts last-stage partitions whose streaming
	// projection dedup set could not reserve and degraded to sorted
	// spill runs merged (and deduplicated) at stage end. The runs and
	// bytes count in SpillRuns/SpilledBytes.
	ProjectionSpills int
	// StepRows records each planned step's emitted row count in join
	// order, after the filters that first apply at that step — the
	// actuals EXPLAIN ANALYZE reports against the planner estimates.
	// Deterministic; nil on the Sequential reference path, which does not
	// run the planned executors' step machinery.
	StepRows []int
	// StepDurNs records each planned step's wall-clock duration in
	// nanoseconds, in join order. On the pipelined path all steps run
	// concurrently from execution start, so durations overlap rather
	// than sum. Timing-dependent by nature; nil where StepRows is nil.
	StepDurNs []int64
}

// accrue adds the order-independent work counters of s into dst. The
// parallel executor gives every scan task a private Stats and merges
// them deterministically afterwards.
func (dst *Stats) accrue(s Stats) {
	dst.EdgeRows += s.EdgeRows
	dst.FactRows += s.FactRows
	dst.Conversions += s.Conversions
	dst.ExpandedTerms += s.ExpandedTerms
	dst.StreamedBatches += s.StreamedBatches
	dst.Batches += s.Batches
	dst.BatchRows += s.BatchRows
}

// Result is a query answer: variable names and value rows, deterministic
// order, duplicates removed.
type Result struct {
	Vars  []string
	Rows  [][]kb.Value
	Stats Stats
	// Trace is the execution's recorded span tree when Options.Trace
	// enabled tracing; nil otherwise. It is settled by the time the
	// Result is returned and safe to marshal or render.
	Trace *obs.Span `json:"trace,omitempty"`
}

// EqualRows reports whether two results carry the same variables and
// cell-identical rows in the same order — the determinism contract
// between the sequential and the planned/parallel execution paths.
// Cells compare kind-strictly (rowcodec.SameCell), so an executor that
// returned Term("3000") where another returned Number(3000) is detected
// as a divergence even though both cells format identically.
func (r *Result) EqualRows(o *Result) bool {
	if o == nil || len(r.Vars) != len(o.Vars) || len(r.Rows) != len(o.Rows) {
		return false
	}
	for i := range r.Vars {
		if r.Vars[i] != o.Vars[i] {
			return false
		}
	}
	for i := range r.Rows {
		if len(r.Rows[i]) != len(o.Rows[i]) {
			return false
		}
		for j := range r.Rows[i] {
			if !rowcodec.SameCell(r.Rows[i][j], o.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// Engine executes articulation-level queries against the sources by
// reformulating each triple through the semantic bridges.
//
// An Engine is safe for concurrent Execute and Explain calls. It caches
// compiled plans and one reformulation table per source, and reads each
// source's shared record of scan indexes (Source); all are validated
// against the sources' and the function registry's state at every query,
// so mutating either underneath live engines is self-healing.
// Facts appended to a source's knowledge base extend its record from the
// last-seen fact ordinal; any other change replaces the record whole. No
// source may be mutated while any engine reading it executes.
type Engine struct {
	art     *articulation.Articulation
	sources map[string]*Source
	names   []string // sorted source names, articulation first
	id      uint64   // process-unique engine identity (EpochKey component)
	// dottedNames reports that some source name contains a dot, so a
	// qualified term no longer names its source (pruneDeadSources).
	dottedNames bool

	mu         sync.RWMutex
	plans      map[string]*execPlan
	compiledAt []srcState     // per source in names order, the record states plans were compiled at
	reformAt   [2]uint64      // the articulation ontology's and the registry's epochs, likewise
	tables     []*reformTable // per source in names order, built at compiledAt and reformAt
}

// srcState is what one source's record was built against: the ontology
// (identity and epoch) and the knowledge base (identity, length and
// epoch). sourceEpoch folds the two epochs into the source's EpochKey
// component; heal needs them apart to tell an append from any
// other change.
type srcState struct {
	ont   *ontology.Ontology
	ontEp uint64
	kb    *kb.Store
	kbLen int
	kbEp  uint64
}

// stateOf reads src's current state.
func stateOf(src *Source) srcState {
	st := srcState{ont: src.Ont, ontEp: src.Ont.Epoch(), kb: src.KB}
	if src.KB != nil {
		st.kbLen, st.kbEp = src.KB.Len(), src.KB.Epoch()
	}
	return st
}

// appendedTo reports whether cur is st plus facts appended to the same
// store under the same ontology. Every effective insert appends exactly
// one fact and bumps the epoch once, so the store only grew when its
// length rose by exactly its epoch delta.
func (st srcState) appendedTo(cur srcState) bool {
	return st.ont == cur.ont && st.ontEp == cur.ontEp && st.kb == cur.kb && st.kb != nil &&
		cur.kbLen > st.kbLen && uint64(cur.kbLen-st.kbLen) == cur.kbEp-st.kbEp
}

// sourceIndex is everything indexed scans derive from one source, as of
// state: the edge-label index and the ontology half of the qualification
// table, which depend on the ontology alone; the KB half of that table and
// the fact-ordinal cache, which extend fills over a range of fact
// ordinals; and the numeric indexes numIndex has built so far.
type sourceIndex struct {
	state srcState
	edges map[string][]graph.Edge // edge label → edges
	quals map[string]string       // term → qualified name
	facts []factQual              // fact ordinal → qualified subject/object
	nums  map[string]*numIndex    // predicate → numeric objects sorted by value (pushdown.go)
}

// factQual is one fact's pre-qualified emission values: the subject as a
// qualified term, and — when the fact's object is a term — the object
// too. Indexed scans read these by fact ordinal instead of hashing the
// subject through the qualification table once per row.
type factQual struct {
	subj kb.Value
	obj  kb.Value // KindTerm iff the fact's object is a term
}

// newSourceIndex builds name's record at cur: the ontology-derived tables,
// then an extension from fact ordinal 0.
func newSourceIndex(name string, cur srcState) *sourceIndex {
	g := cur.ont.Graph()
	rec := &sourceIndex{
		state: srcState{ont: cur.ont, ontEp: cur.ontEp, kb: cur.kb},
		edges: make(map[string][]graph.Edge),
		quals: make(map[string]string),
		nums:  make(map[string]*numIndex),
	}
	for _, edge := range g.Edges() {
		rec.edges[edge.Label] = append(rec.edges[edge.Label], edge)
	}
	for _, id := range g.Nodes() {
		l := g.Label(id)
		rec.quals[l] = qualify(name, l)
	}
	rec.extend(name, cur)
	return rec
}

// extend brings rec's KB-derived tables up to cur, reading only the facts
// past rec's state: the qualification table gains their subjects and term
// objects, the fact-ordinal cache one entry per ordinal, and each built
// numeric index their numbers. It is the tables' one writer — a first
// build extends an empty record. Caller holds the source's lock for
// writing, or owns rec alone.
func (rec *sourceIndex) extend(name string, cur srcState) {
	rec.facts = slices.Grow(rec.facts, cur.kbLen-rec.state.kbLen)
	added := make(map[string][]numEntry)
	for i := rec.state.kbLen; i < cur.kbLen; i++ {
		f := cur.kb.FactAt(i)
		fq := factQual{subj: rec.qualified(name, f.Subject)}
		if f.Object.IsTerm() {
			fq.obj = rec.qualified(name, f.Object.Str)
		}
		rec.facts = append(rec.facts, fq)
		if rec.nums[f.Predicate] != nil && isIndexedNum(f.Object) {
			added[f.Predicate] = append(added[f.Predicate], numEntry{f.Object.Num, i})
		}
	}
	for pred, ents := range added {
		rec.nums[pred].add(ents)
	}
	rec.state = cur
}

// qualified is term qualified in source name, entered in the qualification
// table on first sight so every later use shares the one string.
func (rec *sourceIndex) qualified(name, term string) kb.Value {
	q, ok := rec.quals[term]
	if !ok {
		q = qualify(name, term)
		rec.quals[term] = q
	}
	return kb.Value{Kind: kb.KindTerm, Str: q}
}

// NewEngine builds an engine over the articulation and its sources. The
// articulation ontology itself participates as a source — passed in
// sources under its name, or made here without a KB — so queries can ask
// about articulation-level structure directly.
func NewEngine(art *articulation.Articulation, sources map[string]*Source) (*Engine, error) {
	if art == nil {
		return nil, fmt.Errorf("query: nil articulation")
	}
	e := &Engine{
		art:     art,
		sources: make(map[string]*Source, len(sources)+1),
		plans:   make(map[string]*execPlan),
	}
	e.sources[art.Ont.Name()] = &Source{Ont: art.Ont}
	for name, s := range sources {
		if s == nil || s.Ont == nil {
			return nil, fmt.Errorf("query: source %q has no ontology", name)
		}
		if name != s.Ont.Name() {
			return nil, fmt.Errorf("query: source registered under %q but ontology is %q", name, s.Ont.Name())
		}
		e.sources[name] = s
	}
	for name := range e.sources {
		e.names = append(e.names, name)
		e.dottedNames = e.dottedNames || strings.Contains(name, ".")
	}
	sort.Strings(e.names)
	e.id = engineSeq.Add(1)
	return e, nil
}

// engineSeq hands every engine a process-unique id. EpochKey folds it
// in, so keys from different engines — including a rebuilt engine over a
// swapped-in store whose epoch count happens to coincide with its
// predecessor's — can never collide in a serving-layer cache.
var engineSeq atomic.Uint64

// sourceEpoch folds one source's ontology and KB epochs into a single
// monotonic counter: both inputs only ever grow, so any mutation moves
// the sum and equal sums guarantee an unmutated source.
func sourceEpoch(src *Source) uint64 {
	ep := src.Ont.Epoch()
	if src.KB != nil {
		ep += src.KB.Epoch()
	}
	return ep
}

// EpochVector returns every source's current mutation epoch in sorted
// source-name order. Two equal vectors from the same engine guarantee
// that no source was mutated in between, so any result computed at the
// first read is still exact at the second — the property the serving
// layer's result cache keys on.
func (e *Engine) EpochVector() []uint64 {
	out := make([]uint64, len(e.names))
	for i, name := range e.names {
		out[i] = sourceEpoch(e.sources[name])
	}
	return out
}

// EpochKey renders the engine's identity, the function registry's epoch
// and the current epoch vector as a compact opaque string — the cache-key
// component used by the serving layer, so a re-registered conversion
// function orphans the rows it converted. The identity prefix makes keys
// engine-unique: after a structural change rebuilds an engine
// (core.System drops the engines that read a rebound source), the new
// engine's keys cannot collide with entries cached under the old one, even
// if the replacement sources' epoch counts coincide.
func (e *Engine) EpochKey() string {
	buf := make([]byte, 0, 6+2*len(e.names))
	buf = binary.AppendUvarint(buf, e.id)
	buf = binary.AppendUvarint(buf, e.art.Funcs.Epoch())
	for _, name := range e.names {
		buf = binary.AppendUvarint(buf, sourceEpoch(e.sources[name]))
	}
	return string(buf)
}

// heal brings the source's record up to the source's current state at
// query and explain entry, and returns that state. The record is
//
//   - kept when the source is unchanged, or another engine healed it;
//   - extended over the new fact ordinals when its knowledge base only
//     grew (same ontology, same store, length up by exactly the epoch
//     delta) — the data in a source's difference costs no rebuild;
//   - replaced whole — built at this query by the same extension from
//     ordinal 0 — on any other change: an ontology edit, a swapped, shrunk
//     or inconsistently counted store.
//
// The extension grows a record in place, under the source's write lock,
// before any query of the new state — through any engine — reads it: a
// query reaches its scans only after heal returns. Readers of the old
// state cannot still be running, because the contract forbids mutating a
// source while an engine reading it executes (kb.Store is single-writer;
// core.System serialises mutators against every engine's queries).
func (src *Source) heal(name string) srcState {
	cur := stateOf(src)
	src.mu.RLock()
	fresh := src.rec != nil && src.rec.state == cur
	src.mu.RUnlock()
	if fresh {
		return cur
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	switch rec := src.rec; {
	case rec != nil && rec.state == cur:
	case rec != nil && rec.state.appendedTo(cur):
		rec.extend(name, cur)
	default:
		src.rec = newSourceIndex(name, cur)
	}
	return cur
}

// validateEpochs heals every source's record and returns the
// reformulation tables this query compiles and scans against. When a
// record, the articulation ontology or the function registry moved since
// the plans were compiled, it flushes every plan (no plan can be proven
// unaffected) and publishes new tables for the sources whose ontology
// moved, or for all when the articulation or the registry did. It compares
// its own compiled-at states: another engine may have healed a record.
func (e *Engine) validateEpochs() []*reformTable {
	var buf [4]srcState // keeps a typical engine's states off the heap
	states := buf[:0]
	for _, name := range e.names {
		states = append(states, e.sources[name].heal(name))
	}
	at := [2]uint64{e.art.Ont.Epoch(), e.art.Funcs.Epoch()}
	e.mu.RLock()
	same, tabs := e.reformAt == at && slices.Equal(e.compiledAt, states), e.tables
	e.mu.RUnlock()
	if same {
		return tabs
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.reformAt != at || !slices.Equal(e.compiledAt, states) {
		tabs := make([]*reformTable, len(e.names))
		copy(tabs, e.tables)
		for i, name := range e.names {
			if tabs[i] == nil || e.reformAt != at ||
				e.compiledAt[i].ont != states[i].ont || e.compiledAt[i].ontEp != states[i].ontEp {
				tabs[i] = e.newReformTable(name, states[i].ont)
			}
		}
		e.plans = make(map[string]*execPlan)
		e.compiledAt, e.reformAt, e.tables = slices.Clone(states), at, tabs
	}
	return e.tables
}

// reformTable is one source's reformulation through the articulation
// (§4.1): built whole by newReformTable and never mutated once published,
// so compiles and scans read it, and share its sets, without a lock.
type reformTable struct {
	// anchors maps an articulation term to the source terms it and its
	// articulation subclasses are bridged with; pairs counts those (term,
	// anchor) pairs before dedup, what an expansion adds to ExpandedTerms.
	anchors map[string]map[string]bool
	pairs   map[string]int
	subs    map[string][]string   // source class → its subclasses (transitive), for InstanceOf objects
	convs   map[string]conversion // source predicate → its conversion
}

// conversion is how the query processor "will utilize these normalization
// functions" (§4.1): a number converts through the first of funcs, the
// registered functions of its predicate's functional bridges into the
// articulation in bridge order, that applies cleanly (raw when none does).
// linear, factor and offset describe a funcs[0] that RegisterLinear
// declared: it never fails, so pushdown is sound.
type conversion struct {
	funcs          []string
	linear         bool
	factor, offset float64
}

// newReformTable builds name's table over ont in one pass over the
// bridges. A source's anchors are its semantic-implication bridges with
// the articulation, either direction (Articulation.SourceAnchors), each
// lifted to every articulation superclass of its term.
func (e *Engine) newReformTable(name string, ont *ontology.Ontology) *reformTable {
	tab := &reformTable{anchors: make(map[string]map[string]bool), pairs: make(map[string]int),
		subs: make(map[string][]string), convs: make(map[string]conversion)}
	art, funcs := e.art.Ont.Name(), e.art.Funcs
	seen := make(map[[2]string]bool) // (articulation term, source term)
	var fns []articulation.Bridge
	for _, b := range e.art.Bridges {
		var pair [2]string
		switch {
		case b.Functional():
			if b.From.Ont == name && b.To.Ont == art && funcs != nil && funcs.Has(b.FuncName()) {
				fns = append(fns, b)
			}
			continue
		case b.From.Ont == art && b.To.Ont == name:
			pair = [2]string{b.From.Term, b.To.Term}
		case b.To.Ont == art && b.From.Ont == name:
			pair = [2]string{b.To.Term, b.From.Term}
		default:
			continue
		}
		if seen[pair] {
			continue
		}
		seen[pair] = true
		for _, sup := range append(e.art.Ont.Superclasses(pair[0]), pair[0]) {
			if tab.anchors[sup] == nil {
				tab.anchors[sup] = make(map[string]bool)
			}
			tab.anchors[sup][pair[1]] = true
			tab.pairs[sup]++
		}
	}
	articulation.SortBridges(fns)
	for _, b := range fns {
		c := tab.convs[b.From.Term]
		if c.funcs = append(c.funcs, b.FuncName()); len(c.funcs) == 1 {
			c.factor, c.offset, c.linear = funcs.Linear(b.FuncName())
		}
		tab.convs[b.From.Term] = c
	}
	g := ont.Graph()
	for _, edge := range g.Edges() {
		if sup := g.Label(edge.To); edge.Label == ontology.SubclassOf && tab.subs[sup] == nil {
			tab.subs[sup] = ont.Subclasses(sup)
		}
	}
	return tab
}

// index returns name's record, which validateEpochs healed at this
// query's entry.
func (e *Engine) index(name string) *sourceIndex {
	src := e.sources[name]
	src.mu.RLock()
	defer src.mu.RUnlock()
	return src.rec
}

type binding map[string]kb.Value

// Execute runs the query under opts. Results are byte-identical across
// option combinations; only Stats and wall-clock time differ. Context
// cancellation or deadline expiry stops further scan dispatch (scans
// already running finish — a single scan is never interrupted mid-walk)
// and the call returns ctx.Err() instead of a partial result. The
// serving layer threads per-request deadlines through here.
func (e *Engine) Execute(ctx context.Context, q Query, opts Options) (*Result, error) {
	// Tracing: re-root the option's parent span on this execution so
	// every child recorded below hangs off one "query.execute" span.
	// opts is a value copy, so overwriting Trace is local to this call.
	var root *obs.Span
	if opts.Trace != nil {
		root = opts.Trace.Child("query.execute")
		root.SetAttr("query", q.String())
		opts.Trace = root
	}
	var vs *obs.Span
	if root != nil {
		vs = root.Child("validate")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tabs := e.validateEpochs()
	vs.End()
	var res *Result
	var err error
	if opts.Sequential {
		res, err = e.executeSequential(ctx, q, tabs)
	} else {
		res, err = e.executePlanned(ctx, q, opts, tabs)
	}
	if err != nil {
		return nil, err
	}
	if root != nil {
		root.SetInt("rows", int64(len(res.Rows)))
		root.End()
		res.Trace = root
	}
	return res, nil
}

// executeSequential is the reference execution path: textual join order,
// unindexed scans, no plan cache, no parallelism. The determinism tests
// (bench.TestPlannedExecutionMatchesSequential) and
// BenchmarkQuerySequentialPath compare the planned path against it.
func (e *Engine) executeSequential(ctx context.Context, q Query, tabs []*reformTable) (*Result, error) {
	res := &Result{Vars: q.Select}
	res.Stats.Workers = 1
	rows := []binding{{}}
	for _, triple := range q.Where {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rows = joinBindings(rows, e.evalTriple(tabs, triple, &res.Stats))
		if len(rows) == 0 {
			break
		}
	}
	for _, f := range q.Filters {
		kept := rows[:0]
		for _, b := range rows {
			if v, bound := b[f.Var]; bound && f.Accepts(v) {
				kept = append(kept, b)
			}
		}
		rows = kept
	}
	res.Stats.JoinedRows = len(rows)
	e.project(res, rows, q)
	return res, nil
}

// project dedups the surviving bindings onto the SELECT variables and
// sorts the rows into the deterministic output order shared by every
// execution path.
func (e *Engine) project(res *Result, rows []binding, q Query) {
	keys := make(map[string]bool, len(rows))
	var keep []keyedRow
	var buf []byte
	for _, b := range rows {
		out := make([]kb.Value, len(q.Select))
		ok := true
		for i, v := range q.Select {
			val, bound := b[v]
			if !bound {
				ok = false
				break
			}
			out[i] = val
		}
		if !ok {
			continue
		}
		buf = rowcodec.AppendRow(buf[:0], out)
		if key := string(buf); !keys[key] {
			keys[key] = true
			keep = append(keep, keyedRow{key, out})
		}
	}
	res.Rows = sortKeyedRows(keep)
}

// keyedRow pairs an output row with its encoded sort/dedup key
// (rowcodec.AppendRow), so the final sort compares precomputed keys
// instead of re-encoding both rows on every comparison.
type keyedRow struct {
	key string
	row []kb.Value
}

// sortKeyedRows orders deduplicated rows by their row key — the
// deterministic output order shared by every execution path: cell-wise,
// kind-major, lexicographic for terms and strings, numeric for numbers.
// Keys are unique after dedup, so the order is total (which also makes
// the unstable slices sort deterministic — no reflection-based swaps).
func sortKeyedRows(keep []keyedRow) [][]kb.Value {
	slices.SortFunc(keep, func(a, b keyedRow) int { return strings.Compare(a.key, b.key) })
	rows := make([][]kb.Value, len(keep))
	for i := range keep {
		rows[i] = keep[i].row
	}
	return rows
}

// evalTriple evaluates one triple against every source on the sequential
// reference path: expansion through the source's table and an unindexed
// full scan in one step, materialising binding-map rows. The planned
// executor consumes scanMatch directly with a batch emitter.
func (e *Engine) evalTriple(tabs []*reformTable, t Triple, stats *Stats) []binding {
	// bindVar records a variable binding, enforcing equality when the
	// triple repeats a variable (e.g. "?x Likes ?x").
	bindVar := func(b binding, t Term, val kb.Value) bool {
		if !t.IsVar() {
			return true
		}
		if old, ok := b[t.Var]; ok {
			return old.Equal(val)
		}
		b[t.Var] = val
		return true
	}
	var rows []binding
	for i, name := range e.names {
		stats.SourceScans++
		v := e.compileView(tabs[i], name, t, stats)
		e.scanMatch(name, e.sources[name], t, v, stats, false, func(s, p, o kb.Value) bool {
			b := binding{}
			if !bindVar(b, t.S, s) || !bindVar(b, t.P, p) || !bindVar(b, t.O, o) {
				return false
			}
			rows = append(rows, b)
			return true
		})
	}
	return rows
}

// scanView is the reformulation of one triple for one source: the
// constant expansions the scan matches against, with every closure the
// match needs computed here, once per view — so once per plan on the
// planned path — rather than per fact. A skipped view means the triple
// cannot denote anything in the source.
type scanView struct {
	subj     map[string]bool // nil = unconstrained (variable subject)
	preds    map[string]bool
	objTerms map[string]bool // set when the object is a constant term
	tab      *reformTable    // the source's reformulation the view was compiled from
	// objClasses is objTerms closed under the source's subclasses: the
	// object labels an InstanceOf fact may carry to match (an instance of
	// a subclass is an instance of the class). Closed once per view, so
	// matching a fact is one map probe; nil when no predicate the view
	// matches is InstanceOf.
	objClasses map[string]bool
	skip       bool
	// predList / subjList are the sorted sets, precomputed by the
	// planner so indexed scans need not re-sort per execution.
	predList []string
	subjList []string
	// pushed is the planner's selection pushdown (pushdown.go): one
	// source-unit range per predList entry, nil when the triple's filters
	// run only after conversion.
	pushed []pushedPred
	// boundSubj, when non-nil, restricts the scan to these subjects of
	// its source (qualified names) — the sideways semi-join. The executor
	// sets it per execution, on its own copy of the view.
	boundSubj *boundSubjects
}

// compileView expands the triple's constants into the source's term
// space through its reformulation table — the per-source reformulation
// step, shared by the sequential scan, the planner and Explain.
func (e *Engine) compileView(tab *reformTable, name string, t Triple, stats *Stats) scanView {
	subj, okS := e.expandTerm(tab, name, t.S, stats)
	if !okS {
		return scanView{skip: true}
	}
	preds, okP := e.expandPred(tab, name, t.P, stats)
	if !okP {
		return scanView{skip: true}
	}
	v := scanView{subj: subj, preds: preds, tab: tab}
	// Object constants: terms expand like subjects; literals pass through
	// (with inverse conversion against each predicate at match time).
	if !t.O.IsVar() && t.O.Value.IsTerm() {
		set, ok := e.expandTerm(tab, name, t.O, stats)
		if !ok {
			return scanView{skip: true}
		}
		v.objTerms = set
		if preds == nil || preds[ontology.InstanceOf] {
			v.objClasses = make(map[string]bool, len(set))
			for t := range set {
				v.objClasses[t] = true
				for _, sub := range tab.subs[t] {
					v.objClasses[sub] = true
				}
			}
		}
	}
	return v
}

// scanMatch is the matching core shared by every execution path: it walks
// one source's ontology edges and KB facts against a precompiled view and
// calls emit(subject, predicate, object) for each candidate row. emit
// reports whether the row was accepted (a repeated triple variable may
// reject it); row and conversion counters only count accepted rows.
//
// With indexed=true the scan walks the per-source edge-label index and
// the KB's predicate/subject indexes instead of every edge and fact; both
// modes produce the same row set (order may differ; the final projection
// sort normalises it). Indexed scans also honour the planner's pushdown
// (v.pushed: read only the in-range numeric facts, skip the edges) and
// the semi-join restriction (v.boundSubj: walk only the bound subjects).
// Both drop only rows that the query's filters or joins would drop
// anyway, and the executor still applies every filter downstream.
func (e *Engine) scanMatch(name string, src *Source, t Triple, v scanView, stats *Stats, indexed bool, emit func(s, p, o kb.Value) bool) {
	if v.skip {
		return
	}
	isArt := name == e.art.Ont.Name()

	// Indexed scans read the source's record: they qualify emitted terms
	// through its table (one string per distinct term, ever) instead of
	// concatenating a fresh "source.term" string per row. The sequential
	// reference keeps the seed's per-row concatenation.
	var rec *sourceIndex
	var qt map[string]string
	if indexed {
		rec = e.index(name)
		qt = rec.quals
	}
	qual := func(term string) kb.Value { return qualTerm(qt, name, term) }

	// Scan ontology edges.
	g := src.Ont.Graph()
	litObj := !t.O.IsVar() && !t.O.Value.IsTerm()
	matchEdge := func(edge graph.Edge) {
		if v.preds != nil && !v.preds[edge.Label] {
			return
		}
		sLabel, oLabel := g.Label(edge.From), g.Label(edge.To)
		if v.subj != nil && !v.subj[sLabel] {
			return
		}
		if v.objTerms != nil && !v.objectMatches(edge.Label, oLabel) {
			return
		}
		if litObj {
			return // literal object never matches an ontology edge
		}
		if emit(qual(sLabel), kb.Term(edge.Label), qual(oLabel)) {
			stats.EdgeRows++
		}
	}
	if indexed && v.preds != nil {
		// A pushed scan's filters compare numbers and edge objects are
		// terms, so no edge row could survive them.
		if v.pushed == nil {
			for _, p := range v.predList {
				for _, edge := range rec.edges[p] {
					if v.boundSubj != nil {
						if _, ok := v.boundSubj.has[qual(g.Label(edge.From)).Str]; !ok {
							continue
						}
					}
					matchEdge(edge)
				}
			}
		}
	} else {
		for _, edge := range g.Edges() {
			matchEdge(edge)
		}
	}

	// Scan KB facts. A hoisted matchFactQ call comes from an ordinal walk:
	// it carries the fact's pre-qualified subject and (term-)object values
	// from the fact-ordinal cache, skipping the per-fact qualification
	// probe, and the walk has already matched the predicate (every fact
	// under byPred[p] carries p) and looked up its conversion candidates
	// (nf) in the table.
	if src.KB != nil && !isArt {
		matchFactQ := func(f kb.Fact, subjQ, objQ kb.Value, nf []string, hoisted bool) bool {
			if !hoisted && v.preds != nil && !v.preds[f.Predicate] {
				return true
			}
			if v.subj != nil && !v.subj[f.Subject] {
				return true
			}
			obj := f.Object
			conv := false
			if obj.IsNumber() {
				if !hoisted {
					nf = v.tab.convs[f.Predicate].funcs
				}
				for _, fname := range nf {
					out, err := e.art.Funcs.Apply(fname, obj.Num)
					if err != nil {
						continue
					}
					obj = kb.Number(out)
					conv = true
					break
				}
			}
			if !t.O.IsVar() {
				want := t.O.Value
				switch {
				case want.IsTerm():
					if obj.Kind != kb.KindTerm {
						return true
					}
					if v.objTerms != nil && !v.objectMatches(f.Predicate, obj.Str) {
						return true
					}
				default:
					if !obj.Equal(want) {
						return true
					}
				}
			}
			subjVal, objVal := subjQ, obj
			switch {
			case !hoisted:
				subjVal = qual(f.Subject)
				if obj.IsTerm() {
					objVal = qual(obj.Str)
				}
			case obj.IsTerm():
				objVal = objQ
			}
			if emit(subjVal, kb.Term(f.Predicate), objVal) {
				stats.FactRows++
				if conv {
					stats.Conversions++
				}
			}
			return true
		}
		matchFact := func(f kb.Fact) bool {
			return matchFactQ(f, kb.Value{}, kb.Value{}, nil, false)
		}
		// heal extended the record to the store's length, so its
		// fact-ordinal cache covers every ordinal the KB indexes hand out.
		matchOrd := func(fq []factQual, i int, f kb.Fact, nf []string) bool {
			return matchFactQ(f, fq[i].subj, fq[i].obj, nf, true)
		}
		switch {
		case indexed && v.boundSubj != nil:
			// The semi-join walk: only the bound subjects' facts, each
			// subject resolved to its fact ordinals once per execution and
			// source (boundSubjects.ordinals), with the predicate check and
			// conversion candidates the predicate walk would apply. The
			// view's one to three predicates are matched in a loop over
			// predList, not through a map probe per fact. The walk follows
			// the set's first-seen order, so the rows come out in the same
			// order on every execution.
			fq := rec.facts
			for _, ords := range v.boundSubj.ordinals(name, src.KB) {
				for _, i := range ords {
					f := src.KB.FactAt(i)
					for _, p := range v.predList {
						if f.Predicate == p {
							matchOrd(fq, i, f, v.tab.convs[p].funcs)
							break
						}
					}
				}
			}
		case indexed && v.preds != nil:
			fq := rec.facts
			for k, p := range v.predList {
				nf := v.tab.convs[p].funcs
				if v.pushed != nil {
					// Only the facts whose source-unit value lies in the
					// pushed range are read, and so converted.
					ix := src.numIndex(p)
					lo, hi := ix.span(v.pushed[k].rng)
					ix.inStoreOrder(lo, hi, func(i int) {
						matchOrd(fq, i, src.KB.FactAt(i), nf)
					})
					continue
				}
				src.KB.ForEachByPredicateIndexed(p, func(i int, f kb.Fact) bool {
					return matchOrd(fq, i, f, nf)
				})
			}
		case indexed && v.subj != nil:
			for _, s := range v.subjList {
				src.KB.ForEachBySubject(s, matchFact)
			}
		default:
			// Both the indexed fallback and the sequential reference
			// stream facts in insertion order: Facts() would copy and
			// re-sort the whole store per (triple, source) scan, and the
			// final projection sort already normalises row order.
			src.KB.ForEach(matchFact)
		}
	}
}

// objectMatches checks an object label against the view's expanded
// object terms, applying the source-side InstanceOf closure through
// objClasses.
func (v *scanView) objectMatches(pred, objLabel string) bool {
	if pred == ontology.InstanceOf {
		return v.objClasses[objLabel]
	}
	return v.objTerms[objLabel]
}

// expandTerm maps a triple term constant into the given source's term
// space. Variables expand to nil (wildcard, ok). A constant that cannot
// denote anything in this source yields ok=false, skipping the source.
func (e *Engine) expandTerm(tab *reformTable, srcName string, t Term, stats *Stats) (map[string]bool, bool) {
	if t.IsVar() {
		return nil, true
	}
	if !t.Value.IsTerm() {
		return nil, true // literals are handled at match time
	}
	name := t.Value.Str
	artName := e.art.Ont.Name()

	if ref, err := ontology.ParseRef(name); err == nil && ref.Qualified() {
		if _, known := e.sources[ref.Ont]; known {
			if ref.Ont == srcName {
				return map[string]bool{ref.Term: true}, true
			}
			if ref.Ont == artName && srcName != artName {
				set := tab.anchorsOf(ref.Term, stats)
				return set, len(set) > 0
			}
			return nil, false
		}
		// Qualified-looking but unknown prefix: treat as a plain name
		// (labels may legitimately contain dots).
	}

	set := make(map[string]bool)
	if srcName == artName {
		if e.art.Ont.HasTerm(name) {
			set[name] = true
		}
		return set, len(set) > 0
	}
	if e.art.Ont.HasTerm(name) {
		maps.Copy(set, tab.anchorsOf(name, stats))
	}
	src := e.sources[srcName]
	if src.Ont.HasTerm(name) {
		set[name] = true
	}
	if src.KB != nil && src.KB.CountBySubject(name) > 0 {
		// Instance names live in the KB, not the ontology graph.
		set[name] = true
	}
	return set, len(set) > 0
}

// anchorsOf returns artTerm's anchors, the table's own set, and counts them.
func (tab *reformTable) anchorsOf(artTerm string, stats *Stats) map[string]bool {
	stats.ExpandedTerms += tab.pairs[artTerm]
	return tab.anchors[artTerm]
}

// expandPred maps the predicate constant into the source's predicate
// space: the predicate itself plus any source terms anchored to it when
// the predicate names an articulation term (attribute terms like Price
// double as predicates in KB facts).
func (e *Engine) expandPred(tab *reformTable, srcName string, t Term, stats *Stats) (map[string]bool, bool) {
	if t.IsVar() {
		return nil, true
	}
	if !t.Value.IsTerm() {
		return nil, false // a literal predicate matches nothing
	}
	name := t.Value.Str
	artName := e.art.Ont.Name()
	set := map[string]bool{name: true}
	if ref, err := ontology.ParseRef(name); err == nil && ref.Qualified() {
		if _, known := e.sources[ref.Ont]; known {
			if ref.Ont != srcName {
				return nil, false
			}
			return map[string]bool{ref.Term: true}, true
		}
	}
	if srcName != artName && e.art.Ont.HasTerm(name) {
		maps.Copy(set, tab.anchorsOf(name, stats))
	}
	return set, true
}

func qualify(ont, term string) string {
	return ontology.MakeRef(ont, term).String()
}

// joinBindings hash-joins two binding sets on their shared variables.
func joinBindings(left, right []binding) []binding {
	if len(left) == 0 || len(right) == 0 {
		return nil
	}
	shared := sharedVars(left, right)

	if len(shared) == 0 {
		out := make([]binding, 0, len(left)*len(right))
		for _, l := range left {
			for _, r := range right {
				out = append(out, mergeBindings(l, r))
			}
		}
		return out
	}
	index := make(map[string][]binding, len(right))
	for _, r := range right {
		index[joinKey(r, shared)] = append(index[joinKey(r, shared)], r)
	}
	var out []binding
	for _, l := range left {
		for _, r := range index[joinKey(l, shared)] {
			out = append(out, mergeBindings(l, r))
		}
	}
	return out
}

// sharedVars collects variables bound on both sides (checked across all
// rows, since the left side accumulates different triples' variables).
func sharedVars(left, right []binding) []string {
	inLeft := make(map[string]bool)
	for _, l := range left {
		for v := range l {
			inLeft[v] = true
		}
	}
	sharedSet := make(map[string]bool)
	for _, r := range right {
		for v := range r {
			if inLeft[v] {
				sharedSet[v] = true
			}
		}
	}
	shared := make([]string, 0, len(sharedSet))
	for v := range sharedSet {
		shared = append(shared, v)
	}
	sort.Strings(shared)
	return shared
}

// joinKey encodes a row's join key on the shared variables with the same
// collision-free encoding the planned path keys on (rowcodec.AppendValue):
// kind-strict and framing-safe, so a term literally named "\x01unbound"
// or payloads containing '\x00' cannot falsely join (the seed joined
// Format() strings with raw separators and an in-band unbound sentinel).
// The reference path therefore agrees with the planned executors on
// join equality exactly.
func joinKey(b binding, vars []string) string {
	var buf []byte
	for _, v := range vars {
		if val, ok := b[v]; ok {
			buf = rowcodec.AppendValue(buf, val)
		} else {
			// Out-of-band unbound marker. 0x03 starts no value encoding
			// (kind tags are 0..2) and cannot be manufactured inside one
			// either: a 0x00 in a key is always an escape start (0x00
			// 0xff) or a terminator followed by a field start, so no
			// value bytes can imitate a terminator+marker pair. (0xff
			// would be ambiguous: terminator+0xff reads as the escape.)
			buf = append(buf, 0x03)
		}
	}
	return string(buf)
}

func mergeBindings(l, r binding) binding {
	out := make(binding, len(l)+len(r))
	for k, v := range l {
		out[k] = v
	}
	for k, v := range r {
		out[k] = v
	}
	return out
}
