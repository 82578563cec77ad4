package query

import (
	"context"
	"encoding/binary"
	"fmt"
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
// knowledge base beneath it.
type Source struct {
	Ont *ontology.Ontology
	KB  *kb.Store
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
// An Engine is safe for concurrent Execute and Explain calls.
// It caches compiled plans and, per source, one record of scan indexes
// (sourceIndex), validated against the sources' state at every query:
// mutating a source ontology or knowledge base underneath a live engine
// (between queries — never concurrently with one) is self-healing. Facts
// appended to a source's knowledge base extend its record from the
// last-seen fact ordinal; any other change replaces the record whole.
// InvalidateCache remains as a forced flush.
type Engine struct {
	art     *articulation.Articulation
	sources map[string]*Source
	names   []string // sorted source names, articulation first
	id      uint64   // process-unique engine identity (EpochKey component)

	mu      sync.RWMutex
	plans   map[string]*execPlan
	indexes map[string]*sourceIndex // source → its scan indexes, built by validateEpochs
}

// srcState is what one source's record was built against: the ontology
// (identity and epoch) and the knowledge base (identity, length and
// epoch). sourceEpoch folds the two epochs into the source's EpochKey
// component; validateEpochs needs them apart to tell an append from any
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
// build extends an empty record. Caller holds e.mu for writing, or owns
// rec alone.
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
// articulation ontology itself participates as a source (without a KB), so
// queries can ask about articulation-level structure directly.
func NewEngine(art *articulation.Articulation, sources map[string]*Source) (*Engine, error) {
	if art == nil {
		return nil, fmt.Errorf("query: nil articulation")
	}
	e := &Engine{
		art:     art,
		sources: make(map[string]*Source, len(sources)+1),
		plans:   make(map[string]*execPlan),
		indexes: make(map[string]*sourceIndex),
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

// EpochKey renders the engine's identity plus the current epoch vector
// as a compact opaque string — the cache-key component used by the
// serving layer. The identity prefix makes keys engine-unique: after a
// structural change rebuilds an engine (core.System drops engines when
// source wiring changes), the new engine's keys cannot collide with
// entries cached under the old one, even if the replacement sources'
// epoch counts coincide.
func (e *Engine) EpochKey() string {
	buf := make([]byte, 0, 4+2*len(e.names))
	buf = binary.AppendUvarint(buf, e.id)
	for _, name := range e.names {
		buf = binary.AppendUvarint(buf, sourceEpoch(e.sources[name]))
	}
	return string(buf)
}

// validateEpochs compares every source's current state against the
// state its record was built at and heals stale records at query and
// explain entry, so direct NewEngine users need no InvalidateCache call
// after mutating a source. Each source's record is
//
//   - kept when the source is unchanged;
//   - extended over the new fact ordinals when its knowledge base only
//     grew (same ontology, same store, length up by exactly the epoch
//     delta) — the data in a source's difference costs no rebuild;
//   - replaced whole — built at this query by the same extension from
//     ordinal 0 — on any other change: an ontology edit, a swapped, shrunk
//     or inconsistently counted store, or a record InvalidateCache dropped.
//
// Any change flushes the plan cache wholesale: compilation consults
// every source (term expansion probes KB subjects, estimates read index
// cardinalities, and a mutation can even un-skip a previously impossible
// scan), so no plan can be proven unaffected.
//
// The extension grows a record in place. That is safe because it runs
// under e.mu's write lock before this query — or any other query of the
// new state — reads the record: a query reaches its scans only after
// validateEpochs returns. Readers of the old state cannot still be
// running, because the engine contract forbids mutating a source
// concurrently with a query (kb.Store is single-writer; core.System
// serialises mutators against queries).
func (e *Engine) validateEpochs() {
	e.mu.RLock()
	fresh := e.freshLocked()
	e.mu.RUnlock()
	if fresh {
		return
	}
	e.mu.Lock()
	if !e.freshLocked() {
		for _, name := range e.names {
			cur := stateOf(e.sources[name])
			switch rec := e.indexes[name]; {
			case rec != nil && rec.state == cur:
			case rec != nil && rec.state.appendedTo(cur):
				rec.extend(name, cur)
			default:
				e.indexes[name] = newSourceIndex(name, cur)
			}
		}
		e.plans = make(map[string]*execPlan)
	}
	e.mu.Unlock()
}

// freshLocked reports whether every source has a record of its current
// state. Caller holds e.mu.
func (e *Engine) freshLocked() bool {
	for _, name := range e.names {
		if rec := e.indexes[name]; rec == nil || rec.state != stateOf(e.sources[name]) {
			return false
		}
	}
	return true
}

// index returns name's record. validateEpochs built it at this query's
// entry; if a concurrent InvalidateCache has dropped it since, validating
// again rebuilds it for the same, unmutated state.
func (e *Engine) index(name string) *sourceIndex {
	for {
		e.mu.RLock()
		rec := e.indexes[name]
		e.mu.RUnlock()
		if rec != nil {
			return rec
		}
		e.validateEpochs()
	}
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
	e.validateEpochs()
	vs.End()
	var res *Result
	var err error
	if opts.Sequential {
		res, err = e.executeSequential(ctx, q)
	} else {
		res, err = e.executePlanned(ctx, q, opts)
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
func (e *Engine) executeSequential(ctx context.Context, q Query) (*Result, error) {
	res := &Result{Vars: q.Select}
	res.Stats.Workers = 1
	rows := []binding{{}}
	for _, triple := range q.Where {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next, err := e.evalTriple(triple, &res.Stats)
		if err != nil {
			return nil, err
		}
		rows = joinBindings(rows, next)
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

// evalTriple evaluates one triple against every source, reformulating
// constants through the bridges.
func (e *Engine) evalTriple(t Triple, stats *Stats) ([]binding, error) {
	var out []binding
	for _, name := range e.names {
		src := e.sources[name]
		stats.SourceScans++
		rows, err := e.scanSource(name, src, t, stats)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
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
	objTerm  bool
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
	// boundSubj, when non-nil, restricts the scan to these subjects
	// (qualified names) — the sideways semi-join. The executor sets it
	// per execution, on its own copy of the view.
	boundSubj *boundSubjects
}

// compileView expands the triple's constants into the source's term
// space — the per-source reformulation step, shared by the sequential
// scan, the planner and Explain.
func (e *Engine) compileView(name string, t Triple, stats *Stats) scanView {
	subj, okS := e.expandTerm(name, t.S, stats)
	if !okS {
		return scanView{skip: true}
	}
	preds, okP := e.expandPred(name, t.P, stats)
	if !okP {
		return scanView{skip: true}
	}
	v := scanView{subj: subj, preds: preds}
	// Object constants: terms expand like subjects; literals pass through
	// (with inverse conversion against each predicate at match time).
	if !t.O.IsVar() && t.O.Value.IsTerm() {
		set, ok := e.expandTerm(name, t.O, stats)
		if !ok {
			return scanView{skip: true}
		}
		v.objTerms = set
		v.objTerm = true
		if preds == nil || preds[ontology.InstanceOf] {
			v.objClasses = subclassClosure(e.sources[name].Ont, set)
		}
	}
	return v
}

// subclassClosure is terms plus each one's subclasses in ont: in a
// consistent (uniquely labelled) ontology, exactly the labels l with
// ont.IsA(l, t) for some t in terms.
func subclassClosure(ont *ontology.Ontology, terms map[string]bool) map[string]bool {
	out := make(map[string]bool, len(terms))
	for t := range terms {
		out[t] = true
		for _, sub := range ont.Subclasses(t) {
			out[sub] = true
		}
	}
	return out
}

// scanSource evaluates the triple in one source on the sequential
// reference path: expansion and an unindexed full scan in one step,
// materialising binding-map rows. The planned executor consumes scanMatch
// directly with a batch emitter.
func (e *Engine) scanSource(name string, src *Source, t Triple, stats *Stats) ([]binding, error) {
	v := e.compileView(name, t, stats)
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
	e.scanMatch(name, src, t, v, stats, false, func(s, p, o kb.Value) bool {
		b := binding{}
		if !bindVar(b, t.S, s) || !bindVar(b, t.P, p) || !bindVar(b, t.O, o) {
			return false
		}
		rows = append(rows, b)
		return true
	})
	return rows, nil
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
		if v.objTerm && !v.objectMatches(edge.Label, oLabel) {
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

	// Scan KB facts. matchFactQ takes the fact's pre-qualified subject
	// and (term-)object values when the caller has them — the indexed
	// predicate path reads both from the fact-ordinal cache, skipping
	// the per-fact qualification-table probe entirely. That path also
	// hoists the per-predicate work out of the fact loop: the predicate
	// membership probe (every fact under byPred[p] carries p) and the
	// functional-bridge resolution (nf, the conversion candidates for
	// this predicate, resolved once instead of re-walking the bridge
	// index per fact).
	if src.KB != nil && !isArt {
		matchFactQ := func(f kb.Fact, subjQ, objQ kb.Value, haveQ bool, nf []string, hoisted bool) bool {
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
					nf = e.normFuncNames(name, f.Predicate)
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
			objVal := obj
			if obj.IsTerm() {
				if haveQ {
					objVal = objQ
				} else {
					objVal = qual(obj.Str)
				}
			}
			subjVal := subjQ
			if !haveQ {
				subjVal = qual(f.Subject)
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
			return matchFactQ(f, kb.Value{}, kb.Value{}, false, nil, false)
		}
		// validateEpochs extended the record to the store's length, so its
		// fact-ordinal cache covers every ordinal the KB indexes hand out.
		matchOrd := func(fq []factQual, i int, f kb.Fact, nf []string) bool {
			return matchFactQ(f, fq[i].subj, fq[i].obj, true, nf, true)
		}
		switch {
		case indexed && v.boundSubj != nil:
			// The semi-join walk: only the bound subjects' facts, through
			// the subject index, with the predicate check and conversion
			// candidates the predicate walk would apply. A bound subject is
			// qualified, so this source's are exactly those carrying its
			// prefix. The walk follows the set's first-seen order, so the
			// rows come out in the same order on every execution.
			fq := rec.facts
			nfs := make(map[string][]string, len(v.predList))
			for _, p := range v.predList {
				nfs[p] = e.normFuncNames(name, p)
			}
			prefix := name + "."
			for _, s := range v.boundSubj.order {
				bare, ok := strings.CutPrefix(s, prefix)
				if !ok {
					continue
				}
				src.KB.ForEachBySubjectIndexed(bare, func(i int, f kb.Fact) bool {
					nf, ok := nfs[f.Predicate]
					if !ok {
						return true
					}
					return matchOrd(fq, i, f, nf)
				})
			}
		case indexed && v.preds != nil:
			fq := rec.facts
			for k, p := range v.predList {
				nf := e.normFuncNames(name, p)
				if v.pushed != nil && v.pushed[k].live(nf, e.art.Funcs) {
					// Only the facts whose source-unit value lies in the
					// pushed range are read, and so converted.
					ix := e.numIndex(rec, p)
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
func (e *Engine) expandTerm(srcName string, t Term, stats *Stats) (map[string]bool, bool) {
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
				set := e.anchorsFor(ref.Term, srcName, stats)
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
		for a := range e.anchorsFor(name, srcName, stats) {
			set[a] = true
		}
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

// anchorsFor returns the source terms the articulation term (and its
// articulation-level subclasses) bridge to in the given source.
func (e *Engine) anchorsFor(artTerm, srcName string, stats *Stats) map[string]bool {
	set := make(map[string]bool)
	terms := []string{artTerm}
	for _, sub := range e.art.Ont.Subclasses(artTerm) {
		terms = append(terms, sub)
	}
	for _, a := range terms {
		for _, ref := range e.art.SourceAnchors(a) {
			if ref.Ont == srcName {
				set[ref.Term] = true
				stats.ExpandedTerms++
			}
		}
	}
	return set
}

// expandPred maps the predicate constant into the source's predicate
// space: the predicate itself plus any source terms anchored to it when
// the predicate names an articulation term (attribute terms like Price
// double as predicates in KB facts).
func (e *Engine) expandPred(srcName string, t Term, stats *Stats) (map[string]bool, bool) {
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
		for a := range e.anchorsFor(name, srcName, stats) {
			set[a] = true
		}
	}
	return set, true
}

// normFuncNames resolves the conversion candidates for one source
// predicate: the registered function names of its functional bridges
// into the articulation, in bridge order. This is how the query
// processor "will utilize these normalization functions" (§4.1): a
// numeric KB value converts through the first candidate whose conversion
// applies cleanly, and passes through raw when none does. The resolution
// is static per (source, predicate) — only Apply depends on the value —
// so indexed scans hoist it out of their per-fact loop. The
// first-applicable rule is what makes the pushdown sound: a linear
// function never fails, so when the first candidate is linear it converts
// every number of the predicate (pushdown.go).
func (e *Engine) normFuncNames(srcName, pred string) []string {
	if e.art.Funcs == nil {
		return nil
	}
	from := ontology.MakeRef(srcName, pred)
	var names []string
	for _, b := range e.art.BridgesFrom(from) {
		if !b.Functional() || b.To.Ont != e.art.Ont.Name() {
			continue
		}
		if !e.art.Funcs.Has(b.FuncName()) {
			continue
		}
		names = append(names, b.FuncName())
	}
	return names
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
