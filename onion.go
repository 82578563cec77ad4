// Package onion is a from-scratch Go implementation of ONION — the
// graph-oriented model for articulation of ontology interdependencies of
// Mitra, Wiederhold and Kersten (EDBT 2000).
//
// ONION lets independently maintained ontologies interoperate without
// merging them into a global schema: a small articulation ontology plus
// semantic bridges is the only thing materialised, generated
// semi-automatically from articulation rules proposed by SKAT and
// confirmed by a domain expert. An ontology algebra (union, intersection,
// difference) composes ontologies through articulations, and a query
// system reformulates articulation-level queries against the underlying
// sources, applying functional conversion rules to values.
//
// # Quick start
//
//	sys := onion.NewSystem()
//	_ = sys.Register(carrier) // *onion.Ontology
//	_ = sys.Register(factory)
//
//	rules, _ := onion.ParseRules(`
//	    carrier.Cars => factory.Vehicle
//	    PSToEuroFn() : carrier.Price => transport.Price
//	`)
//	res, _ := sys.Articulate("transport", "carrier", "factory", rules, onion.GenerateOptions{})
//	fmt.Println(res.Art)
//
//	out, _ := sys.Query("transport", "SELECT ?x WHERE ?x InstanceOf Vehicle")
//
// Queries compile into cached plans, reorder their joins by estimated
// selectivity, and fan per-source scans out to a bounded worker pool;
// with more than one worker, join chains execute as a cross-step
// streaming pipeline (each step's probe output streams straight into the
// next step's hash partitions while later sources are still scanning).
// QueryOptions tunes the pool and partitioning (or forces the sequential
// reference path); results are identical either way:
//
//	out, _ = sys.QueryWith("transport",
//	    "SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p",
//	    onion.QueryOptions{Workers: 8})
//
// Query and QueryWith parse the text first; the layers below take a
// parsed Query under a context and have one execute and one explain
// entry each — QueryEngine.Execute/Explain, System.Execute/Explain — and
// the serving layer one, QueryService.Answer.
//
// A System is safe for concurrent use: queries run in parallel while
// registration and articulation serialise against them.
//
// The package re-exports the system's building blocks; the sub-systems
// live in internal packages (graph model, pattern matcher, rule language,
// inference engine, lexicon, SKAT, articulation generator, algebra,
// knowledge bases, query engine, and format wrappers).
package onion

import (
	"io"

	"repro/internal/algebra"
	"repro/internal/articulation"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/inference"
	"repro/internal/kb"
	"repro/internal/lexicon"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/pattern"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/skat"
	"repro/internal/view"
	"repro/internal/wrapper"
)

// System is the ONION data layer: the registry of ontologies, knowledge
// bases and articulations, and the entry point for SKAT, the algebra and
// the query system.
type System = core.System

// NewSystem returns an empty ONION system with the embedded default
// lexicon.
func NewSystem() *System { return core.NewSystem() }

// RecoveryStats reports what System.OpenDir recovered, bootstrapped and
// skipped when opening a persistence directory.
type RecoveryStats = core.RecoveryStats

// SnapshotInfo is one source's durable state as reported by
// System.SnapshotAll.
type SnapshotInfo = core.SnapshotInfo

// Ontology is a consistent ontology: a named directed labeled graph whose
// terms each denote one concept.
type Ontology = ontology.Ontology

// RelationSpec declares a relationship and its algebraic properties.
type RelationSpec = ontology.RelationSpec

// Ref is a qualified term reference ("carrier.Car").
type Ref = ontology.Ref

// Relationship property flags.
const (
	Transitive = ontology.Transitive
	Symmetric  = ontology.Symmetric
	Reflexive  = ontology.Reflexive
)

// The standard relationship labels of the paper's semantic model.
const (
	SubclassOf  = ontology.SubclassOf
	AttributeOf = ontology.AttributeOf
	InstanceOf  = ontology.InstanceOf
	SI          = ontology.SI
	SIBridge    = ontology.SIBridge
)

// NewOntology returns an empty ontology with the standard relationship
// declarations (SubclassOf and SI transitive).
func NewOntology(name string) *Ontology { return ontology.New(name) }

// ParseRef parses "ontology.Term" (or "ontology:Term").
func ParseRef(s string) (Ref, error) { return ontology.ParseRef(s) }

// MakeRef builds a Ref from its parts.
func MakeRef(ont, term string) Ref { return ontology.MakeRef(ont, term) }

// Graph is the underlying directed labeled multigraph (§3 of the paper),
// including the NA/ND/EA/ED transformation primitives.
type Graph = graph.Graph

// NodeID identifies a node within one Graph.
type NodeID = graph.NodeID

// Edge is a directed labeled edge.
type Edge = graph.Edge

// Rule is one articulation rule (implication chain, optionally with a
// conversion-function prefix).
type Rule = rules.Rule

// RuleSet is an ordered articulation rule set.
type RuleSet = rules.Set

// ParseRule parses one rule, e.g. "carrier.Car => factory.Vehicle".
func ParseRule(s string) (Rule, error) { return rules.Parse(s) }

// ParseRules parses a rule set (one rule per line, '#' comments).
func ParseRules(text string) (*RuleSet, error) { return rules.ParseSetString(text) }

// NewRuleSet builds a rule set from rules.
func NewRuleSet(rs ...Rule) *RuleSet { return rules.NewSet(rs...) }

// Implication builds the simple rule lhs => rhs.
func Implication(lhs, rhs Ref) Rule { return rules.Implication(lhs, rhs) }

// Articulation is the materialised articulation: the articulation
// ontology plus its semantic bridges.
type Articulation = articulation.Articulation

// Bridge is one semantic bridge.
type Bridge = articulation.Bridge

// GenerateOptions tune articulation generation.
type GenerateOptions = articulation.Options

// GenerateResult carries the generated articulation and diagnostics.
type GenerateResult = articulation.Result

// FuncRegistry holds conversion functions for functional rules.
type FuncRegistry = articulation.FuncRegistry

// NewFuncRegistry returns an empty conversion-function registry.
func NewFuncRegistry() *FuncRegistry { return articulation.NewFuncRegistry() }

// Generate builds an articulation outside a System (the System method
// Articulate is the registry-aware variant).
func Generate(artName string, o1, o2 *Ontology, set *RuleSet, opts GenerateOptions) (*GenerateResult, error) {
	return articulation.Generate(artName, o1, o2, set, opts)
}

// Pattern is a graph pattern (§3), with the textual notation of the paper.
type Pattern = pattern.Pattern

// PatternNode is one pattern node (a label to match and/or a variable).
type PatternNode = pattern.Node

// PatternEdge connects two pattern nodes by index.
type PatternEdge = pattern.Edge

// PatternOptions tune pattern matching (fuzzy node/edge equivalences).
type PatternOptions = pattern.Options

// Match is one image of a pattern in a graph.
type Match = pattern.Match

// ParsePattern parses the paper's textual pattern notation, e.g.
// "carrier:car:driver" or "truck(O:owner,model)".
func ParsePattern(s string) (*Pattern, error) { return pattern.Parse(s) }

// FindPattern returns every match of p in g.
func FindPattern(g *Graph, p *Pattern, opts PatternOptions) ([]Match, error) {
	return pattern.Find(g, p, opts)
}

// Algebra options and operators (§5).
type (
	// AlgebraOptions configure the binary operators.
	AlgebraOptions = algebra.Options
	// UnionResult carries a unified ontology and its articulation.
	UnionResult = algebra.UnionResult
	// DiffMode selects the difference semantics.
	DiffMode = algebra.DiffMode
)

// Difference semantics: the paper's two readings of §5.3 (see DiffMode).
const (
	DiffFormal  = algebra.DiffFormal
	DiffExample = algebra.DiffExample
)

// Union is O1 ∪rules O2: both sources, the articulation ontology and the
// bridges in one (qualified) ontology.
func Union(o1, o2 *Ontology, set *RuleSet, opts AlgebraOptions) (*UnionResult, error) {
	return algebra.Union(o1, o2, set, opts)
}

// Intersection is O1 ∩rules O2: the articulation ontology.
func Intersection(o1, o2 *Ontology, set *RuleSet, opts AlgebraOptions) (*Ontology, error) {
	return algebra.Intersection(o1, o2, set, opts)
}

// Difference is O1 −rules O2: the part of O1 not determined to exist in O2.
func Difference(o1, o2 *Ontology, set *RuleSet, opts AlgebraOptions) (*Ontology, error) {
	return algebra.Difference(o1, o2, set, opts)
}

// Filter is the unary select-analogue over terms.
func Filter(o *Ontology, keep func(term string) bool) *Ontology {
	return algebra.Filter(o, keep)
}

// Extract is the unary project-analogue over a pattern.
func Extract(o *Ontology, p *Pattern, opts PatternOptions) (*Ontology, error) {
	return algebra.Extract(o, p, opts)
}

// SKAT — the semi-automatic articulation tool (§2.4).
type (
	// Suggestion is one proposed correspondence with score and evidence.
	Suggestion = skat.Suggestion
	// SKATConfig tunes proposal generation.
	SKATConfig = skat.Config
	// Expert is the reviewer in the iterative articulation loop.
	Expert = skat.Expert
	// SessionStats summarises one expert session.
	SessionStats = skat.SessionStats
	// ThresholdExpert auto-accepts suggestions above a score.
	ThresholdExpert = skat.ThresholdExpert
	// OracleExpert accepts suggestions matching a ground truth.
	OracleExpert = skat.OracleExpert
)

// Propose runs SKAT's matchers over two ontologies.
func Propose(o1, o2 *Ontology, cfg SKATConfig) []Suggestion {
	return skat.Propose(o1, o2, cfg)
}

// NewIOExpert returns an interactive Expert reading y/n/m/q decisions from
// in and prompting on out (the CLI session command uses it on the
// terminal).
func NewIOExpert(in io.Reader, out io.Writer, maxRounds int) Expert {
	return &skat.IOExpert{In: in, Out: out, MaxRounds: maxRounds}
}

// QueryPlan is the reformulation plan of a query (System.Explain). When
// explained with analyze it additionally carries per-step actual row
// counts and durations from a real execution.
type QueryPlan = query.Plan

// Observability (internal/obs): every process shares one metrics
// registry — cmd/oniond serves it at GET /metrics in the Prometheus
// text exposition — and executions requested with tracing record a span
// tree.
type (
	// TraceSpan is one node of a query's span tree (QueryOptions.Trace,
	// QueryService.Answer's trace, or oniond's trace=1): a named timed
	// operation with attributes and children. Its Tree method renders
	// the indented text form.
	TraceSpan = obs.Span
	// TraceAttr is one key/value annotation on a span.
	TraceAttr = obs.Attr
)

// NewTrace starts a root span for a hand-driven trace: pass it as
// QueryOptions.Trace or as QueryService.Answer's trace, and end it with
// End once the call returns.
func NewTrace(name string) *TraceSpan { return obs.NewTrace(name) }

// Lexicon is the WordNet-substitute semantic lexicon.
type Lexicon = lexicon.Lexicon

// DefaultLexicon returns the embedded vocabulary.
func DefaultLexicon() *Lexicon { return lexicon.DefaultLexicon() }

// NewLexicon returns an empty lexicon for custom vocabularies.
func NewLexicon() *Lexicon { return lexicon.New() }

// LoadLexicon reads a lexicon in the text format "words : parents : gloss"
// (one synset per line) — the bulk-import path for WordNet-derived
// vocabularies.
func LoadLexicon(r io.Reader) (*Lexicon, error) { return lexicon.Load(r) }

// Knowledge bases and values.
type (
	// KB is an instance fact store beneath a source ontology.
	KB = kb.Store
	// Value is a fact object: term, string or number.
	Value = kb.Value
	// Fact is one (subject, predicate, object) statement.
	Fact = kb.Fact
)

// NewKB returns an empty knowledge base named after its ontology.
func NewKB(name string) *KB { return kb.New(name) }

// Term builds a term value.
func Term(name string) Value { return kb.Term(name) }

// Str builds a string-literal value.
func Str(s string) Value { return kb.String(s) }

// Num builds a numeric value.
func Num(n float64) Value { return kb.Number(n) }

// Query system.
type (
	// Query is a conjunctive SELECT query over triple patterns.
	Query = query.Query
	// QueryResult is a deterministic answer table.
	QueryResult = query.Result
	// QueryEngine reformulates and executes queries across bridges
	// (Execute, Explain).
	QueryEngine = query.Engine
	// QuerySource pairs an ontology with its knowledge base, and holds
	// the one record of scan indexes every engine over it shares. Do not
	// copy one after first use.
	QuerySource = query.Source
	// QueryOptions tune execution: Workers bounds the scan worker pool
	// (0 = GOMAXPROCS, 1 = one scan worker); every planned query runs as
	// a cross-step streaming pipeline over columnar batches — rows flow
	// between stages as per-slot value vectors with vectorized hash,
	// filter and probe passes — whose per-step hash-partition counts the
	// planner derives from its scan estimates (Partitions > 0 pins a
	// global count instead). MemoryLimit caps the execution's accounted
	// bytes: join partitions that cannot reserve within it degrade to
	// grace-hash spilling joins (temp-file runs under SpillDir), with
	// rows byte-identical to the unbounded run. Sequential forces the
	// reference path (textual join order, unindexed scans, no plan
	// cache) — the oracle every planned execution is tested against.
	// Trace, when set, is the parent span the execution's query.execute
	// subtree is recorded under.
	QueryOptions = query.Options
	// QueryStats counts the work one execution performed, including the
	// plan/parallelism counters of the planned path (scan workers, join
	// partitions per step, streamed batches, pipelined steps, cancelled
	// scans) and the memory-governance counters (peak accounted bytes,
	// spilled partitions, spill runs, adaptive partition steps).
	QueryStats = query.Stats
)

// ParseQuery parses "SELECT ?x WHERE ?x InstanceOf Vehicle . ?x Price ?p".
func ParseQuery(s string) (Query, error) { return query.Parse(s) }

// QueryFromPattern converts a graph pattern into a conjunctive query —
// the paper's pattern notation doubles as its query notation (§3).
func QueryFromPattern(p *Pattern, selectVars ...string) (Query, error) {
	return query.FromPattern(p, selectVars...)
}

// NewQueryEngine builds an engine over an articulation and its sources.
// Engines built over the same *QuerySource values share its index record;
// do not mutate a source while any engine reading it executes.
func NewQueryEngine(art *Articulation, sources map[string]*QuerySource) (*QueryEngine, error) {
	return query.NewEngine(art, sources)
}

// Serving layer (internal/serve): a concurrent query service over a
// System with an epoch-keyed result cache, singleflight coalescing of
// identical in-flight queries, per-request deadlines and — when
// ServeOptions.AdmissionCapBytes is set — admission control over one
// process-wide execution-memory pool. cmd/oniond exposes it over
// HTTP/JSON.
type (
	// QueryService answers queries through the coalescing result cache.
	QueryService = serve.Service
	// ServeOptions tune the service (cache bounds — including the
	// separate negative-result cache — default deadline, execution
	// options, and the admission pool: cap, queue length, default and
	// minimum grant of the degradation ladder).
	ServeOptions = serve.Options
	// ServeStats are the service's traffic counters (hits, misses,
	// coalesced, negative hits, evictions, mutations, spilled queries,
	// admission admitted/queued/shed/degraded counts and queue-wait
	// time, disk-tier faults and circuit-breaker trips).
	ServeStats = serve.Stats
	// ServeOutcome reports how a query was answered (hit, coalesced,
	// miss) or refused under overload (queued, shed).
	ServeOutcome = serve.Outcome
	// ServeLimits are per-request resource bounds beside the context
	// deadline (a memory budget under which joins spill).
	ServeLimits = serve.Limits
)

// Admission refusals, for errors.Is against QueryService errors: ErrShed
// is an immediate refusal (full pool and full queue — back off and
// retry), ErrQueueTimeout an admission wait that outlived the request's
// context (it wraps the context error).
var (
	ErrShed         = serve.ErrShed
	ErrQueueTimeout = serve.ErrQueueTimeout
)

// NewQueryService wraps a System in a serving layer. Results served from
// the cache are exact: every mutation through the System bumps the
// touched source's epoch, and cache keys include the epoch vector.
func NewQueryService(sys *System, opts ServeOptions) *QueryService {
	return serve.New(sys, opts)
}

// Inference engine (Horn clauses over binary atoms).
type (
	// Clause is a definite Horn clause.
	Clause = inference.Clause
	// InferenceEngine evaluates clauses to fixpoint.
	InferenceEngine = inference.Engine
)

// ParseClause parses "S(?x,?z) :- S(?x,?y), S(?y,?z)".
func ParseClause(s string) (Clause, error) { return inference.ParseClause(s) }

// NewInferenceEngine builds an engine with the given clauses.
func NewInferenceEngine(clauses ...Clause) (*InferenceEngine, error) {
	return inference.New(clauses...)
}

// Wrapper formats (§2.1): adjacency lists, XML documents, IDL subset.
type Format = wrapper.Format

// Formats accepted by ReadOntology / WriteOntology.
const (
	FormatAdjacency = wrapper.FormatAdjacency
	FormatXML       = wrapper.FormatXML
	FormatIDL       = wrapper.FormatIDL
)

// ViewOptions tune the text renderer (the viewer substitute, §2.2).
type ViewOptions = view.Options

// DefaultViewOptions show attributes, instances and other relationships.
func DefaultViewOptions() ViewOptions { return view.DefaultOptions() }

// RenderTree renders an ontology's class hierarchy as an indented tree.
func RenderTree(o *Ontology, opts ViewOptions) string { return view.Tree(o, opts) }

// RenderArticulation renders an articulation for expert review: the
// articulation tree plus bridges grouped per articulation term.
func RenderArticulation(a *Articulation, opts ViewOptions) string {
	return view.ArticulationSummary(a, opts)
}

// PatternRule is the general rule form of §4.1 — a graph-pattern LHS whose
// matches each imply the RHS term.
type PatternRule = articulation.PatternRule

// DerivedRule is a rule produced by inference over the supplied rules and
// the sources' class structure, with its supporting facts.
type DerivedRule = articulation.DerivedRule

// InferRules derives additional simple articulation rules (§2.4).
func InferRules(o1, o2 *Ontology, set *RuleSet) ([]DerivedRule, error) {
	return articulation.InferRules(o1, o2, set)
}

// GenerateWithPatterns is Generate plus pattern-rule expansion.
func GenerateWithPatterns(artName string, o1, o2 *Ontology, set *RuleSet, patternRules []PatternRule, opts GenerateOptions) (*GenerateResult, error) {
	return articulation.GenerateWithPatterns(artName, o1, o2, set, patternRules, opts)
}

// ReadOntology parses an external ontology representation.
func ReadOntology(r io.Reader, f Format) (*Ontology, error) { return wrapper.Read(r, f) }

// WriteOntology renders an ontology in an external representation.
func WriteOntology(w io.Writer, o *Ontology, f Format) error { return wrapper.Write(w, o, f) }

// DetectFormat maps a file name to a wrapper format by extension.
func DetectFormat(path string) Format { return wrapper.DetectFormat(path) }
