// Package inference implements ONION's pluggable logical inference engine
// (EDBT 2000, §2.1, §2.4, §4.1).
//
// The paper separates the inference engine from the ontology representation
// so that engines of different power can be plugged in, and argues that
// "since inference engines for full first-order systems tend not to scale
// up ... we will use simple Horn Clauses to represent articulation rules"
// so that "a much lighter (and faster) inference engine" can be used.
//
// This package provides exactly that Horn fragment: facts are binary atoms
// pred(subject, object) — precisely the labeled edges of the graph model —
// and rules are definite Horn clauses over binary atoms, e.g.
//
//	SubclassOf(?x,?z) :- SubclassOf(?x,?y), SubclassOf(?y,?z)
//
// Two evaluation strategies are available: Run (semi-naive, delta-driven —
// the "lighter and faster" engine) and RunNaive (recompute-everything
// naive iteration, standing in for a heavyweight engine;
// TestNaiveAndSemiNaiveAgree compares the two). Both reach the same
// fixpoint.
//
// Derived facts carry provenance: which clause fired and which body facts
// supported it, so the articulation engine can explain suggested bridges
// and "detect errors in the articulation rules" (§1).
package inference

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/ontology"
)

// Term is one argument of an atom: a variable (Var non-empty) or a
// constant.
type Term struct {
	Var   string
	Const string
}

// V builds a variable term.
func V(name string) Term { return Term{Var: name} }

// C builds a constant term.
func C(value string) Term { return Term{Const: value} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term in clause syntax.
func (t Term) String() string {
	if t.IsVar() {
		return "?" + t.Var
	}
	return t.Const
}

// Atom is a binary atom pred(arg0, arg1).
type Atom struct {
	Pred string
	Args [2]Term
}

// A builds an atom.
func A(pred string, s, o Term) Atom { return Atom{Pred: pred, Args: [2]Term{s, o}} }

// String renders the atom in clause syntax.
func (a Atom) String() string {
	return fmt.Sprintf("%s(%s, %s)", a.Pred, a.Args[0], a.Args[1])
}

// Clause is a definite Horn clause Head :- Body. An empty body makes the
// clause a fact (its head must then be ground).
type Clause struct {
	Head Atom
	Body []Atom
}

// String renders the clause in parseable syntax.
func (c Clause) String() string {
	if len(c.Body) == 0 {
		return c.Head.String()
	}
	parts := make([]string, len(c.Body))
	for i, b := range c.Body {
		parts[i] = b.String()
	}
	return c.Head.String() + " :- " + strings.Join(parts, ", ")
}

// Validate enforces range restriction (every head variable appears in the
// body) and groundness of facts, the conditions under which bottom-up
// evaluation terminates with finite results.
func (c Clause) Validate() error {
	bodyVars := make(map[string]bool)
	for _, b := range c.Body {
		if b.Pred == "" {
			return fmt.Errorf("inference: clause %q: empty predicate in body", c)
		}
		for _, t := range b.Args {
			if t.IsVar() {
				bodyVars[t.Var] = true
			}
		}
	}
	if c.Head.Pred == "" {
		return fmt.Errorf("inference: clause %q: empty head predicate", c)
	}
	for _, t := range c.Head.Args {
		if t.IsVar() && !bodyVars[t.Var] {
			return fmt.Errorf("inference: clause %q: head variable ?%s not bound in body", c, t.Var)
		}
	}
	return nil
}

// Fact is a ground binary atom.
type Fact struct {
	Pred string
	Subj string
	Obj  string
}

// String renders the fact in clause syntax.
func (f Fact) String() string { return fmt.Sprintf("%s(%s, %s)", f.Pred, f.Subj, f.Obj) }

// Derivation explains one derived fact: the clause that produced it and
// the body facts that matched.
type Derivation struct {
	Clause int // index into the engine's clause list
	Body   []Fact
}

// Stats reports work done by one evaluation run.
type Stats struct {
	// Iterations is the number of fixpoint rounds.
	Iterations int
	// Derived is the number of new facts produced.
	Derived int
	// JoinsConsidered counts candidate body matches examined — the
	// engine-effort metric TestNaiveAndSemiNaiveAgree compares across
	// strategies.
	JoinsConsidered int
}

// Engine evaluates Horn clauses over a fact store.
type Engine struct {
	clauses []Clause
	facts   map[Fact]struct{}
	base    map[Fact]struct{} // facts present before any run
	byPred  map[string][]Fact
	bySubj  map[string][]Fact // key pred + "\x00" + subj
	byObj   map[string][]Fact // key pred + "\x00" + obj
	prov    map[Fact]Derivation
	joins   int
}

// New builds an engine with the given clauses. Invalid clauses are
// rejected.
func New(clauses ...Clause) (*Engine, error) {
	e := &Engine{
		facts:  make(map[Fact]struct{}),
		base:   make(map[Fact]struct{}),
		byPred: make(map[string][]Fact),
		bySubj: make(map[string][]Fact),
		byObj:  make(map[string][]Fact),
		prov:   make(map[Fact]Derivation),
	}
	for _, c := range clauses {
		if err := e.AddClause(c); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// AddClause validates and installs a clause; ground facts (empty body)
// enter the fact store immediately.
func (e *Engine) AddClause(c Clause) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if len(c.Body) == 0 {
		for _, t := range c.Head.Args {
			if t.IsVar() {
				return fmt.Errorf("inference: fact %q is not ground", c)
			}
		}
		e.AddFact(Fact{Pred: c.Head.Pred, Subj: c.Head.Args[0].Const, Obj: c.Head.Args[1].Const})
		return nil
	}
	e.clauses = append(e.clauses, c)
	return nil
}

// Clauses returns the installed clauses (facts excluded).
func (e *Engine) Clauses() []Clause { return append([]Clause(nil), e.clauses...) }

// AddFact inserts a base fact (idempotent).
func (e *Engine) AddFact(f Fact) {
	if _, ok := e.facts[f]; ok {
		return
	}
	e.insert(f)
	e.base[f] = struct{}{}
}

func (e *Engine) insert(f Fact) {
	e.facts[f] = struct{}{}
	e.byPred[f.Pred] = append(e.byPred[f.Pred], f)
	e.bySubj[f.Pred+"\x00"+f.Subj] = append(e.bySubj[f.Pred+"\x00"+f.Subj], f)
	e.byObj[f.Pred+"\x00"+f.Obj] = append(e.byObj[f.Pred+"\x00"+f.Obj], f)
}

// AddGraph loads every edge of g as a base fact pred(subjLabel, objLabel).
func (e *Engine) AddGraph(g *graph.Graph) {
	for _, edge := range g.Edges() {
		e.AddFact(Fact{Pred: edge.Label, Subj: g.Label(edge.From), Obj: g.Label(edge.To)})
	}
}

// Has reports whether the fact is currently known (base or derived).
func (e *Engine) Has(f Fact) bool {
	_, ok := e.facts[f]
	return ok
}

// NumFacts returns the number of known facts.
func (e *Engine) NumFacts() int { return len(e.facts) }

// Facts returns all known facts, sorted.
func (e *Engine) Facts() []Fact {
	out := make([]Fact, 0, len(e.facts))
	for f := range e.facts {
		out = append(out, f)
	}
	sortFacts(out)
	return out
}

// Derived returns facts produced by inference (not in the base set),
// sorted.
func (e *Engine) Derived() []Fact {
	var out []Fact
	for f := range e.facts {
		if _, isBase := e.base[f]; !isBase {
			out = append(out, f)
		}
	}
	sortFacts(out)
	return out
}

// Explain returns the derivation of a derived fact. Base facts and unknown
// facts report ok=false.
func (e *Engine) Explain(f Fact) (Derivation, bool) {
	d, ok := e.prov[f]
	return d, ok
}

// ExplainDeep returns the full support tree of a fact flattened into a
// deterministic list of (fact, derivation) steps, base facts omitted.
func (e *Engine) ExplainDeep(f Fact) []Fact {
	seen := make(map[Fact]bool)
	var order []Fact
	var walk func(Fact)
	walk = func(g Fact) {
		if seen[g] {
			return
		}
		seen[g] = true
		if d, ok := e.prov[g]; ok {
			for _, b := range d.Body {
				walk(b)
			}
			order = append(order, g)
		}
	}
	walk(f)
	return order
}

// Run evaluates to fixpoint with the semi-naive (delta-driven) strategy —
// the paper's "much lighter (and faster) inference engine". Each round
// only considers joins in which at least one body atom matches a fact
// derived in the previous round: for body position i the combination is
// old facts before i, a delta fact at i, and any fact after i (the
// standard semi-naive decomposition, which enumerates each new join
// exactly once).
func (e *Engine) Run() Stats {
	e.joins = 0
	stats := Stats{}
	delta := e.Facts() // first round: everything is new
	for len(delta) > 0 {
		stats.Iterations++
		dIdx := newDeltaIndex(delta)
		var next []Fact
		for ci, c := range e.clauses {
			for i := range c.Body {
				e.joinSemiNaive(c, ci, i, dIdx, func(f Fact, d Derivation) {
					if _, known := e.facts[f]; !known {
						e.insert(f)
						e.prov[f] = d
						next = append(next, f)
					}
				})
			}
		}
		stats.Derived += len(next)
		delta = next
	}
	stats.JoinsConsidered = e.joins
	return stats
}

// RunNaive evaluates to fixpoint recomputing every clause against the full
// fact store each round — the heavyweight baseline the light engine is
// measured against (TestNaiveAndSemiNaiveAgree).
func (e *Engine) RunNaive() Stats {
	e.joins = 0
	stats := Stats{}
	for {
		stats.Iterations++
		var next []Fact
		for ci, c := range e.clauses {
			e.joinAll(c, ci, func(f Fact, d Derivation) {
				if _, known := e.facts[f]; !known {
					e.insert(f)
					e.prov[f] = d
					next = append(next, f)
				}
			})
		}
		if len(next) == 0 {
			break
		}
		stats.Derived += len(next)
	}
	stats.JoinsConsidered = e.joins
	return stats
}

// deltaIndex indexes the facts derived in the previous round.
type deltaIndex struct {
	set    map[Fact]struct{}
	byPred map[string][]Fact
}

func newDeltaIndex(delta []Fact) *deltaIndex {
	d := &deltaIndex{
		set:    make(map[Fact]struct{}, len(delta)),
		byPred: make(map[string][]Fact),
	}
	for _, f := range delta {
		d.set[f] = struct{}{}
		d.byPred[f.Pred] = append(d.byPred[f.Pred], f)
	}
	return d
}

// joinAll enumerates every match of c's body against the full fact store.
func (e *Engine) joinAll(c Clause, clauseIdx int, emit func(Fact, Derivation)) {
	e.join(c, clauseIdx, nil, -1, emit)
}

// joinSemiNaive enumerates matches where body atom deltaPos comes from the
// delta, positions before it from old facts, positions after it from all
// facts. The delta atom is evaluated first so its (small) extent drives
// the join.
func (e *Engine) joinSemiNaive(c Clause, clauseIdx, deltaPos int, d *deltaIndex, emit func(Fact, Derivation)) {
	e.join(c, clauseIdx, d, deltaPos, emit)
}

func (e *Engine) join(c Clause, clauseIdx int, d *deltaIndex, deltaPos int, emit func(Fact, Derivation)) {
	// Evaluation order: delta position first (most selective), then the
	// remaining atoms left to right.
	order := make([]int, 0, len(c.Body))
	if deltaPos >= 0 {
		order = append(order, deltaPos)
	}
	for i := range c.Body {
		if i != deltaPos {
			order = append(order, i)
		}
	}
	binding := make(map[string]string)
	support := make([]Fact, len(c.Body))
	var rec func(k int)
	rec = func(k int) {
		if k == len(order) {
			head, ok := ground(c.Head, binding)
			if !ok {
				return // unreachable for validated clauses
			}
			emit(head, Derivation{Clause: clauseIdx, Body: append([]Fact(nil), support...)})
			return
		}
		i := order[k]
		atom := c.Body[i]
		var cands []Fact
		if i == deltaPos {
			cands = d.byPred[atom.Pred]
		} else {
			cands = e.candidates(atom, binding)
		}
		for _, f := range cands {
			e.joins++
			if deltaPos >= 0 && i < deltaPos {
				// Positions left of the delta atom range over old facts
				// only; delta-delta combinations there are covered when
				// deltaPos equals that position.
				if _, inDelta := d.set[f]; inDelta {
					continue
				}
			}
			undo := bind(atom, f, binding)
			if undo == nil {
				continue
			}
			support[i] = f
			rec(k + 1)
			undo()
		}
	}
	rec(0)
}

// candidates returns facts that could match atom under binding, using the
// narrowest available index.
func (e *Engine) candidates(a Atom, binding map[string]string) []Fact {
	subj, subjKnown := resolveTerm(a.Args[0], binding)
	obj, objKnown := resolveTerm(a.Args[1], binding)
	switch {
	case subjKnown && objKnown:
		f := Fact{Pred: a.Pred, Subj: subj, Obj: obj}
		if _, ok := e.facts[f]; ok {
			return []Fact{f}
		}
		return nil
	case subjKnown:
		return e.bySubj[a.Pred+"\x00"+subj]
	case objKnown:
		return e.byObj[a.Pred+"\x00"+obj]
	default:
		return e.byPred[a.Pred]
	}
}

func resolveTerm(t Term, binding map[string]string) (string, bool) {
	if !t.IsVar() {
		return t.Const, true
	}
	v, ok := binding[t.Var]
	return v, ok
}

// bind unifies atom a with fact f under binding; it returns an undo
// function, or nil if unification fails.
func bind(a Atom, f Fact, binding map[string]string) func() {
	var added []string
	try := func(t Term, val string) bool {
		if !t.IsVar() {
			return t.Const == val
		}
		if cur, ok := binding[t.Var]; ok {
			return cur == val
		}
		binding[t.Var] = val
		added = append(added, t.Var)
		return true
	}
	if !try(a.Args[0], f.Subj) || !try(a.Args[1], f.Obj) {
		for _, v := range added {
			delete(binding, v)
		}
		return nil
	}
	return func() {
		for _, v := range added {
			delete(binding, v)
		}
	}
}

func ground(a Atom, binding map[string]string) (Fact, bool) {
	s, ok1 := resolveTerm(a.Args[0], binding)
	o, ok2 := resolveTerm(a.Args[1], binding)
	if !ok1 || !ok2 {
		return Fact{}, false
	}
	return Fact{Pred: a.Pred, Subj: s, Obj: o}, true
}

func sortFacts(fs []Fact) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pred != b.Pred {
			return a.Pred < b.Pred
		}
		if a.Subj != b.Subj {
			return a.Subj < b.Subj
		}
		return a.Obj < b.Obj
	})
}

// ClausesFromRelations translates an ontology's relationship property
// declarations (§2.5 "rules that define the properties of each
// relationship") into Horn clauses: transitivity, symmetry, and inverse
// pairs.
func ClausesFromRelations(o *ontology.Ontology) []Clause {
	var cs []Clause
	for _, spec := range o.Relations() {
		r := spec.Name
		if spec.Props.Has(ontology.Transitive) {
			cs = append(cs, Clause{
				Head: A(r, V("x"), V("z")),
				Body: []Atom{A(r, V("x"), V("y")), A(r, V("y"), V("z"))},
			})
		}
		if spec.Props.Has(ontology.Symmetric) {
			cs = append(cs, Clause{
				Head: A(r, V("y"), V("x")),
				Body: []Atom{A(r, V("x"), V("y"))},
			})
		}
		if spec.InverseOf != "" {
			cs = append(cs,
				Clause{Head: A(spec.InverseOf, V("y"), V("x")), Body: []Atom{A(r, V("x"), V("y"))}},
				Clause{Head: A(r, V("y"), V("x")), Body: []Atom{A(spec.InverseOf, V("x"), V("y"))}},
			)
		}
	}
	return cs
}

// ApplyDerived adds derived facts back into an ontology as relationship
// edges. Facts whose terms are unknown in the ontology are skipped and
// reported; this keeps inference from inventing terms.
func ApplyDerived(o *ontology.Ontology, derived []Fact) (applied int, skipped []Fact) {
	for _, f := range derived {
		if !o.HasTerm(f.Subj) || !o.HasTerm(f.Obj) {
			skipped = append(skipped, f)
			continue
		}
		if o.Related(f.Subj, f.Pred, f.Obj) {
			continue
		}
		if err := o.Relate(f.Subj, f.Pred, f.Obj); err != nil {
			skipped = append(skipped, f)
			continue
		}
		applied++
	}
	return applied, skipped
}
