// Package query implements ONION's query system (EDBT 2000, §2.3): a
// conjunctive triple-pattern language over the unified ontology, a
// reformulator that rewrites articulation-level queries into per-source
// scans across the semantic bridges (applying the functional conversion
// rules to values), and an executor that joins per-source results.
//
// "Interoperation of ontologies forms the basis for querying their
// semantically meaningful intersection ...: a traditional query engine
// takes a query phrased in terms of an articulation ontology and derives
// an execution plan against the sources involved. Given the semantic
// bridges, however, query reformulation is often required."
//
// # Execution model
//
// Queries run over compiled, cached plans. Compilation (plan.go) hoists
// the per-source constant expansions out of the scan loops, estimates
// scan cardinalities from the ontology and KB indexes, orders the joins
// smallest-first, and assigns every query variable a fixed slot; each
// join step carries precomputed key-slot, new-slot and next-key-slot
// lists, so execution never touches binding maps, per-row map copies or
// formatted string keys.
//
// Every planned query — any worker count, one step or many, keyed joins
// or cross products — runs one executor: a cross-step streaming pipeline
// over columnar batches (batchpipe.go). Every step's scans share one
// pool, each join step's partition workers build from the step's own
// scan output, and probe output is re-hashed on the next step's key
// slots at production time and streamed straight into its partitions —
// no frontier is ever materialised between steps, partition counts
// decouple from the worker count (Options{Partitions}), a provably empty
// step cancels the remaining scan dispatch, and under
// Options{MemoryLimit} partitions and projections degrade to spill runs.
//
// All row keys — hash-join keys, projection dedup keys and the final
// sort — share one kind-tagged, framing-safe value encoding
// (internal/rowcodec), so adversarial payloads (embedded NUL bytes,
// kind-colliding formats) cannot collapse distinct rows or falsely join.
//
// The seed's sequential reference (Options{Sequential}: textual join
// order, unindexed scans, binding maps) is kept as the oracle of the
// differential tests: every planned execution returns rows identical to
// it.
package query

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/kb"
)

// Term is one position of a triple pattern: a variable or a constant.
type Term struct {
	// Var is the variable name (without '?'); empty for constants.
	Var string
	// Value is the constant when Var is empty. Term-valued constants name
	// articulation terms ("Vehicle"), source-qualified terms
	// ("carrier.MyCar"), or instances; literals are strings or numbers.
	Value kb.Value
}

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// V builds a variable term.
func V(name string) Term { return Term{Var: name} }

// C builds a constant term.
func C(v kb.Value) Term { return Term{Value: v} }

// String renders the term in query syntax.
func (t Term) String() string {
	if t.IsVar() {
		return "?" + t.Var
	}
	return t.Value.Format()
}

// Triple is one conjunct of the WHERE clause.
type Triple struct {
	S, P, O Term
}

// String renders the triple.
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s", t.S, t.P, t.O)
}

// CmpOp is a comparison operator of a FILTER clause.
type CmpOp int

// Comparison operators.
const (
	OpLT CmpOp = iota
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
)

// String returns the operator's query syntax.
func (op CmpOp) String() string {
	switch op {
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	default:
		return "?"
	}
}

// Filter is one FILTER clause: a comparison between a variable's binding
// and a constant value. Numeric comparisons require a numeric binding;
// = and != also apply to terms and strings.
type Filter struct {
	Var   string
	Op    CmpOp
	Value kb.Value
}

// String renders the filter in query syntax.
func (f Filter) String() string {
	return fmt.Sprintf("FILTER ?%s %s %s", f.Var, f.Op, f.Value.Format())
}

// Accepts reports whether a bound value passes the filter. Unbound or
// type-mismatched values fail (conservative: filters never widen results).
func (f Filter) Accepts(v kb.Value) bool {
	switch f.Op {
	case OpEQ:
		return v.Equal(f.Value)
	case OpNE:
		return v.Kind == f.Value.Kind && !v.Equal(f.Value)
	}
	if !v.IsNumber() || !f.Value.IsNumber() {
		return false
	}
	switch f.Op {
	case OpLT:
		return v.Num < f.Value.Num
	case OpLE:
		return v.Num <= f.Value.Num
	case OpGT:
		return v.Num > f.Value.Num
	case OpGE:
		return v.Num >= f.Value.Num
	default:
		return false
	}
}

// Query is a conjunctive SELECT query with optional filters.
type Query struct {
	Select  []string
	Where   []Triple
	Filters []Filter
}

// String renders the query in parseable syntax.
func (q Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT")
	for _, v := range q.Select {
		b.WriteString(" ?")
		b.WriteString(v)
	}
	b.WriteString(" WHERE ")
	for i, t := range q.Where {
		if i > 0 {
			b.WriteString(" . ")
		}
		b.WriteString(t.String())
	}
	for _, f := range q.Filters {
		b.WriteString(" . ")
		b.WriteString(f.String())
	}
	return b.String()
}

// Validate checks that the query selects at least one variable, has at
// least one triple, and that every selected or filtered variable occurs
// in WHERE.
func (q Query) Validate() error {
	if len(q.Select) == 0 {
		return fmt.Errorf("query: empty SELECT")
	}
	if len(q.Where) == 0 {
		return fmt.Errorf("query: empty WHERE")
	}
	bound := make(map[string]bool)
	for _, t := range q.Where {
		for _, term := range []Term{t.S, t.P, t.O} {
			if term.IsVar() {
				bound[term.Var] = true
			}
		}
	}
	for _, v := range q.Select {
		if !bound[v] {
			return fmt.Errorf("query: selected variable ?%s not bound in WHERE", v)
		}
	}
	for _, f := range q.Filters {
		if !bound[f.Var] {
			return fmt.Errorf("query: filtered variable ?%s not bound in WHERE", f.Var)
		}
	}
	return nil
}

// Parse parses the query syntax:
//
//	SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p
//
// Constants may be bare terms (articulation-level), qualified terms
// (carrier.MyCar), quoted strings, or numbers.
func Parse(s string) (Query, error) {
	toks, err := tokenize(s)
	if err != nil {
		return Query{}, err
	}
	p := qparser{in: s, toks: toks}
	return p.parse()
}

// MustParse is Parse for fixtures; it panics on error.
func MustParse(s string) Query {
	q, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return q
}

type qtok struct {
	text string
	pos  int
	str  bool // quoted string literal
}

func tokenize(s string) ([]qtok, error) {
	var toks []qtok
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '.':
			// A dot is the triple separator only when framed by spaces or
			// line ends; inside tokens it is a name qualifier.
			toks = append(toks, qtok{text: ".", pos: i})
			i++
		case c == '"':
			// Strings are Go-style interpreted literals, so rendering a
			// query (strconv.Quote) and reparsing it round-trips exactly.
			j := i + 1
			for j < len(s) && s[j] != '"' {
				if s[j] == '\\' && j+1 < len(s) {
					j++
				}
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("query: unterminated string at %d in %q", i, s)
			}
			text, err := strconv.Unquote(s[i : j+1])
			if err != nil {
				return nil, fmt.Errorf("query: bad string literal at %d in %q: %w", i, s, err)
			}
			toks = append(toks, qtok{text: text, pos: i, str: true})
			i = j + 1
		default:
			j := i
			for j < len(s) && !strings.ContainsRune(" \t\n\r\"", rune(s[j])) {
				// Stop a bare '.' separator, but keep qualified names
				// ("carrier.MyCar") intact: a '.' inside a token is kept
				// when followed by a non-space.
				if s[j] == '.' && (j+1 >= len(s) || s[j+1] == ' ' || s[j+1] == '\t' || s[j+1] == '\n' || s[j+1] == '\r') {
					break
				}
				j++
			}
			text := s[i:j]
			// A token ending in '.' cannot be rendered unambiguously
			// against the ' . ' clause separator; reject it outright.
			if strings.HasSuffix(text, ".") {
				return nil, fmt.Errorf("query: term ending in '.' at %d in %q", i, s)
			}
			toks = append(toks, qtok{text: text, pos: i})
			i = j
		}
	}
	return toks, nil
}

type qparser struct {
	in   string
	toks []qtok
	pos  int
}

func (p *qparser) next() (qtok, bool) {
	if p.pos >= len(p.toks) {
		return qtok{}, false
	}
	t := p.toks[p.pos]
	p.pos++
	return t, true
}

func (p *qparser) parse() (Query, error) {
	var q Query
	t, ok := p.next()
	if !ok || !strings.EqualFold(t.text, "SELECT") {
		return q, fmt.Errorf("query: expected SELECT in %q", p.in)
	}
	for {
		t, ok = p.next()
		if !ok {
			return q, fmt.Errorf("query: expected WHERE in %q", p.in)
		}
		if strings.EqualFold(t.text, "WHERE") && !t.str {
			break
		}
		if !strings.HasPrefix(t.text, "?") || len(t.text) < 2 {
			return q, fmt.Errorf("query: expected variable in SELECT at %d in %q", t.pos, p.in)
		}
		q.Select = append(q.Select, t.text[1:])
	}
	for {
		if nt, ok := p.peekTok(); ok && !nt.str && strings.EqualFold(nt.text, "FILTER") {
			p.pos++
			filter, err := p.parseFilter()
			if err != nil {
				return q, err
			}
			q.Filters = append(q.Filters, filter)
		} else {
			triple, err := p.parseTriple()
			if err != nil {
				return q, err
			}
			q.Where = append(q.Where, triple)
		}
		t, ok = p.next()
		if !ok {
			break
		}
		if t.text != "." || t.str {
			return q, fmt.Errorf("query: expected '.' between clauses at %d in %q", t.pos, p.in)
		}
	}
	return q, q.Validate()
}

func (p *qparser) peekTok() (qtok, bool) {
	if p.pos >= len(p.toks) {
		return qtok{}, false
	}
	return p.toks[p.pos], true
}

// parseFilter parses "?var op value" after the FILTER keyword.
func (p *qparser) parseFilter() (Filter, error) {
	v, ok := p.next()
	if !ok || !strings.HasPrefix(v.text, "?") || len(v.text) < 2 {
		return Filter{}, fmt.Errorf("query: FILTER needs a variable in %q", p.in)
	}
	opTok, ok := p.next()
	if !ok {
		return Filter{}, fmt.Errorf("query: FILTER needs an operator in %q", p.in)
	}
	var op CmpOp
	switch opTok.text {
	case "<":
		op = OpLT
	case "<=":
		op = OpLE
	case ">":
		op = OpGT
	case ">=":
		op = OpGE
	case "=", "==":
		op = OpEQ
	case "!=":
		op = OpNE
	default:
		return Filter{}, fmt.Errorf("query: unknown FILTER operator %q in %q", opTok.text, p.in)
	}
	valTok, ok := p.next()
	if !ok {
		return Filter{}, fmt.Errorf("query: FILTER needs a value in %q", p.in)
	}
	val, err := parseTerm(valTok)
	if err != nil {
		return Filter{}, err
	}
	if val.IsVar() {
		return Filter{}, fmt.Errorf("query: FILTER value must be a constant in %q", p.in)
	}
	return Filter{Var: v.text[1:], Op: op, Value: val.Value}, nil
}

func (p *qparser) parseTriple() (Triple, error) {
	var terms [3]Term
	for i := 0; i < 3; i++ {
		t, ok := p.next()
		if !ok {
			return Triple{}, fmt.Errorf("query: incomplete triple in %q", p.in)
		}
		term, err := parseTerm(t)
		if err != nil {
			return Triple{}, err
		}
		terms[i] = term
	}
	return Triple{S: terms[0], P: terms[1], O: terms[2]}, nil
}

func parseTerm(t qtok) (Term, error) {
	if t.str {
		return C(kb.String(t.text)), nil
	}
	if strings.HasPrefix(t.text, "?") {
		if len(t.text) < 2 {
			return Term{}, fmt.Errorf("query: empty variable name at %d", t.pos)
		}
		return V(t.text[1:]), nil
	}
	if n, err := strconv.ParseFloat(t.text, 64); err == nil {
		return C(kb.Number(n)), nil
	}
	if t.text == "" || t.text == "." {
		return Term{}, fmt.Errorf("query: empty term at %d", t.pos)
	}
	return C(kb.Term(t.text)), nil
}
