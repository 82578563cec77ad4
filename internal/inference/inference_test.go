package inference

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/ontology"
)

func transitivity(pred string) Clause {
	return Clause{
		Head: A(pred, V("x"), V("z")),
		Body: []Atom{A(pred, V("x"), V("y")), A(pred, V("y"), V("z"))},
	}
}

func mustEngine(t testing.TB, clauses ...Clause) *Engine {
	t.Helper()
	e, err := New(clauses...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTransitiveChainDerivation(t *testing.T) {
	e := mustEngine(t, transitivity("S"))
	e.AddFact(Fact{"S", "a", "b"})
	e.AddFact(Fact{"S", "b", "c"})
	e.AddFact(Fact{"S", "c", "d"})
	stats := e.Run()
	// Derived: a-c, a-d, b-d.
	if stats.Derived != 3 {
		t.Fatalf("Derived = %d, want 3", stats.Derived)
	}
	for _, want := range []Fact{{"S", "a", "c"}, {"S", "a", "d"}, {"S", "b", "d"}} {
		if !e.Has(want) {
			t.Fatalf("missing derived fact %v", want)
		}
	}
	if e.Has(Fact{"S", "d", "a"}) {
		t.Fatalf("derived reverse fact")
	}
}

func TestSymmetryAndInverseClauses(t *testing.T) {
	sym := Clause{Head: A("near", V("y"), V("x")), Body: []Atom{A("near", V("x"), V("y"))}}
	inv1 := Clause{Head: A("childOf", V("y"), V("x")), Body: []Atom{A("parentOf", V("x"), V("y"))}}
	e := mustEngine(t, sym, inv1)
	e.AddFact(Fact{"near", "a", "b"})
	e.AddFact(Fact{"parentOf", "p", "c"})
	e.Run()
	if !e.Has(Fact{"near", "b", "a"}) {
		t.Fatalf("symmetric fact missing")
	}
	if !e.Has(Fact{"childOf", "c", "p"}) {
		t.Fatalf("inverse fact missing")
	}
}

func TestConstantsInClause(t *testing.T) {
	// Everything that is a subclass of Vehicle is a CargoCandidate of depot.
	c := Clause{
		Head: A("CargoCandidate", V("x"), C("depot")),
		Body: []Atom{A("S", V("x"), C("Vehicle"))},
	}
	e := mustEngine(t, c)
	e.AddFact(Fact{"S", "Truck", "Vehicle"})
	e.AddFact(Fact{"S", "Truck", "Machine"})
	e.AddFact(Fact{"S", "Car", "Vehicle"})
	e.Run()
	if !e.Has(Fact{"CargoCandidate", "Truck", "depot"}) || !e.Has(Fact{"CargoCandidate", "Car", "depot"}) {
		t.Fatalf("constant-restricted derivation missing")
	}
	if e.Has(Fact{"CargoCandidate", "Machine", "depot"}) {
		t.Fatalf("derived for wrong constant")
	}
}

func TestJoinAcrossPredicates(t *testing.T) {
	// grandparent(?x,?z) :- parent(?x,?y), parent(?y,?z)
	gp := Clause{
		Head: A("grandparent", V("x"), V("z")),
		Body: []Atom{A("parent", V("x"), V("y")), A("parent", V("y"), V("z"))},
	}
	e := mustEngine(t, gp)
	e.AddFact(Fact{"parent", "alice", "bob"})
	e.AddFact(Fact{"parent", "bob", "carol"})
	e.AddFact(Fact{"parent", "bob", "dave"})
	e.Run()
	if !e.Has(Fact{"grandparent", "alice", "carol"}) || !e.Has(Fact{"grandparent", "alice", "dave"}) {
		t.Fatalf("join derivation missing: %v", e.Derived())
	}
	if len(e.Derived()) != 2 {
		t.Fatalf("Derived = %v, want exactly 2", e.Derived())
	}
}

// ancestorChain is the right-linear closure anc(x,z) :- par(x,y),
// anc(y,z) over an n-node parent chain: naive evaluation re-derives every
// known ancestor pair each round, so the light engine's advantage grows
// with n.
func ancestorChain(t testing.TB, n int) *Engine {
	e := mustEngine(t,
		MustParseClause("anc(?x,?y) :- par(?x,?y)"),
		MustParseClause("anc(?x,?z) :- par(?x,?y), anc(?y,?z)"))
	for i := 0; i+1 < n; i++ {
		e.AddFact(Fact{"par", fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1)})
	}
	return e
}

func TestNaiveAndSemiNaiveAgree(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Engine
	}{
		{"two-closures", func() *Engine {
			e := mustEngine(t, transitivity("S"),
				Clause{Head: A("SI", V("x"), V("y")), Body: []Atom{A("S", V("x"), V("y"))}},
				transitivity("SI"))
			chain := []string{"a", "b", "c", "d", "e", "f"}
			for i := 0; i+1 < len(chain); i++ {
				e.AddFact(Fact{"S", chain[i], chain[i+1]})
			}
			e.AddFact(Fact{"SI", "f", "g"})
			return e
		}},
		{"anc/30", func() *Engine { return ancestorChain(t, 30) }},
		{"anc/60", func() *Engine { return ancestorChain(t, 60) }},
	}
	ratio := make(map[string]float64, len(cases))
	for _, c := range cases {
		e1 := c.build()
		s1 := e1.Run()
		e2 := c.build()
		s2 := e2.RunNaive()
		if !reflect.DeepEqual(e1.Facts(), e2.Facts()) {
			t.Fatalf("%s: strategies disagree:\nsemi-naive %v\nnaive %v", c.name, e1.Facts(), e2.Facts())
		}
		if s1.Derived != s2.Derived {
			t.Fatalf("%s: derived counts differ: %d vs %d", c.name, s1.Derived, s2.Derived)
		}
		if s1.JoinsConsidered >= s2.JoinsConsidered {
			t.Fatalf("%s: semi-naive should consider fewer joins: %d vs %d", c.name, s1.JoinsConsidered, s2.JoinsConsidered)
		}
		ratio[c.name] = float64(s2.JoinsConsidered) / float64(s1.JoinsConsidered)
	}
	// The light-engine claim (§4.1): the naive/semi-naive join ratio
	// grows with the chain.
	if ratio["anc/60"] <= ratio["anc/30"] {
		t.Fatalf("naive/semi-naive join ratio did not grow: %.2f at 30 facts, %.2f at 60", ratio["anc/30"], ratio["anc/60"])
	}
}

func TestRunIsIdempotent(t *testing.T) {
	e := mustEngine(t, transitivity("S"))
	e.AddFact(Fact{"S", "a", "b"})
	e.AddFact(Fact{"S", "b", "c"})
	first := e.Run()
	if first.Derived != 1 {
		t.Fatalf("first run derived %d, want 1", first.Derived)
	}
	second := e.Run()
	if second.Derived != 0 {
		t.Fatalf("second run derived %d, want 0", second.Derived)
	}
}

func TestProvenance(t *testing.T) {
	e := mustEngine(t, transitivity("S"))
	e.AddFact(Fact{"S", "a", "b"})
	e.AddFact(Fact{"S", "b", "c"})
	e.AddFact(Fact{"S", "c", "d"})
	e.Run()

	d, ok := e.Explain(Fact{"S", "a", "c"})
	if !ok {
		t.Fatalf("no derivation for a-c")
	}
	if d.Clause != 0 || len(d.Body) != 2 {
		t.Fatalf("derivation = %+v", d)
	}
	if _, ok := e.Explain(Fact{"S", "a", "b"}); ok {
		t.Fatalf("base fact has derivation")
	}
	if _, ok := e.Explain(Fact{"S", "z", "z"}); ok {
		t.Fatalf("unknown fact has derivation")
	}

	deep := e.ExplainDeep(Fact{"S", "a", "d"})
	if len(deep) == 0 || deep[len(deep)-1] != (Fact{"S", "a", "d"}) {
		t.Fatalf("ExplainDeep = %v", deep)
	}
	// Every step in the tree must itself be derivable or base.
	for _, f := range deep {
		if !e.Has(f) {
			t.Fatalf("explanation references unknown fact %v", f)
		}
	}
}

func TestAddGraphLoadsEdges(t *testing.T) {
	g := graph.New("t")
	a, b, c := g.AddNode("A"), g.AddNode("B"), g.AddNode("C")
	for _, e := range []graph.Edge{{From: a, Label: "S", To: b}, {From: b, Label: "S", To: c}} {
		if err := g.AddEdge(e.From, e.Label, e.To); err != nil {
			t.Fatal(err)
		}
	}
	e := mustEngine(t, transitivity("S"))
	e.AddGraph(g)
	e.Run()
	if !e.Has(Fact{"S", "A", "C"}) {
		t.Fatalf("graph-loaded facts not derived over")
	}
}

func TestClausesFromRelations(t *testing.T) {
	o := ontology.New("t")
	o.DeclareRelation(ontology.RelationSpec{Name: "near", Props: ontology.Symmetric})
	o.DeclareRelation(ontology.RelationSpec{Name: "parentOf", InverseOf: "childOf"})
	cs := ClausesFromRelations(o)
	// Default declarations add transitivity for SubclassOf and SI, plus
	// symmetric near and the parentOf/childOf inverse pair.
	var nTrans, nSym, nInv int
	for _, c := range cs {
		switch {
		case len(c.Body) == 2:
			nTrans++
		case len(c.Body) == 1 && c.Head.Pred == c.Body[0].Pred:
			nSym++
		case len(c.Body) == 1:
			nInv++
		}
	}
	if nTrans != 2 || nSym != 1 || nInv != 2 {
		t.Fatalf("clause mix = trans %d sym %d inv %d", nTrans, nSym, nInv)
	}
}

func TestApplyDerived(t *testing.T) {
	o := ontology.New("t")
	o.MustAddTerm("A")
	o.MustAddTerm("B")
	o.MustAddTerm("C")
	o.MustRelate("A", ontology.SubclassOf, "B")
	o.MustRelate("B", ontology.SubclassOf, "C")

	e := mustEngine(t, ClausesFromRelations(o)...)
	e.AddGraph(o.Graph())
	e.Run()
	applied, skipped := ApplyDerived(o, e.Derived())
	if applied != 1 || len(skipped) != 0 {
		t.Fatalf("ApplyDerived = (%d, %v), want (1, none)", applied, skipped)
	}
	if !o.Related("A", ontology.SubclassOf, "C") {
		t.Fatalf("derived edge not applied")
	}
	// Unknown terms are skipped, not invented.
	_, skipped = ApplyDerived(o, []Fact{{"SubclassOf", "A", "Ghost"}})
	if len(skipped) != 1 {
		t.Fatalf("unknown-term fact not skipped")
	}
	if o.HasTerm("Ghost") {
		t.Fatalf("inference invented a term")
	}
}

func TestClauseValidation(t *testing.T) {
	unbound := Clause{Head: A("p", V("x"), V("y")), Body: []Atom{A("q", V("x"), C("k"))}}
	if err := unbound.Validate(); err == nil {
		t.Fatalf("unbound head variable accepted")
	}
	if _, err := New(unbound); err == nil {
		t.Fatalf("New accepted invalid clause")
	}
	nonGround := Clause{Head: A("p", V("x"), C("k"))}
	if _, err := New(nonGround); err == nil {
		t.Fatalf("non-ground fact accepted")
	}
	emptyHead := Clause{Head: Atom{}, Body: []Atom{A("q", V("x"), V("y"))}}
	if err := emptyHead.Validate(); err == nil {
		t.Fatalf("empty head accepted")
	}
}

func TestFactAsClause(t *testing.T) {
	e := mustEngine(t)
	if err := e.AddClause(Clause{Head: A("S", C("a"), C("b"))}); err != nil {
		t.Fatal(err)
	}
	if !e.Has(Fact{"S", "a", "b"}) {
		t.Fatalf("fact clause not stored")
	}
	if len(e.Clauses()) != 0 {
		t.Fatalf("fact stored as rule")
	}
}

func TestSelfJoinVariable(t *testing.T) {
	// reflexivePair(?x) style: p(?x,?x) in body requires subj == obj.
	c := Clause{Head: A("loop", V("x"), V("x")), Body: []Atom{A("p", V("x"), V("x"))}}
	e := mustEngine(t, c)
	e.AddFact(Fact{"p", "a", "a"})
	e.AddFact(Fact{"p", "a", "b"})
	e.Run()
	if !e.Has(Fact{"loop", "a", "a"}) {
		t.Fatalf("self-join fact missing")
	}
	if e.Has(Fact{"loop", "a", "b"}) || e.Has(Fact{"loop", "b", "b"}) {
		t.Fatalf("self-join over-derived")
	}
}

func TestCyclicFactsTerminate(t *testing.T) {
	e := mustEngine(t, transitivity("S"))
	e.AddFact(Fact{"S", "a", "b"})
	e.AddFact(Fact{"S", "b", "a"})
	stats := e.Run()
	// Closure of a 2-cycle adds a-a and b-b.
	if stats.Derived != 2 {
		t.Fatalf("cycle closure derived %d, want 2", stats.Derived)
	}
	if !e.Has(Fact{"S", "a", "a"}) || !e.Has(Fact{"S", "b", "b"}) {
		t.Fatalf("cycle closure facts missing")
	}
}

func TestStatsIterations(t *testing.T) {
	e := mustEngine(t, transitivity("S"))
	for _, f := range []Fact{{"S", "a", "b"}, {"S", "b", "c"}, {"S", "c", "d"}, {"S", "d", "e"}} {
		e.AddFact(f)
	}
	stats := e.Run()
	if stats.Iterations < 2 {
		t.Fatalf("Iterations = %d, want >= 2 for a 4-chain", stats.Iterations)
	}
	if stats.Derived != 6 {
		t.Fatalf("Derived = %d, want 6 (closure of 5-node chain)", stats.Derived)
	}
}
