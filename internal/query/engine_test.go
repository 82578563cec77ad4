package query

import (
	"context"
	"testing"

	"repro/internal/articulation"
	"repro/internal/fixtures"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/rowcodec"
	"repro/internal/rules"
)

// runQuery executes q on e under opts with no deadline — Engine.Execute
// for tests that do not exercise cancellation.
func runQuery(e *Engine, q Query, opts Options) (*Result, error) {
	return e.Execute(context.Background(), q, opts)
}

// paperPieces returns the Fig. 2 articulation and its sources.
func paperPieces(t testing.TB) (*articulationResult, *ontologyT, *ontologyT) {
	t.Helper()
	res, carrier, factory := fixtures.GenerateTransport()
	return res, carrier, factory
}

// paperEngine wires the Fig. 2 articulation with both source KBs.
func paperEngine(t testing.TB) *Engine {
	t.Helper()
	res, carrier, factory := paperPieces(t)
	e, err := NewEngine(res.Art, map[string]*Source{
		"carrier": {Ont: carrier, KB: fixtures.CarrierKB()},
		"factory": {Ont: factory, KB: fixtures.FactoryKB()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func rows(t testing.TB, e *Engine, q string) *Result {
	t.Helper()
	res, err := runQuery(e, MustParse(q), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func hasRow(res *Result, vals ...string) bool {
	for _, r := range res.Rows {
		if len(r) != len(vals) {
			continue
		}
		all := true
		for i := range vals {
			if r[i].Format() != vals[i] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func TestQueryInstancesAcrossBothSources(t *testing.T) {
	e := paperEngine(t)
	// Vehicles at the articulation level: carrier's cars/SUVs/trucks and
	// factory's trucks/goods vehicles all qualify through the bridges.
	res := rows(t, e, "SELECT ?x WHERE ?x InstanceOf Vehicle")
	for _, want := range []string{"carrier.MyCar", "carrier.Suv9", "factory.Truck77", "factory.Wagon3"} {
		if !hasRow(res, want) {
			t.Errorf("missing %s in %v", want, res.Rows)
		}
	}
	// A factory-only non-vehicle must not appear.
	if hasRow(res, "factory.BuyerCo") {
		t.Errorf("BuyerCo wrongly classified as Vehicle")
	}
}

func TestQueryCurrencyNormalization(t *testing.T) {
	e := paperEngine(t)
	// Prices are normalised into euros by the functional bridges: 2000
	// GBP = 3200 EUR; 44074.2 NLG = 20000 EUR.
	res := rows(t, e, "SELECT ?x ?p WHERE ?x Price ?p")
	if !hasRow(res, "carrier.MyCar", "3200") {
		t.Errorf("GBP conversion missing: %v", res.Rows)
	}
	if !hasRow(res, "factory.Truck77", "20000.000000000004") && !hasRow(res, "factory.Truck77", "20000") {
		t.Errorf("NLG conversion missing: %v", res.Rows)
	}
	if res.Stats.Conversions == 0 {
		t.Errorf("no conversions recorded: %+v", res.Stats)
	}
}

func TestQueryJoinAcrossTriples(t *testing.T) {
	e := paperEngine(t)
	res := rows(t, e, `SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p`)
	// Every row's ?x must be one of the vehicle instances.
	if len(res.Rows) == 0 {
		t.Fatalf("join produced nothing")
	}
	for _, r := range res.Rows {
		x := r[0].Format()
		switch x {
		case "carrier.MyCar", "carrier.Suv9", "carrier.Rig1", "factory.Truck77", "factory.Wagon3":
		default:
			t.Errorf("unexpected subject %s", x)
		}
	}
	if !hasRow(res, "carrier.Suv9", "8000") { // 5000 GBP = 8000 EUR
		t.Errorf("Suv9 price row missing: %v", res.Rows)
	}
}

func TestQueryStringLiteralFilter(t *testing.T) {
	e := paperEngine(t)
	res := rows(t, e, `SELECT ?x WHERE ?x Owner "Alice"`)
	if len(res.Rows) != 1 || !hasRow(res, "carrier.MyCar") {
		t.Fatalf("Owner filter = %v", res.Rows)
	}
}

func TestQueryNumericConstantConvertsForMatch(t *testing.T) {
	e := paperEngine(t)
	// 2000 GBP stored; query in normalised euros must NOT match 2000 and
	// the raw value must not leak through conversion.
	res := rows(t, e, `SELECT ?x WHERE ?x Price 3200`)
	if !hasRow(res, "carrier.MyCar") {
		t.Fatalf("normalised constant did not match: %v", res.Rows)
	}
	res = rows(t, e, `SELECT ?x WHERE ?x Price 2000`)
	if hasRow(res, "carrier.MyCar") {
		t.Fatalf("raw source value matched despite normalisation: %v", res.Rows)
	}
}

func TestQuerySourceQualifiedConstants(t *testing.T) {
	e := paperEngine(t)
	// Restrict to a source-level class: only carrier SUVs.
	res := rows(t, e, "SELECT ?x WHERE ?x InstanceOf carrier.SUV")
	if len(res.Rows) != 1 || !hasRow(res, "carrier.Suv9") {
		t.Fatalf("qualified query = %v", res.Rows)
	}
}

func TestQueryArticulationStructure(t *testing.T) {
	e := paperEngine(t)
	// The articulation ontology itself answers structural queries.
	res := rows(t, e, "SELECT ?x WHERE ?x SubclassOf transport.Person")
	if !hasRow(res, "transport.Owner") {
		t.Fatalf("articulation structure query = %v", res.Rows)
	}
}

func TestQueryPredicateVariable(t *testing.T) {
	e := paperEngine(t)
	res := rows(t, e, "SELECT ?p WHERE carrier.MyCar ?p ?o")
	// MyCar has InstanceOf + Price edges in the graph and InstanceOf,
	// Price, Owner, Model facts in the KB.
	for _, want := range []string{"InstanceOf", "Price", "Owner", "Model"} {
		if !hasRow(res, want) {
			t.Errorf("predicate %s missing: %v", want, res.Rows)
		}
	}
}

func TestQueryUnknownTermYieldsEmpty(t *testing.T) {
	e := paperEngine(t)
	res := rows(t, e, "SELECT ?x WHERE ?x InstanceOf Spaceship")
	if len(res.Rows) != 0 {
		t.Fatalf("unknown class matched: %v", res.Rows)
	}
}

func TestQueryDeterministicOrder(t *testing.T) {
	e := paperEngine(t)
	q := "SELECT ?x ?p WHERE ?x Price ?p"
	a := rows(t, e, q)
	b := rows(t, e, q)
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ")
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if !a.Rows[i][j].Equal(b.Rows[i][j]) {
				t.Fatalf("row order unstable at %d", i)
			}
		}
	}
	// Rows are sorted and deduplicated under the shared row-key encoding.
	for i := 1; i < len(a.Rows); i++ {
		prev := string(rowcodec.AppendRow(nil, a.Rows[i-1]))
		cur := string(rowcodec.AppendRow(nil, a.Rows[i]))
		if prev >= cur {
			t.Fatalf("rows not strictly sorted at %d", i)
		}
	}
}

func TestQueryStatsPopulated(t *testing.T) {
	e := paperEngine(t)
	res := rows(t, e, "SELECT ?x WHERE ?x InstanceOf Vehicle")
	if res.Stats.SourceScans == 0 || res.Stats.ExpandedTerms == 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
	if res.Stats.FactRows == 0 {
		t.Fatalf("no KB rows scanned: %+v", res.Stats)
	}
}

func TestNewEngineValidation(t *testing.T) {
	res, carrier, _ := fixtures.GenerateTransport()
	if _, err := NewEngine(nil, nil); err == nil {
		t.Fatalf("nil articulation accepted")
	}
	if _, err := NewEngine(res.Art, map[string]*Source{"carrier": nil}); err == nil {
		t.Fatalf("nil source accepted")
	}
	if _, err := NewEngine(res.Art, map[string]*Source{"wrong": {Ont: carrier}}); err == nil {
		t.Fatalf("misregistered source accepted")
	}
}

func TestExecuteInvalidQuery(t *testing.T) {
	e := paperEngine(t)
	if _, err := runQuery(e, Query{}, Options{}); err == nil {
		t.Fatalf("invalid query executed")
	}
}

func TestJoinBindingsCrossProductWhenDisjoint(t *testing.T) {
	l := []binding{{"a": kb.Number(1)}, {"a": kb.Number(2)}}
	r := []binding{{"b": kb.Number(3)}}
	out := joinBindings(l, r)
	if len(out) != 2 {
		t.Fatalf("cross product size = %d", len(out))
	}
	if out[0]["b"].Num != 3 {
		t.Fatalf("merge lost binding")
	}
}

func TestJoinBindingsOnSharedVar(t *testing.T) {
	l := []binding{{"x": kb.Term("m")}, {"x": kb.Term("n")}}
	r := []binding{{"x": kb.Term("m"), "y": kb.Number(1)}, {"x": kb.Term("z"), "y": kb.Number(2)}}
	out := joinBindings(l, r)
	if len(out) != 1 || out[0]["y"].Num != 1 {
		t.Fatalf("join = %v", out)
	}
	if joinBindings(nil, r) != nil {
		t.Fatalf("empty left should short-circuit")
	}
}

// likesEngine builds a tiny two-source world with a self-referential
// fact for the repeated-variable tests.
func likesEngine(t *testing.T) *Engine {
	t.Helper()
	src := ontology.New("s")
	src.MustAddTerm("T")
	dst := ontology.New("d")
	dst.MustAddTerm("U")
	set := rules.NewSet(rules.MustParse("s.T => d.U"))
	res, err := articulation.Generate("a", src, dst, set, articulation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := kb.New("s")
	store.MustAdd("a", "Likes", kb.Term("b"))
	store.MustAdd("c", "Likes", kb.Term("c"))
	eng, err := NewEngine(res.Art, map[string]*Source{
		"s": {Ont: src, KB: store},
		"d": {Ont: dst},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestRepeatedVariableEnforcesEquality regresses the binding-overwrite
// bug: "?x Likes ?x" must only match the self-loop, on both paths.
func TestRepeatedVariableEnforcesEquality(t *testing.T) {
	eng := likesEngine(t)
	q := MustParse("SELECT ?x WHERE ?x Likes ?x")
	for _, opts := range []Options{{Sequential: true}, {}, {Workers: 4}} {
		res, err := runQuery(eng, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Format() != "s.c" {
			t.Fatalf("opts %+v: rows = %v, want only s.c", opts, res.Rows)
		}
	}
}

// TestPlanCacheDistinguishesValueKinds regresses the cache-key
// collision: a term constant "5" and a numeric constant 5 format
// identically but must not share a compiled plan.
func TestPlanCacheDistinguishesValueKinds(t *testing.T) {
	eng := likesEngine(t)
	eng.sources["s"].KB.MustAdd("5", "Likes", kb.Term("b"))
	qTerm := Query{Select: []string{"x"}, Where: []Triple{{S: C(kb.Term("5")), P: C(kb.Term("Likes")), O: V("x")}}}
	qNum := Query{Select: []string{"x"}, Where: []Triple{{S: C(kb.Number(5)), P: C(kb.Term("Likes")), O: V("x")}}}
	for _, q := range []Query{qTerm, qNum} {
		want, err := runQuery(eng, q, Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := runQuery(eng, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !want.EqualRows(got) {
			t.Fatalf("paths diverged for %v: sequential %v, planned %v", q, want.Rows, got.Rows)
		}
	}
}

// TestJoinKindStrict regresses the kind-blind join key: values that
// format identically but differ in kind (Term "3000" vs Number 3000)
// must not hash-join, matching Value.Equal semantics.
func TestJoinKindStrict(t *testing.T) {
	l := []binding{{"v": kb.Number(3000)}}
	r := []binding{{"v": kb.Term("3000"), "o": kb.Term("x")}}
	if out := joinBindings(l, r); len(out) != 0 {
		t.Fatalf("kind-different values joined: %v", out)
	}
}

// Type aliases for test helpers.
type (
	articulationResult = articulation.Result
	ontologyT          = ontology.Ontology
)
