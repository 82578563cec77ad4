package onion_test

import (
	"context"
	"strings"
	"testing"

	onion "repro"
)

// buildSources constructs small carrier/factory ontologies through the
// public API only, mirroring the paper's running example.
func buildSources(t testing.TB) (*onion.Ontology, *onion.Ontology) {
	t.Helper()
	carrier := onion.NewOntology("carrier")
	for _, term := range []string{"Transportation", "Cars", "Trucks", "PassengerCar", "Price"} {
		if _, err := carrier.AddTerm(term); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][3]string{
		{"Cars", onion.SubclassOf, "Transportation"},
		{"Trucks", onion.SubclassOf, "Transportation"},
		{"PassengerCar", onion.SubclassOf, "Cars"},
		{"Cars", onion.AttributeOf, "Price"},
	} {
		if err := carrier.Relate(r[0], r[1], r[2]); err != nil {
			t.Fatal(err)
		}
	}
	factory := onion.NewOntology("factory")
	for _, term := range []string{"Transportation", "Vehicle", "CargoCarrier", "Truck", "Price"} {
		if _, err := factory.AddTerm(term); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][3]string{
		{"Vehicle", onion.SubclassOf, "Transportation"},
		{"CargoCarrier", onion.SubclassOf, "Transportation"},
		{"Truck", onion.SubclassOf, "Vehicle"},
		{"Truck", onion.SubclassOf, "CargoCarrier"},
		{"Vehicle", onion.AttributeOf, "Price"},
	} {
		if err := factory.Relate(r[0], r[1], r[2]); err != nil {
			t.Fatal(err)
		}
	}
	return carrier, factory
}

func TestPublicAPIEndToEnd(t *testing.T) {
	carrier, factory := buildSources(t)
	sys := onion.NewSystem()
	if err := sys.Register(carrier); err != nil {
		t.Fatal(err)
	}
	if err := sys.Register(factory); err != nil {
		t.Fatal(err)
	}

	// Instance data.
	ckb := onion.NewKB("carrier")
	ckb.MustAdd("MyCar", "InstanceOf", onion.Term("PassengerCar"))
	ckb.MustAdd("MyCar", "Price", onion.Num(2000))
	if err := sys.RegisterKB(ckb); err != nil {
		t.Fatal(err)
	}

	// Conversion functions + rules.
	funcs := onion.NewFuncRegistry()
	if err := funcs.RegisterLinear("PSToEuroFn", "EuroToPSFn", 1.6, 0); err != nil {
		t.Fatal(err)
	}
	set, err := onion.ParseRules(`
carrier.Cars => factory.Vehicle
carrier.Transportation => factory.Transportation
PSToEuroFn() : carrier.Price => transport.Price
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Articulate("transport", "carrier", "factory", set, onion.GenerateOptions{
		Funcs:            funcs,
		InheritStructure: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Art.Ont.HasTerm("Vehicle") {
		t.Fatalf("articulation missing Vehicle")
	}

	// Query across the articulation with currency normalisation.
	out, err := sys.Query("transport", "SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range out.Rows {
		if row[0].Format() == "carrier.MyCar" && row[1].Format() == "3200" {
			found = true
		}
	}
	if !found {
		t.Fatalf("query result missing converted row: %v", out.Rows)
	}

	// Algebra over the registered articulation.
	u, err := sys.Union("transport")
	if err != nil {
		t.Fatal(err)
	}
	if !u.Ont.HasTerm("carrier.Cars") || !u.Ont.HasTerm("factory.Vehicle") {
		t.Fatalf("union missing qualified terms")
	}
	inter, err := sys.Intersection("transport")
	if err != nil {
		t.Fatal(err)
	}
	if !inter.HasTerm("Vehicle") {
		t.Fatalf("intersection missing Vehicle")
	}
	diff, err := sys.Difference("transport", false, onion.DiffFormal)
	if err != nil {
		t.Fatal(err)
	}
	if diff.HasTerm("Cars") {
		t.Fatalf("difference kept articulated term")
	}
}

func TestPublicAPISuggestions(t *testing.T) {
	carrier, factory := buildSources(t)
	ss := onion.Propose(carrier, factory, onion.SKATConfig{Lexicon: onion.DefaultLexicon()})
	if len(ss) == 0 {
		t.Fatalf("no suggestions")
	}
	var seen bool
	for _, s := range ss {
		if s.Left.Term == "Cars" && s.Right.Term == "Vehicle" {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("lexicon suggestion missing: %v", ss)
	}
}

func TestPublicAPIPatternsAndAlgebra(t *testing.T) {
	carrier, _ := buildSources(t)
	p, err := onion.ParsePattern("carrier:?x:Price")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := onion.FindPattern(carrier.Graph(), p, onion.PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatalf("pattern found nothing")
	}
	sub := onion.Filter(carrier, func(term string) bool { return term != "Price" })
	if sub.HasTerm("Price") {
		t.Fatalf("Filter kept excluded term")
	}
	ex, err := onion.Extract(carrier, p, onion.PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.HasTerm("Price") {
		t.Fatalf("Extract lost matched term")
	}
}

func TestPublicAPIWrappersRoundTrip(t *testing.T) {
	carrier, _ := buildSources(t)
	var buf strings.Builder
	if err := onion.WriteOntology(&buf, carrier, onion.FormatXML); err != nil {
		t.Fatal(err)
	}
	back, err := onion.ReadOntology(strings.NewReader(buf.String()), onion.FormatXML)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTerms() != carrier.NumTerms() {
		t.Fatalf("round trip lost terms")
	}
	if onion.DetectFormat("x.idl") != onion.FormatIDL {
		t.Fatalf("DetectFormat wrong")
	}
}

func TestPublicAPIPackageLevelAlgebra(t *testing.T) {
	carrier, factory := buildSources(t)
	set, err := onion.ParseRules("carrier.Cars => factory.Vehicle")
	if err != nil {
		t.Fatal(err)
	}
	u, err := onion.Union(carrier, factory, set, onion.AlgebraOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if u.Ont.NumTerms() == 0 {
		t.Fatalf("union empty")
	}
	inter, err := onion.Intersection(carrier, factory, set, onion.AlgebraOptions{})
	if err != nil || !inter.HasTerm("Vehicle") {
		t.Fatalf("intersection = %v, %v", inter, err)
	}
	diff, err := onion.Difference(carrier, factory, set, onion.AlgebraOptions{DiffMode: onion.DiffExample})
	if err != nil || diff.HasTerm("Cars") {
		t.Fatalf("difference kept Cars: %v", err)
	}
}

func TestPublicAPIGenerateWithPatterns(t *testing.T) {
	carrier, factory := buildSources(t)
	p := &onion.Pattern{Ont: "carrier"}
	x := p.AddNode(onion.PatternNode{Var: "x"})
	price := p.AddNode(onion.PatternNode{Name: "Price"})
	p.AddEdge(x, onion.AttributeOf, price)
	res, err := onion.GenerateWithPatterns("trade", carrier, factory, nil,
		[]onion.PatternRule{{LHS: p, Subject: "x", RHS: onion.MakeRef("trade", "Priced")}},
		onion.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Art.Ont.HasTerm("Priced") {
		t.Fatalf("pattern rule not applied: %v", res.Art.Ont.Terms())
	}
}

func TestPublicAPIViewer(t *testing.T) {
	carrier, _ := buildSources(t)
	out := onion.RenderTree(carrier, onion.DefaultViewOptions())
	if !strings.Contains(out, "Transportation") {
		t.Fatalf("tree missing root:\n%s", out)
	}
	set, _ := onion.ParseRules("carrier.Cars => factory.Vehicle")
	_, factory := buildSources(t)
	res, err := onion.Generate("t2", carrier, factory, set, onion.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(onion.RenderArticulation(res.Art, onion.DefaultViewOptions()), "bridges:") {
		t.Fatalf("articulation summary wrong")
	}
}

func TestPublicAPIQueryFromPatternAndExplain(t *testing.T) {
	carrier, factory := buildSources(t)
	sys := onion.NewSystem()
	if err := sys.Register(carrier); err != nil {
		t.Fatal(err)
	}
	if err := sys.Register(factory); err != nil {
		t.Fatal(err)
	}
	set, _ := onion.ParseRules("carrier.Cars => factory.Vehicle")
	if _, err := sys.Articulate("transport", "carrier", "factory", set, onion.GenerateOptions{}); err != nil {
		t.Fatal(err)
	}
	p, err := onion.ParsePattern("?x:Price")
	if err != nil {
		t.Fatal(err)
	}
	q, err := onion.QueryFromPattern(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Execute(context.Background(), "transport", q, onion.QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	vq, err := onion.ParseQuery("SELECT ?x WHERE ?x InstanceOf Vehicle")
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := sys.Explain(context.Background(), "transport", vq, onion.QueryOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "plan for") {
		t.Fatalf("plan output wrong")
	}
}

func TestPublicAPIIOExpert(t *testing.T) {
	carrier, factory := buildSources(t)
	sys := onion.NewSystem()
	if err := sys.Register(carrier); err != nil {
		t.Fatal(err)
	}
	if err := sys.Register(factory); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	expert := onion.NewIOExpert(strings.NewReader("y\nq\n"), &out, 1)
	set, stats, err := sys.RunSession("carrier", "factory", onion.SKATConfig{}, expert)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accepted != 1 || set.Len() != 1 {
		t.Fatalf("IOExpert session = %+v", stats)
	}
}

func TestPublicAPIInferenceAsk(t *testing.T) {
	c, err := onion.ParseClause("anc(?x,?z) :- anc(?x,?y), anc(?y,?z)")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := onion.NewInferenceEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	carrier, _ := buildSources(t)
	eng.AddGraph(carrier.Graph())
	if facts, _ := eng.Ask(c.Head); facts != nil {
		// anc has no base facts in this graph; just exercising the API.
		t.Logf("Ask returned %d facts", len(facts))
	}
}

func TestPublicAPIInference(t *testing.T) {
	c, err := onion.ParseClause("SubclassOf(?x,?z) :- SubclassOf(?x,?y), SubclassOf(?y,?z)")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := onion.NewInferenceEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	carrier, _ := buildSources(t)
	eng.AddGraph(carrier.Graph())
	eng.Run()
	derived := eng.Derived()
	if len(derived) == 0 {
		t.Fatalf("nothing derived")
	}
}
