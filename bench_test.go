// Benchmarks: per-operation numbers for the code paths behind the
// paper's claims. Each section names the test that asserts the claim
// itself; these benchmarks only time it. Served-system numbers come from
// benchmark/, which drives the real daemon.
package onion_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/articulation"
	"repro/internal/fixtures"
	"repro/internal/inference"
	"repro/internal/kb"
	"repro/internal/lexicon"
	"repro/internal/ontology"
	"repro/internal/pattern"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/skat"
	"repro/internal/workload"
)

// --- Fig. 2 articulation generation (fixtures.TestFigure2) ---

func BenchmarkArticulateFigure2(b *testing.B) {
	carrier, factory := fixtures.Carrier(), fixtures.Factory()
	set := fixtures.TransportRules()
	opts := fixtures.GenOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := articulation.Generate(fixtures.ArtName, carrier, factory, set, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 1 pipeline: SKAT session + articulation (skat.TestRunSessionWithThresholdExpert) ---

func BenchmarkPipelineSKATToArticulation(b *testing.B) {
	carrier, factory := fixtures.Carrier(), fixtures.Factory()
	lex := lexicon.DefaultLexicon()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, _ := skat.RunSession(carrier, factory, skat.Config{Lexicon: lex, MinScore: 0.5},
			skat.ThresholdExpert{AcceptAt: 0.75, MaxRounds: 2})
		if _, err := articulation.Generate("auto", carrier, factory, set, articulation.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- articulation vs. global merge (algebra.TestCompositionVsGlobalMerge) ---

func scalePair(b *testing.B, classes int) (*ontology.Ontology, *ontology.Ontology, *rules.Set) {
	b.Helper()
	o1, o2, truth := workload.GeneratePair(workload.PairSpec{
		Spec:         workload.Spec{Name: "b1", Classes: classes, AttrsPerClass: 0.3, Seed: 42},
		Overlap:      0.3,
		ExtraClasses: classes / 4,
	})
	set := rules.NewSet()
	for l, r := range truth {
		set.Add(rules.Implication(ontology.MakeRef(o1.Name(), l), ontology.MakeRef(o2.Name(), r)))
	}
	return o1, o2, set
}

func BenchmarkArticulationVsMerge_Articulate(b *testing.B) {
	o1, o2, set := scalePair(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := articulation.Generate("arte", o1, o2, set, articulation.Options{Lenient: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArticulationVsMerge_GlobalMerge(b *testing.B) {
	o1, o2, _ := scalePair(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := ontology.New("global")
		for _, src := range []*ontology.Ontology{o1, o2} {
			q := algebra.Qualify(src)
			g := q.Graph()
			for _, id := range g.Nodes() {
				if _, err := merged.EnsureTerm(g.Label(id)); err != nil {
					b.Fatal(err)
				}
			}
			for _, e := range g.Edges() {
				if err := merged.Relate(g.Label(e.From), e.Label, g.Label(e.To)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// --- §5.3 maintenance assessment (articulation.TestFreeChangesLeaveArticulationUnchanged) ---

func BenchmarkMaintenanceAssessChange(b *testing.B) {
	o1, o2, set := scalePair(b, 200)
	res, err := articulation.Generate("artm", o1, o2, set, articulation.Options{Lenient: true})
	if err != nil {
		b.Fatal(err)
	}
	changed := o1.Terms()[:20]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Art.AssessChange(o1.Name(), changed)
	}
}

// --- algebra operators ---

func benchAlgebra(b *testing.B, op func(o1, o2 *ontology.Ontology, set *rules.Set, opts algebra.Options) error) {
	o1, o2, set := scalePair(b, 300)
	opts := algebra.Options{ArtName: "arta", Gen: articulation.Options{Lenient: true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(o1, o2, set, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgebraUnion(b *testing.B) {
	benchAlgebra(b, func(o1, o2 *ontology.Ontology, set *rules.Set, opts algebra.Options) error {
		_, err := algebra.Union(o1, o2, set, opts)
		return err
	})
}

func BenchmarkAlgebraIntersection(b *testing.B) {
	benchAlgebra(b, func(o1, o2 *ontology.Ontology, set *rules.Set, opts algebra.Options) error {
		_, err := algebra.Intersection(o1, o2, set, opts)
		return err
	})
}

func BenchmarkAlgebraDifference(b *testing.B) {
	benchAlgebra(b, func(o1, o2 *ontology.Ontology, set *rules.Set, opts algebra.Options) error {
		_, err := algebra.Difference(o1, o2, set, opts)
		return err
	})
}

// --- pattern matching ---

func benchPattern(b *testing.B, p *pattern.Pattern, opts pattern.Options) {
	o := workload.Generate(workload.Spec{Name: "pat", Classes: 1000, AttrsPerClass: 0.6, Seed: 3000})
	g := o.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pattern.Find(g, p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPatternMatchEdge(b *testing.B) {
	benchPattern(b, &pattern.Pattern{
		Nodes: []pattern.Node{{Var: "x"}, {Var: "y"}},
		Edges: []pattern.Edge{{From: 0, Label: ontology.SubclassOf, To: 1}},
	}, pattern.Options{})
}

func BenchmarkPatternMatchPath3(b *testing.B) {
	benchPattern(b, &pattern.Pattern{
		Nodes: []pattern.Node{{Var: "x"}, {Var: "y"}, {Var: "z"}},
		Edges: []pattern.Edge{
			{From: 0, Label: ontology.SubclassOf, To: 1},
			{From: 1, Label: ontology.SubclassOf, To: 2},
		},
	}, pattern.Options{})
}

// Ablation: what adjacency-based candidate narrowing buys on a 3-node
// path pattern.
func BenchmarkPatternNarrowingAblation(b *testing.B) {
	p := &pattern.Pattern{
		Nodes: []pattern.Node{{Var: "x"}, {Var: "y"}, {Var: "z"}},
		Edges: []pattern.Edge{
			{From: 0, Label: ontology.SubclassOf, To: 1},
			{From: 1, Label: ontology.SubclassOf, To: 2},
		},
	}
	o := workload.Generate(workload.Spec{Name: "pat", Classes: 500, AttrsPerClass: 0.6, Seed: 77})
	g := o.Graph()
	b.Run("narrowing=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pattern.Find(g, p, pattern.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("narrowing=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pattern.Find(g, p, pattern.Options{DisableNarrowing: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPatternMatchAttrPair(b *testing.B) {
	benchPattern(b, &pattern.Pattern{
		Nodes: []pattern.Node{{Var: "c"}, {Var: "a1"}, {Var: "a2"}},
		Edges: []pattern.Edge{
			{From: 0, Label: ontology.AttributeOf, To: 1},
			{From: 0, Label: ontology.AttributeOf, To: 2},
		},
	}, pattern.Options{Injective: true})
}

// --- SKAT proposal generation (skat.TestStructuralLiftsRecall) ---

func benchSKAT(b *testing.B, cfg skat.Config) {
	o1, o2, _ := workload.GeneratePair(workload.PairSpec{
		Spec:          workload.Spec{Name: "sk", Classes: 150, AttrsPerClass: 0.3, Seed: 2024},
		Overlap:       0.6,
		SynonymRename: 0.4,
		StyleRename:   0.3,
		ExtraClasses:  50,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skat.Propose(o1, o2, cfg)
	}
}

func BenchmarkSKATExact(b *testing.B) {
	benchSKAT(b, skat.Config{Weights: skat.Weights{Exact: 1}, MinScore: 0.95})
}

func BenchmarkSKATLexicon(b *testing.B) {
	benchSKAT(b, skat.Config{Lexicon: lexicon.DefaultLexicon(), MinScore: 0.55})
}

func BenchmarkSKATStructural(b *testing.B) {
	benchSKAT(b, skat.Config{Lexicon: lexicon.DefaultLexicon(), MinScore: 0.55, StructuralRounds: 2})
}

// --- query execution: articulation-level vs. source-qualified ---

func queryWorld(b *testing.B) *query.Engine {
	b.Helper()
	res, carrier, factory := fixtures.GenerateTransport()
	ckb, fkb := fixtures.CarrierKB(), fixtures.FactoryKB()
	// Widen the fact base so joins have real work.
	for i := 0; i < 300; i++ {
		inst := fmt.Sprintf("Car%d", i)
		ckb.MustAdd(inst, "InstanceOf", kb.Term("PassengerCar"))
		ckb.MustAdd(inst, "Price", kb.Number(float64(1000+i)))
	}
	eng, err := query.NewEngine(res.Art, map[string]*query.Source{
		"carrier": {Ont: carrier, KB: ckb},
		"factory": {Ont: factory, KB: fkb},
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

func BenchmarkQueryArticulationLevel(b *testing.B) {
	eng := queryWorld(b)
	q := query.MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runQuery(eng, q, query.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuerySourceQualified(b *testing.B) {
	eng := queryWorld(b)
	q := query.MustParse("SELECT ?x ?p WHERE ?x InstanceOf carrier.PassengerCar . ?x Price ?p")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runQuery(eng, q, query.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- sequential reference vs. planned execution (bench.TestPlannedExecutionMatchesSequential) ---

func BenchmarkQuerySequentialPath(b *testing.B) {
	eng := queryWorld(b)
	q := query.MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p")
	opts := query.Options{Sequential: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runQuery(eng, q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryPlannedPath(b *testing.B) {
	eng := queryWorld(b)
	q := query.MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p")
	var opts query.Options
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runQuery(eng, q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- inference strategies (inference.TestNaiveAndSemiNaiveAgree) ---

func ancestorEngine(b *testing.B, n int) *inference.Engine {
	b.Helper()
	e, err := inference.New(
		inference.MustParseClause("anc(?x,?y) :- par(?x,?y)"),
		inference.MustParseClause("anc(?x,?z) :- par(?x,?y), anc(?y,?z)"),
	)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i+1 < n; i++ {
		e.AddFact(inference.Fact{Pred: "par", Subj: fmt.Sprintf("c%d", i), Obj: fmt.Sprintf("c%d", i+1)})
	}
	return e
}

func BenchmarkInferenceSemiNaive(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := ancestorEngine(b, 100)
		b.StartTimer()
		e.Run()
	}
}

func BenchmarkInferenceNaive(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := ancestorEngine(b, 100)
		b.StartTimer()
		e.RunNaive()
	}
}

// --- incremental arrival: one step of the chain (algebra.TestCompositionVsGlobalMerge) ---

func BenchmarkIncrementalArrival(b *testing.B) {
	// One arrival: articulate the existing articulation ontology with a
	// new source through cascaded core rules.
	core := workload.Generate(workload.Spec{Name: "core", Classes: 80, AttrsPerClass: 0.3, Seed: 101})
	shared := core.Terms()[:20]
	left := ontology.New("hub")
	for _, t := range shared {
		left.MustAddTerm(t)
	}
	src := ontology.New("arrival")
	set := rules.NewSet()
	for _, t := range shared {
		renamed := t + "X"
		src.MustAddTerm(renamed)
		set.Add(rules.Chain(
			rules.NewStep(rules.Single, ontology.MakeRef("hub", t)),
			rules.NewStep(rules.Single, ontology.MakeRef("next", t)),
			rules.NewStep(rules.Single, ontology.MakeRef("arrival", renamed)),
		))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := articulation.Generate("next", left, src, set, articulation.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// runQuery executes q on eng under opts with no deadline.
func runQuery(eng *query.Engine, q query.Query, opts query.Options) (*query.Result, error) {
	return eng.Execute(context.Background(), q, opts)
}
