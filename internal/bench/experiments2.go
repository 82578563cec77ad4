package bench

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/articulation"
	"repro/internal/inference"
	"repro/internal/kb"
	"repro/internal/lexicon"
	"repro/internal/ontology"
	"repro/internal/pattern"
	"repro/internal/query"
	"repro/internal/skat"
	"repro/internal/workload"
)

// E4Maintenance measures what fraction of source churn forces an
// articulation update, by articulation coverage (§5.3: changes in the
// difference are free).
func E4Maintenance(overlaps []float64) *Table {
	if overlaps == nil {
		overlaps = []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	}
	t := &Table{
		Columns: []string{"overlap", "coverage%", "mutations", "affected%",
			"art rebuilds", "merge rebuilds"},
		Notes: []string{
			"merge rebuilds = a global unified schema is exposed to every mutation (100%)",
			"expected shape: affected% tracks coverage; everything else is free",
		},
	}
	const churn = 60
	for _, ov := range overlaps {
		o1, o2, truth := workload.GeneratePair(workload.PairSpec{
			Spec:         workload.Spec{Name: "m1", Classes: 120, AttrsPerClass: 0.3, Seed: 77},
			Overlap:      ov,
			ExtraClasses: 40,
		})
		set := rulesFromTruth(o1.Name(), o2.Name(), truth, o1)
		res, err := articulation.Generate("artm", o1, o2, set, articulation.Options{Lenient: true})
		if err != nil {
			panic(err)
		}
		coverage := float64(len(res.Art.Covers(o1.Name()))) / float64(o1.NumTerms())

		muts := workload.Mutate(o1, churn, 555)
		affected := 0
		for _, m := range muts {
			impact := res.Art.AssessChange(o1.Name(), m.Touched)
			if impact.NeedsUpdate() {
				affected++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", ov),
			fmt.Sprintf("%.1f", coverage*100),
			fmt.Sprintf("%d", len(muts)),
			fmt.Sprintf("%.1f", 100*float64(affected)/float64(len(muts))),
			fmt.Sprintf("%d", affected),
			fmt.Sprintf("%d", len(muts)),
		})
	}
	return t
}

// E5Algebra times Union/Intersection/Difference across ontology sizes.
func E5Algebra(sizes []int) *Table {
	if sizes == nil {
		sizes = []int{100, 300, 1000, 3000}
	}
	t := &Table{
		Columns: []string{"classes", "edges", "union ms", "intersect ms", "difference ms", "union terms"},
	}
	for _, n := range sizes {
		o1, o2, truth := workload.GeneratePair(workload.PairSpec{
			Spec:         workload.Spec{Name: "alg", Classes: n, AttrsPerClass: 0.3, Seed: int64(n)},
			Overlap:      0.3,
			ExtraClasses: n / 4,
		})
		set := rulesFromTruth(o1.Name(), o2.Name(), truth, o1)
		opts := algebra.Options{ArtName: "arta", Gen: articulation.Options{Lenient: true}}

		var u *algebra.UnionResult
		var err error
		du := timeIt(func() { u, err = algebra.Union(o1, o2, set, opts) })
		if err != nil {
			panic(err)
		}
		di := timeIt(func() { _, err = algebra.Intersection(o1, o2, set, opts) })
		if err != nil {
			panic(err)
		}
		dd := timeIt(func() { _, err = algebra.Difference(o1, o2, set, opts) })
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", o1.NumRelationships()+o2.NumRelationships()),
			ms(du), ms(di), ms(dd),
			fmt.Sprintf("%d", u.Ont.NumTerms()),
		})
	}
	return t
}

// E6Pattern times pattern matching across graph sizes and pattern shapes.
func E6Pattern(sizes []int) *Table {
	if sizes == nil {
		sizes = []int{100, 300, 1000, 3000}
	}
	t := &Table{
		Columns: []string{"classes", "edges", "pattern", "matches", "ms"},
	}
	patterns := []struct {
		name string
		p    *pattern.Pattern
		opts pattern.Options
	}{
		{"?x -S-> ?y (2 vars)", &pattern.Pattern{
			Nodes: []pattern.Node{{Var: "x"}, {Var: "y"}},
			Edges: []pattern.Edge{{From: 0, Label: ontology.SubclassOf, To: 1}},
		}, pattern.Options{}},
		{"3-node S-path", &pattern.Pattern{
			Nodes: []pattern.Node{{Var: "x"}, {Var: "y"}, {Var: "z"}},
			Edges: []pattern.Edge{
				{From: 0, Label: ontology.SubclassOf, To: 1},
				{From: 1, Label: ontology.SubclassOf, To: 2},
			},
		}, pattern.Options{}},
		{"class(attr,attr)", &pattern.Pattern{
			Nodes: []pattern.Node{{Var: "c"}, {Var: "a1"}, {Var: "a2"}},
			Edges: []pattern.Edge{
				{From: 0, Label: ontology.AttributeOf, To: 1},
				{From: 0, Label: ontology.AttributeOf, To: 2},
			},
		}, pattern.Options{Injective: true}},
	}
	for _, n := range sizes {
		o := workload.Generate(workload.Spec{Name: "pat", Classes: n, AttrsPerClass: 0.6, InstancesPerLeaf: 0.3, Seed: int64(n) * 3})
		g := o.Graph()
		for _, pc := range patterns {
			var found int
			d := timeIt(func() {
				msR, err := pattern.Find(g, pc.p, pc.opts)
				if err != nil {
					panic(err)
				}
				found = len(msR)
			})
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%d", g.NumEdges()),
				pc.name,
				fmt.Sprintf("%d", found),
				ms(d),
			})
		}
	}
	return t
}

// E7SKAT measures suggestion quality (precision/recall/F1) as matching
// signals are enabled, against planted ground truth — the paper's
// semi-automation claim (§2.4).
func E7SKAT() *Table {
	t := &Table{
		Columns: []string{"matcher", "suggested", "precision", "recall", "F1",
			"expert reviews"},
		Notes: []string{
			"pair: 150 classes, overlap 0.6, synonym renames 0.4, restyles 0.3, typos 0.1",
			"expected shape: +lexicon and +structural dominate exact matching on recall",
		},
	}
	o1, o2, truth := workload.GeneratePair(workload.PairSpec{
		Spec:          workload.Spec{Name: "sk", Classes: 150, AttrsPerClass: 0.3, Seed: 2024},
		Overlap:       0.6,
		SynonymRename: 0.4,
		StyleRename:   0.3,
		Typo:          0.1,
		ExtraClasses:  50,
	})
	lex := lexicon.DefaultLexicon()
	configs := []struct {
		name string
		cfg  skat.Config
	}{
		{"exact only", skat.Config{Weights: skat.Weights{Exact: 1}, MinScore: 0.95}},
		{"+string", skat.Config{Weights: skat.Weights{Exact: 1, String: 0.7}, MinScore: 0.55}},
		{"+tokens", skat.Config{Weights: skat.Weights{Exact: 1, String: 0.7, Token: 0.8}, MinScore: 0.55}},
		{"+lexicon", skat.Config{Lexicon: lex, MinScore: 0.55}},
		{"+structural", skat.Config{Lexicon: lex, MinScore: 0.55, StructuralRounds: 2}},
	}
	for _, c := range configs {
		ss := skat.TopPerLeft(skat.Propose(o1, o2, c.cfg))
		m := skat.Evaluate(ss, truth)
		// Expert workload to convergence with an oracle reviewer.
		_, stats := skat.RunSession(o1, o2, c.cfg, skat.OracleExpert{Truth: truth, MaxRounds: 2})
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%d", len(ss)),
			fmt.Sprintf("%.2f", m.Precision),
			fmt.Sprintf("%.2f", m.Recall),
			fmt.Sprintf("%.2f", m.F1),
			fmt.Sprintf("%d", stats.Reviewed),
		})
	}
	return t
}

// E8Query measures query cost split between articulation-routed execution
// and source-qualified (pre-reformulated) execution.
func E8Query(scales []int) *Table {
	if scales == nil {
		scales = []int{50, 150, 400}
	}
	t := &Table{
		Columns: []string{"classes/src", "facts/src", "rows", "art ms", "qualified ms",
			"overhead%", "conversions"},
		Notes: []string{
			"same engine, same data; only the query's vocabulary differs",
		},
	}
	for _, n := range scales {
		eng, artTerm, srcTerm := buildQueryWorld(n)
		qArt := query.MustParse("SELECT ?x ?p WHERE ?x InstanceOf " + artTerm + " . ?x Price ?p")
		qSrc := query.MustParse("SELECT ?x ?p WHERE ?x InstanceOf " + srcTerm + " . ?x Price ?p")

		var resArt, resSrc *query.Result
		var err error
		dArt := timeIt(func() {
			for i := 0; i < 5; i++ {
				resArt, err = eng.Execute(qArt)
				if err != nil {
					panic(err)
				}
			}
		}) / 5
		dSrc := timeIt(func() {
			for i := 0; i < 5; i++ {
				resSrc, err = eng.Execute(qSrc)
				if err != nil {
					panic(err)
				}
			}
		}) / 5
		overhead := 0.0
		if dSrc > 0 {
			overhead = 100 * (float64(dArt)/float64(dSrc) - 1)
		}
		_ = resSrc
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", n*2),
			fmt.Sprintf("%d", len(resArt.Rows)),
			ms(dArt), ms(dSrc),
			fmt.Sprintf("%.0f", overhead),
			fmt.Sprintf("%d", resArt.Stats.Conversions),
		})
	}
	return t
}

// buildQueryWorld makes a two-source world with instances and prices, an
// articulation with a currency conversion, and returns the engine plus an
// articulation-level and a source-qualified class term for querying.
func buildQueryWorld(classes int) (*query.Engine, string, string) {
	o1, o2, truth := workload.GeneratePair(workload.PairSpec{
		Spec:         workload.Spec{Name: "q1", Classes: classes, AttrsPerClass: 0.2, Seed: int64(classes) * 7},
		Overlap:      0.5,
		ExtraClasses: classes / 4,
	})
	o2.SetName("q2")
	// Root class pair for querying: pick a truth pair deterministically.
	var left, right string
	for _, l := range sortedKeys(truth) {
		left, right = l, truth[l]
		break
	}
	// Price attributes on both sides.
	for _, o := range []*ontology.Ontology{o1, o2} {
		if !o.HasTerm("Price") {
			o.MustAddTerm("Price")
		}
	}
	set := rulesFromTruth(o1.Name(), o2.Name(), truth, o1)
	set.Add(mustRule("QObToEuro() : " + o1.Name() + ".Price => qart.Price"))
	funcs := articulation.NewFuncRegistry()
	if err := funcs.RegisterLinear("QObToEuro", "", 1.5, 0); err != nil {
		panic(err)
	}
	res, err := articulation.Generate("qart", o1, o2, set, articulation.Options{Lenient: true, Funcs: funcs})
	if err != nil {
		panic(err)
	}

	// Instances beneath both sources: spread across classes.
	kb1, kb2 := kb.New(o1.Name()), kb.New(o2.Name())
	fill := func(store *kb.Store, o *ontology.Ontology, seed int64) {
		rng := newRand(seed)
		terms := o.Terms()
		for i := 0; i < o.NumTerms()*2; i++ {
			class := terms[rng.Intn(len(terms))]
			inst := fmt.Sprintf("%sI%d", o.Name(), i)
			store.MustAdd(inst, "InstanceOf", kb.Term(class))
			store.MustAdd(inst, "Price", kb.Number(float64(100+i)))
		}
	}
	fill(kb1, o1, 11)
	fill(kb2, o2, 12)

	eng, err := query.NewEngine(res.Art, map[string]*query.Source{
		o1.Name(): {Ont: o1, KB: kb1},
		o2.Name(): {Ont: o2, KB: kb2},
	})
	if err != nil {
		panic(err)
	}
	// The articulation term is the namesake of the rule RHS.
	artTerm := right
	srcTerm := o1.Name() + "." + left
	return eng, artTerm, srcTerm
}

// E9Inference compares the semi-naive ("light") engine against naive
// recomputation across fact-set sizes (§4.1's light-engine claim).
func E9Inference(sizes []int) *Table {
	if sizes == nil {
		sizes = []int{50, 100, 200, 400}
	}
	t := &Table{
		Columns: []string{"chain facts", "derived", "semi joins", "naive joins",
			"joins ratio", "semi ms", "naive ms"},
		Notes: []string{
			"program: anc(x,z) :- par(x,y), anc(y,z) over a parent chain (right-linear closure)",
			"expected shape: the light engine's advantage widens with size — naive re-derives",
			"every previously known ancestor pair each round",
		},
	}
	for _, n := range sizes {
		build := func() *inference.Engine {
			e, err := inference.New(
				inference.MustParseClause("anc(?x,?y) :- par(?x,?y)"),
				inference.MustParseClause("anc(?x,?z) :- par(?x,?y), anc(?y,?z)"),
			)
			if err != nil {
				panic(err)
			}
			for i := 0; i+1 < n; i++ {
				e.AddFact(inference.Fact{Pred: "par", Subj: fmt.Sprintf("c%d", i), Obj: fmt.Sprintf("c%d", i+1)})
			}
			return e
		}
		e1 := build()
		var s1 inference.Stats
		d1 := timeIt(func() { s1 = e1.Run() })
		e2 := build()
		var s2 inference.Stats
		d2 := timeIt(func() { s2 = e2.RunNaive() })
		if e1.NumFacts() != e2.NumFacts() {
			panic("inference strategies disagree")
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", s1.Derived),
			fmt.Sprintf("%d", s1.JoinsConsidered),
			fmt.Sprintf("%d", s2.JoinsConsidered),
			fmt.Sprintf("%.2f", float64(s2.JoinsConsidered)/float64(s1.JoinsConsidered)),
			ms(d1), ms(d2),
		})
	}
	return t
}

// E10Incremental measures per-arrival work when sources join a federation
// incrementally (articulation chain) vs. re-merging from scratch (§4.2).
func E10Incremental(ns []int) *Table {
	if ns == nil {
		ns = []int{4, 8, 12}
	}
	t := &Table{
		Columns: []string{"sources", "last arrival: art work", "last arrival: re-merge work",
			"cumulative art", "cumulative merge"},
		Notes: []string{
			"work = graph elements written at that arrival",
			"expected shape: articulation work stays flat; re-merge grows with federation size",
		},
	}
	for _, n := range ns {
		row := runScaleChain(scaleSpec{Sources: n, Classes: 80, Overlap: 0.25})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", last(row.incremental)),
			fmt.Sprintf("%d", last(row.remerge)),
			fmt.Sprintf("%d", sum(row.incremental)),
			fmt.Sprintf("%d", sum(row.remerge)),
		})
	}
	return t
}

func mustRule(s string) (r ruleT) {
	rr, err := parseRule(s)
	if err != nil {
		panic(err)
	}
	return rr
}

func last(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
