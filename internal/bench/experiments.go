package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/articulation"
	"repro/internal/fixtures"
	"repro/internal/inference"
	"repro/internal/lexicon"
	"repro/internal/ontology"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/skat"
	"repro/internal/workload"
	"repro/internal/wrapper"
)

// E1Figure2 regenerates the paper's Fig. 2 articulation and checks every
// structure the paper's worked example describes.
func E1Figure2() *Table {
	t := &Table{
		Columns: []string{"structure", "expected", "got", "ok"},
	}
	res, carrier, factory := fixtures.GenerateTransport()
	art := res.Art
	check := func(name, expected string, got string, ok bool) {
		t.Rows = append(t.Rows, []string{name, expected, got, okMark(ok)})
	}
	has := func(from, label, to string) bool {
		return art.HasBridge(ontology.MustParseRef(from), label, ontology.MustParseRef(to))
	}
	si := articulation.BridgeLabel

	check("simple rule: carrier.Cars => factory.Vehicle (3 edges)", "3 bridges",
		fmt.Sprintf("%d bridges", countBool(
			has("carrier.Cars", si, "transport.Vehicle"),
			has("factory.Vehicle", si, "transport.Vehicle"),
			has("transport.Vehicle", si, "factory.Vehicle"))),
		countBool(
			has("carrier.Cars", si, "transport.Vehicle"),
			has("factory.Vehicle", si, "transport.Vehicle"),
			has("transport.Vehicle", si, "factory.Vehicle")) == 3)
	check("cascade through transport.PassengerCar", "2 bridges",
		fmt.Sprintf("%d bridges", countBool(
			has("carrier.PassengerCar", si, "transport.PassengerCar"),
			has("transport.PassengerCar", si, "factory.Vehicle"))),
		countBool(
			has("carrier.PassengerCar", si, "transport.PassengerCar"),
			has("transport.PassengerCar", si, "factory.Vehicle")) == 2)
	conjOK := has("transport.CargoCarrierVehicle", si, "factory.CargoCarrier") &&
		has("transport.CargoCarrierVehicle", si, "factory.Vehicle") &&
		has("transport.CargoCarrierVehicle", si, "carrier.Trucks") &&
		has("factory.GoodsVehicle", si, "transport.CargoCarrierVehicle") &&
		has("factory.Truck", si, "transport.CargoCarrierVehicle")
	check("conjunction node CargoCarrierVehicle + common subclasses", "present", presentOrNot(conjOK), conjOK)
	disjOK := has("carrier.Cars", si, "transport.CarsTrucks") &&
		has("carrier.Trucks", si, "transport.CarsTrucks") &&
		has("factory.Vehicle", si, "transport.CarsTrucks")
	check("disjunction node CarsTrucks", "present", presentOrNot(disjOK), disjOK)
	ownOK := art.Ont.Related("Owner", ontology.SubclassOf, "Person")
	check("intra-articulation Owner => Person edge", "present", presentOrNot(ownOK), ownOK)
	fnOK := has("carrier.Price", "PSToEuroFn()", "transport.Price") &&
		has("transport.Price", "EuroToPSFn()", "carrier.Price") &&
		has("factory.Price", "DGToEuroFn()", "transport.Price") &&
		has("transport.Price", "EuroToDGFn()", "factory.Price")
	check("functional rules (4 currency edges)", "present", presentOrNot(fnOK), fnOK)
	euros, _ := art.Funcs.Apply("PSToEuroFn", 2000)
	check("MyCar price 2000 GBP normalised", "3200 EUR", fmt.Sprintf("%.0f EUR", euros), euros == 3200)
	inhOK := art.Ont.IsA("PassengerCar", "Transportation")
	check("inherited structure (§4.2)", "PassengerCar ⊑ Transportation", presentOrNot(inhOK), inhOK)
	small := art.Ont.NumTerms() < carrier.NumTerms()+factory.NumTerms()
	check("articulation smaller than combined sources",
		fmt.Sprintf("< %d terms", carrier.NumTerms()+factory.NumTerms()),
		fmt.Sprintf("%d terms", art.Ont.NumTerms()), small)
	return t
}

// E2Architecture runs the full Fig. 1 pipeline end to end: wrappers →
// data layer → SKAT → expert loop → articulation engine → algebra →
// query engine.
func E2Architecture() *Table {
	t := &Table{
		Columns: []string{"stage", "result", "ok"},
	}
	row := func(stage, result string, ok bool) {
		t.Rows = append(t.Rows, []string{stage, result, okMark(ok)})
	}

	// Wrappers: round-trip the sources through the XML format.
	carrier, factory := fixtures.Carrier(), fixtures.Factory()
	var buf strings.Builder
	err := writeXML(&buf, carrier)
	c2, err2 := readXML(buf.String())
	row("wrapper: carrier → XML → carrier", fmt.Sprintf("%d terms", termsOf(c2)),
		err == nil && err2 == nil && c2 != nil && c2.NumTerms() == carrier.NumTerms())

	// SKAT + scripted expert.
	set, stats := skat.RunSession(carrier, factory, skat.Config{
		Lexicon: lexicon.DefaultLexicon(), MinScore: 0.5, StructuralRounds: 2,
	}, skat.ThresholdExpert{AcceptAt: 0.75, MaxRounds: 2})
	row("SKAT session (propose/confirm loop)",
		fmt.Sprintf("%d suggested, %d accepted, %d rounds", stats.Suggested, stats.Accepted, stats.Rounds),
		stats.Accepted > 0)

	// Articulation engine over the expert-confirmed rules.
	res, err := articulation.Generate("auto", carrier, factory, set, articulation.Options{InheritStructure: true})
	okGen := err == nil && len(res.Art.Bridges) > 0
	row("articulation engine", fmt.Sprintf("%d bridges", bridgesOf(res)), okGen)

	// Algebra over the paper's curated rules.
	full, _, _ := fixtures.GenerateTransport()
	u, errU := algebra.UnionWith(carrier, factory, full.Art, algebra.Options{})
	row("algebra: union", fmt.Sprintf("%d terms", termsOfU(u)), errU == nil)
	d, errD := algebra.DifferenceWith(carrier, factory, full.Art, algebra.Options{})
	row("algebra: difference", fmt.Sprintf("%d terms kept", termsOf(d)), errD == nil)

	// Query engine with reformulation + conversion.
	eng, errE := query.NewEngine(full.Art, map[string]*query.Source{
		"carrier": {Ont: carrier, KB: fixtures.CarrierKB()},
		"factory": {Ont: factory, KB: fixtures.FactoryKB()},
	})
	var rows int
	var convs int
	if errE == nil {
		qr, errQ := eng.Execute(query.MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"))
		if errQ == nil {
			rows, convs = len(qr.Rows), qr.Stats.Conversions
		}
	}
	row("query engine (reformulate + convert)",
		fmt.Sprintf("%d rows, %d conversions", rows, convs), rows > 0 && convs > 0)

	// Inference engine plugged against a source ontology: transitivity of
	// SubclassOf has real work there (PassengerCar ⊑ Cars ⊑ Transportation).
	eng2, _ := inference.New(inference.ClausesFromRelations(carrier)...)
	eng2.AddGraph(carrier.Graph())
	st := eng2.Run()
	row("inference engine (Horn, semi-naive)", fmt.Sprintf("%d derived", st.Derived), st.Derived > 0)
	return t
}

// scaleSpec parameterises E3/E10.
type scaleSpec struct {
	Sources int
	Classes int
	Overlap float64
}

// E3Scalability compares articulation chains against a merged global
// schema as sources multiply (§1's scalability claim).
func E3Scalability(ns []int) *Table {
	if ns == nil {
		ns = []int{2, 4, 8, 16, 32}
	}
	t := &Table{
		Columns: []string{"sources", "terms/src", "art stored", "merge stored",
			"stored ratio", "art ms", "merge ms"},
		Notes: []string{
			"art stored = articulation terms+edges+bridges materialised across the chain",
			"merge stored = terms+edges of the single unified schema",
			"expected shape: per-arrival articulation cost is flat (the shared core only; see E10)",
			"while each re-merge touches every source again — build time ratios widen with n",
		},
	}
	for _, n := range ns {
		row := runScaleChain(scaleSpec{Sources: n, Classes: 80, Overlap: 0.25})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", row.termsPerSource),
			fmt.Sprintf("%d", row.artStored),
			fmt.Sprintf("%d", row.mergeStored),
			fmt.Sprintf("%.2f", float64(row.artStored)/float64(row.mergeStored)),
			ms(row.artTime),
			ms(row.mergeTime),
		})
	}
	return t
}

type scaleRow struct {
	termsPerSource int
	artStored      int
	mergeStored    int
	artTime        time.Duration
	mergeTime      time.Duration
	incremental    []int // per-arrival articulation work (E10)
	remerge        []int // per-arrival re-merge work (E10)
}

// runScaleChain models a federation sharing a domain core: every source
// carries a renamed copy of the core's shared subset (fraction Overlap)
// plus local-only terms. Sources join one at a time; each arrival is
// articulated against the existing articulation using cascaded rules
// routed through core-named articulation terms (§4.2's composition), so
// the articulation vocabulary stays the shared core. The global-merge
// baseline rebuilds a unified schema at every arrival.
func runScaleChain(spec scaleSpec) scaleRow {
	core := workload.Generate(workload.Spec{Name: "core", Classes: spec.Classes, AttrsPerClass: 0.3, Seed: 101})
	coreTerms := core.Terms()
	nShared := int(spec.Overlap * float64(len(coreTerms)))
	if nShared < 1 {
		nShared = 1
	}
	shared := coreTerms[:nShared]

	// Build the sources: renamed shared subset + structure + local terms.
	lex := lexicon.DefaultLexicon()
	sources := make([]*ontology.Ontology, 0, spec.Sources)
	truths := make([]map[string]string, 0, spec.Sources) // core term → source term
	for i := 1; i <= spec.Sources; i++ {
		name := fmt.Sprintf("s%d", i)
		src := ontology.New(name)
		truth := make(map[string]string, len(shared))
		rng := newRand(int64(1000 + i))
		for _, t := range shared {
			renamed := t
			if syns := lex.Synonyms(lexicon.HeadToken(t)); len(syns) > 0 && rng.Float64() < 0.4 {
				renamed = t + "_" + syns[rng.Intn(len(syns))]
			}
			if src.HasTerm(renamed) {
				renamed = fmt.Sprintf("%sv%d", renamed, i)
			}
			src.MustAddTerm(renamed)
			truth[t] = renamed
		}
		g := core.Graph()
		for _, e := range g.Edges() {
			from, okF := truth[g.Label(e.From)]
			to, okT := truth[g.Label(e.To)]
			if okF && okT {
				src.MustRelate(from, e.Label, to)
			}
		}
		for j := 0; j < spec.Classes/2; j++ {
			term := fmt.Sprintf("%sLocal%d", name, j)
			src.MustAddTerm(term)
			if j > 0 {
				src.MustRelate(term, ontology.SubclassOf, fmt.Sprintf("%sLocal%d", name, j-1))
			}
		}
		sources = append(sources, src)
		truths = append(truths, truth)
	}

	var out scaleRow
	out.termsPerSource = sources[0].NumTerms()

	// Articulation chain: each arrival articulates against the previous
	// articulation through cascaded rules art.coreTerm in the middle, so
	// articulation terms keep their core names and stay composable.
	out.artTime = timeIt(func() {
		left := sources[0]
		leftTruth := truths[0] // core term → left term
		for i := 1; i < len(sources); i++ {
			artName := fmt.Sprintf("a%d", i)
			set := rules.NewSet()
			for _, t := range shared {
				l, okL := leftTruth[t]
				r, okR := truths[i][t]
				if !okL || !okR || !left.HasTerm(l) {
					continue
				}
				set.Add(rules.Chain(
					rules.NewStep(rules.Single, ontology.MakeRef(left.Name(), l)),
					rules.NewStep(rules.Single, ontology.MakeRef(artName, t)),
					rules.NewStep(rules.Single, ontology.MakeRef(sources[i].Name(), r)),
				))
			}
			res, err := articulation.Generate(artName, left, sources[i], set, articulation.Options{Lenient: true})
			if err != nil {
				panic(err)
			}
			work := res.Art.Ont.NumTerms() + res.Art.Ont.NumRelationships() + len(res.Art.Bridges)
			out.artStored += work
			out.incremental = append(out.incremental, work)
			left = res.Art.Ont
			// The articulation's terms ARE core terms now.
			next := make(map[string]string, len(shared))
			for _, t := range shared {
				if left.HasTerm(t) {
					next[t] = t
				}
			}
			leftTruth = next
		}
	})

	// Global merge: one qualified union of everything, rebuilt from
	// scratch at each arrival (the global-schema maintenance story).
	out.mergeTime = timeIt(func() {
		for upto := 2; upto <= len(sources); upto++ {
			merged := ontology.New("global")
			work := 0
			for _, src := range sources[:upto] {
				q := algebra.Qualify(src)
				g := q.Graph()
				for _, id := range g.Nodes() {
					if _, err := merged.EnsureTerm(g.Label(id)); err == nil {
						work++
					}
				}
				for _, e := range g.Edges() {
					if err := merged.Relate(g.Label(e.From), e.Label, g.Label(e.To)); err == nil {
						work++
					}
				}
			}
			out.remerge = append(out.remerge, work)
			if upto == len(sources) {
				out.mergeStored = merged.NumTerms() + merged.NumRelationships()
			}
		}
	})
	return out
}

// rulesFromTruth turns planted correspondences into simple articulation
// rules, skipping left terms the left ontology no longer carries (the
// left side of a chain is an articulation ontology with namesake terms).
func rulesFromTruth(leftOnt, rightOnt string, truth map[string]string, left *ontology.Ontology) *rules.Set {
	set := rules.NewSet()
	for l, r := range truth {
		if left != nil && !left.HasTerm(l) {
			continue
		}
		set.Add(rules.Implication(ontology.MakeRef(leftOnt, l), ontology.MakeRef(rightOnt, r)))
	}
	return set
}

func okMark(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}

func presentOrNot(ok bool) string {
	if ok {
		return "present"
	}
	return "MISSING"
}

func countBool(bs ...bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func termsOf(o *ontology.Ontology) int {
	if o == nil {
		return 0
	}
	return o.NumTerms()
}

func termsOfU(u *algebra.UnionResult) int {
	if u == nil {
		return 0
	}
	return u.Ont.NumTerms()
}

func bridgesOf(r *articulation.Result) int {
	if r == nil || r.Art == nil {
		return 0
	}
	return len(r.Art.Bridges)
}

func writeXML(w *strings.Builder, o *ontology.Ontology) error {
	return wrapper.WriteXML(w, o)
}

func readXML(s string) (*ontology.Ontology, error) {
	return wrapper.ReadXML(strings.NewReader(s))
}

func newRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// ruleT aliases the rule type for the experiment helpers.
type ruleT = rules.Rule

func parseRule(s string) (rules.Rule, error) { return rules.Parse(s) }
