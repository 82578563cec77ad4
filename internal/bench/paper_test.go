package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/articulation"
	"repro/internal/fixtures"
	"repro/internal/inference"
	"repro/internal/lexicon"
	"repro/internal/ontology"
	"repro/internal/query"
	"repro/internal/skat"
	"repro/internal/wrapper"
)

// TestE1AllChecksPass locks the Fig. 2 reproduction: every structure the
// paper's worked example describes is present in the regenerated
// transport articulation.
func TestE1AllChecksPass(t *testing.T) {
	res, carrier, factory := fixtures.GenerateTransport()
	art := res.Art
	si := articulation.BridgeLabel
	check := func(name string, bridges ...[3]string) {
		t.Helper()
		for _, b := range bridges {
			if !art.HasBridge(ontology.MustParseRef(b[0]), b[1], ontology.MustParseRef(b[2])) {
				t.Errorf("%s: bridge %s -%s-> %s missing", name, b[0], b[1], b[2])
			}
		}
	}
	check("simple rule: carrier.Cars => factory.Vehicle",
		[3]string{"carrier.Cars", si, "transport.Vehicle"},
		[3]string{"factory.Vehicle", si, "transport.Vehicle"},
		[3]string{"transport.Vehicle", si, "factory.Vehicle"})
	check("cascade through transport.PassengerCar",
		[3]string{"carrier.PassengerCar", si, "transport.PassengerCar"},
		[3]string{"transport.PassengerCar", si, "factory.Vehicle"})
	check("conjunction node CargoCarrierVehicle + common subclasses",
		[3]string{"transport.CargoCarrierVehicle", si, "factory.CargoCarrier"},
		[3]string{"transport.CargoCarrierVehicle", si, "factory.Vehicle"},
		[3]string{"transport.CargoCarrierVehicle", si, "carrier.Trucks"},
		[3]string{"factory.GoodsVehicle", si, "transport.CargoCarrierVehicle"},
		[3]string{"factory.Truck", si, "transport.CargoCarrierVehicle"})
	check("disjunction node CarsTrucks",
		[3]string{"carrier.Cars", si, "transport.CarsTrucks"},
		[3]string{"carrier.Trucks", si, "transport.CarsTrucks"},
		[3]string{"factory.Vehicle", si, "transport.CarsTrucks"})
	check("functional rules (4 currency edges)",
		[3]string{"carrier.Price", "PSToEuroFn()", "transport.Price"},
		[3]string{"transport.Price", "EuroToPSFn()", "carrier.Price"},
		[3]string{"factory.Price", "DGToEuroFn()", "transport.Price"},
		[3]string{"transport.Price", "EuroToDGFn()", "factory.Price"})
	if !art.Ont.Related("Owner", ontology.SubclassOf, "Person") {
		t.Error("intra-articulation Owner => Person edge missing")
	}
	if euros, err := art.Funcs.Apply("PSToEuroFn", 2000); err != nil || euros != 3200 {
		t.Errorf("MyCar price 2000 GBP normalised to %v EUR (err %v), want 3200", euros, err)
	}
	if !art.Ont.IsA("PassengerCar", "Transportation") {
		t.Error("inherited structure (§4.2): PassengerCar ⊑ Transportation missing")
	}
	if got, max := art.Ont.NumTerms(), carrier.NumTerms()+factory.NumTerms(); got >= max {
		t.Errorf("articulation has %d terms, want < %d (the combined sources)", got, max)
	}
}

// TestE2AllStagesPass runs the Fig. 1 pipeline end to end: wrappers →
// SKAT with a scripted expert → articulation engine → algebra → query
// engine → inference engine, each stage producing real output.
func TestE2AllStagesPass(t *testing.T) {
	carrier, factory := fixtures.Carrier(), fixtures.Factory()

	// Wrappers: round-trip a source through the XML format.
	var buf strings.Builder
	if err := wrapper.WriteXML(&buf, carrier); err != nil {
		t.Fatalf("wrapper write: %v", err)
	}
	c2, err := wrapper.ReadXML(strings.NewReader(buf.String()))
	if err != nil || c2.NumTerms() != carrier.NumTerms() {
		t.Errorf("wrapper round trip: err %v, terms %v, want %d", err, c2, carrier.NumTerms())
	}

	// SKAT + scripted expert.
	set, stats := skat.RunSession(carrier, factory, skat.Config{
		Lexicon: lexicon.DefaultLexicon(), MinScore: 0.5, StructuralRounds: 2,
	}, skat.ThresholdExpert{AcceptAt: 0.75, MaxRounds: 2})
	if stats.Accepted == 0 {
		t.Errorf("SKAT session accepted nothing: %+v", stats)
	}

	// Articulation engine over the expert-confirmed rules.
	res, err := articulation.Generate("auto", carrier, factory, set, articulation.Options{InheritStructure: true})
	if err != nil || len(res.Art.Bridges) == 0 {
		t.Errorf("articulation engine: err %v, confirmed rules gave no bridges", err)
	}

	// Algebra over the paper's curated rules.
	full, _, _ := fixtures.GenerateTransport()
	if _, err := algebra.UnionWith(carrier, factory, full.Art, algebra.Options{}); err != nil {
		t.Errorf("algebra union: %v", err)
	}
	if _, err := algebra.DifferenceWith(carrier, factory, full.Art, algebra.Options{}); err != nil {
		t.Errorf("algebra difference: %v", err)
	}

	// Query engine with reformulation + conversion.
	eng, err := query.NewEngine(full.Art, map[string]*query.Source{
		"carrier": {Ont: carrier, KB: fixtures.CarrierKB()},
		"factory": {Ont: factory, KB: fixtures.FactoryKB()},
	})
	if err != nil {
		t.Fatalf("query engine: %v", err)
	}
	qr, err := runQuery(eng, query.MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"), query.Options{})
	if err != nil || len(qr.Rows) == 0 || qr.Stats.Conversions == 0 {
		t.Errorf("query engine: err %v, want rows and conversions, got %+v", err, qr)
	}

	// Inference engine against a source ontology: transitivity of
	// SubclassOf has real work there (PassengerCar ⊑ Cars ⊑ Transportation).
	ie, err := inference.New(inference.ClausesFromRelations(carrier)...)
	if err != nil {
		t.Fatalf("inference engine: %v", err)
	}
	ie.AddGraph(carrier.Graph())
	if st := ie.Run(); st.Derived == 0 {
		t.Errorf("inference engine derived nothing: %+v", st)
	}
}

// TestE9LightEngineWins checks the light-engine claim (§4.1) on the anc
// chain: semi-naive and naive evaluation reach the same fixpoint, the
// semi-naive engine considers strictly fewer joins, and its advantage
// grows with the chain.
func TestE9LightEngineWins(t *testing.T) {
	ratio := func(n int) float64 {
		build := func() *inference.Engine {
			e, err := inference.New(
				inference.MustParseClause("anc(?x,?y) :- par(?x,?y)"),
				inference.MustParseClause("anc(?x,?z) :- par(?x,?y), anc(?y,?z)"),
			)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i+1 < n; i++ {
				e.AddFact(inference.Fact{Pred: "par", Subj: fmt.Sprintf("c%d", i), Obj: fmt.Sprintf("c%d", i+1)})
			}
			return e
		}
		semi, naive := build(), build()
		s1, s2 := semi.Run(), naive.RunNaive()
		if semi.NumFacts() != naive.NumFacts() {
			t.Fatalf("chain %d: strategies disagree: %d vs %d facts", n, semi.NumFacts(), naive.NumFacts())
		}
		return float64(s2.JoinsConsidered) / float64(s1.JoinsConsidered)
	}
	r1, r2 := ratio(30), ratio(60)
	if r1 <= 1 || r2 <= r1 {
		t.Fatalf("joins ratio shape wrong: %v then %v", r1, r2)
	}
}

// TestE11PlannedBeatsSequential checks the fan-out world at 2 and 8
// sources: the planned path returns rows identical to the sequential
// reference, reorders joins, and is faster at the larger federation.
func TestE11PlannedBeatsSequential(t *testing.T) {
	const instances, reps = 2000, 3
	timeReps := func(eng *query.Engine, q query.Query, opts query.Options) (*query.Result, time.Duration) {
		var res *query.Result
		start := time.Now()
		for i := 0; i < reps; i++ {
			var err error
			if res, err = runQuery(eng, q, opts); err != nil {
				t.Fatal(err)
			}
		}
		return res, time.Since(start) / reps
	}
	var speedup float64
	for _, n := range []int{2, 8} {
		eng, q := buildFanoutWorld(n, instances)
		resSeq, dSeq := timeReps(eng, q, query.Options{Sequential: true})
		// One cold run compiles and caches the plan; the timed runs are
		// the warm path.
		if _, err := runQuery(eng, q, query.Options{}); err != nil {
			t.Fatal(err)
		}
		resPar, dPar := timeReps(eng, q, query.Options{})
		if !resSeq.EqualRows(resPar) {
			t.Errorf("%d sources: planned rows differ from sequential", n)
		}
		if resPar.Stats.ReorderedTriples == 0 {
			t.Errorf("%d sources: planner did not reorder joins", n)
		}
		speedup = 0
		if dPar > 0 {
			speedup = float64(dSeq) / float64(dPar)
		}
	}
	if speedup <= 1.0 {
		t.Errorf("planned path not faster at 8 sources: speedup %.2fx", speedup)
	}
}
