package skat

import (
	"strings"
	"testing"

	"repro/internal/articulation"
	"repro/internal/fixtures"
	"repro/internal/lexicon"
	"repro/internal/ontology"
	"repro/internal/rules"
	"repro/internal/workload"
)

func proposeCarrierFactory(t testing.TB, cfg Config) []Suggestion {
	t.Helper()
	return Propose(fixtures.Carrier(), fixtures.Factory(), cfg)
}

func hasSuggestion(ss []Suggestion, left, right string) bool {
	for _, s := range ss {
		if s.Left.Term == left && s.Right.Term == right {
			return true
		}
	}
	return false
}

func TestProposeExactMatches(t *testing.T) {
	ss := proposeCarrierFactory(t, Config{})
	// carrier.Transportation / factory.Transportation and Person/Person,
	// Price/Price are exact matches.
	for _, pair := range [][2]string{
		{"Transportation", "Transportation"},
		{"Person", "Person"},
		{"Price", "Price"},
	} {
		if !hasSuggestion(ss, pair[0], pair[1]) {
			t.Errorf("missing exact suggestion %v", pair)
		}
	}
}

func TestProposeLexiconSynonyms(t *testing.T) {
	// carrier.Cars vs factory.Vehicle: related only through the lexicon
	// (car is a hyponym of vehicle — path distance within threshold).
	noLex := proposeCarrierFactory(t, Config{MinScore: 0.5})
	withLex := proposeCarrierFactory(t, Config{MinScore: 0.5, Lexicon: lexicon.DefaultLexicon()})
	if hasSuggestion(noLex, "Cars", "Vehicle") {
		t.Fatalf("Cars/Vehicle suggested without lexicon evidence")
	}
	if !hasSuggestion(withLex, "Cars", "Vehicle") {
		t.Fatalf("Cars/Vehicle not suggested with lexicon; got %v", withLex)
	}
	// Trucks should map to Truck (string + lexicon).
	if !hasSuggestion(withLex, "Trucks", "Truck") {
		t.Fatalf("Trucks/Truck not suggested")
	}
}

func TestProposeScoresOrdered(t *testing.T) {
	ss := proposeCarrierFactory(t, Config{Lexicon: lexicon.DefaultLexicon()})
	for i := 1; i < len(ss); i++ {
		if ss[i].Score > ss[i-1].Score+1e-9 {
			t.Fatalf("suggestions not sorted by score at %d", i)
		}
	}
	// Determinism.
	again := proposeCarrierFactory(t, Config{Lexicon: lexicon.DefaultLexicon()})
	if len(again) != len(ss) {
		t.Fatalf("unstable suggestion count")
	}
	for i := range ss {
		if ss[i].Left != again[i].Left || ss[i].Right != again[i].Right {
			t.Fatalf("unstable suggestion order at %d", i)
		}
	}
}

func TestExpertRulesForceAndForbid(t *testing.T) {
	cfg := Config{
		Lexicon: lexicon.DefaultLexicon(),
		ExpertRules: []ExpertRule{
			{Kind: Force, Left: "MyCar", Right: "Factory"}, // nonsense, but forced
			{Kind: Forbid, Left: "Person", Right: "Person"},
		},
	}
	ss := proposeCarrierFactory(t, cfg)
	if !hasSuggestion(ss, "MyCar", "Factory") {
		t.Fatalf("forced pair not suggested")
	}
	for _, s := range ss {
		if s.Left.Term == "MyCar" && s.Right.Term == "Factory" && s.Score != 1 {
			t.Fatalf("forced pair score = %v, want 1", s.Score)
		}
	}
	if hasSuggestion(ss, "Person", "Person") {
		t.Fatalf("forbidden pair still suggested")
	}
}

func TestForceUnknownTermIgnored(t *testing.T) {
	cfg := Config{ExpertRules: []ExpertRule{{Kind: Force, Left: "Ghost", Right: "Vehicle"}}}
	ss := proposeCarrierFactory(t, cfg)
	if hasSuggestion(ss, "Ghost", "Vehicle") {
		t.Fatalf("forced rule with unknown term suggested")
	}
}

func TestStructuralPropagationPromotesNeighbours(t *testing.T) {
	// Two ontologies with ambiguous labels: structure disambiguates.
	o1 := ontology.New("a")
	for _, term := range []string{"Engine", "Car", "Wheel"} {
		o1.MustAddTerm(term)
	}
	o1.MustRelate("Engine", "partOf", "Car")
	o1.MustRelate("Wheel", "partOf", "Car")

	o2 := ontology.New("b")
	for _, term := range []string{"Engine", "Auto", "Wheel", "Boat"} {
		o2.MustAddTerm(term)
	}
	o2.MustRelate("Engine", "partOf", "Auto")
	o2.MustRelate("Wheel", "partOf", "Auto")
	o2.MustRelate("Engine", "partOf", "Boat")

	lex := lexicon.DefaultLexicon()
	flat := Propose(o1, o2, Config{Lexicon: lex, MinScore: 0.3})
	deep := Propose(o1, o2, Config{Lexicon: lex, MinScore: 0.3, StructuralRounds: 2})

	score := func(ss []Suggestion, l, r string) float64 {
		for _, s := range ss {
			if s.Left.Term == l && s.Right.Term == r {
				return s.Score
			}
		}
		return 0
	}
	// Car/Auto are lexicon synonyms; with structural propagation their
	// shared Engine+Wheel context must not lower — and typically raises —
	// confidence relative to the flat score.
	if score(deep, "Car", "Auto") < score(flat, "Car", "Auto")-1e-9 {
		t.Fatalf("structural propagation lowered an anchored pair: %v vs %v",
			score(deep, "Car", "Auto"), score(flat, "Car", "Auto"))
	}
	// Evidence trail mentions propagation when scores moved.
	found := false
	for _, s := range deep {
		for _, e := range s.Evidence {
			if strings.Contains(e, "structural") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no structural evidence recorded")
	}
}

func TestMaxSuggestions(t *testing.T) {
	ss := proposeCarrierFactory(t, Config{Lexicon: lexicon.DefaultLexicon(), MaxSuggestions: 2})
	if len(ss) != 2 {
		t.Fatalf("MaxSuggestions ignored: %d", len(ss))
	}
}

func TestSuggestionRuleAndString(t *testing.T) {
	s := Suggestion{
		Left:  ontology.MakeRef("carrier", "Cars"),
		Right: ontology.MakeRef("factory", "Vehicle"),
		Score: 0.9, Evidence: []string{"lexicon"},
	}
	r := s.Rule()
	if r.String() != "carrier.Cars => factory.Vehicle" {
		t.Fatalf("Rule = %q", r.String())
	}
	if !strings.Contains(s.String(), "0.90") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestRunSessionWithThresholdExpert(t *testing.T) {
	set, stats := RunSession(fixtures.Carrier(), fixtures.Factory(), Config{
		Lexicon:  lexicon.DefaultLexicon(),
		MinScore: 0.5,
	}, ThresholdExpert{AcceptAt: 0.7, MaxRounds: 3})

	if stats.Accepted == 0 {
		t.Fatalf("threshold expert accepted nothing: %+v", stats)
	}
	if set.Len() != stats.Accepted {
		t.Fatalf("rule set size %d != accepted %d", set.Len(), stats.Accepted)
	}
	if err := set.Validate(); err != nil {
		t.Fatalf("session produced invalid rules: %v", err)
	}
	if stats.Reviewed < stats.Accepted+stats.Rejected {
		t.Fatalf("stats inconsistent: %+v", stats)
	}
	// The accepted rules must include the obvious exact matches.
	text := set.String()
	if !strings.Contains(text, "carrier.Transportation => factory.Transportation") {
		t.Fatalf("session missed exact match:\n%s", text)
	}
	// The confirmed rules feed the articulation engine (Fig. 1's
	// expert loop into articulation generation).
	res, err := articulation.Generate("auto", fixtures.Carrier(), fixtures.Factory(), set,
		articulation.Options{InheritStructure: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Art.Bridges) == 0 {
		t.Fatalf("confirmed rules generated no bridges:\n%s", text)
	}
}

func TestRunSessionOracleNoDuplicateReviews(t *testing.T) {
	truth := map[string]string{
		"Transportation": "Transportation",
		"Person":         "Person",
		"Price":          "Price",
		"Cars":           "Vehicle",
		"Trucks":         "Truck",
	}
	_, stats := RunSession(fixtures.Carrier(), fixtures.Factory(), Config{
		Lexicon:  lexicon.DefaultLexicon(),
		MinScore: 0.5,
	}, OracleExpert{Truth: truth, MaxRounds: 4})
	// Each pair is reviewed at most once across rounds.
	if stats.Reviewed > stats.Suggested {
		t.Fatalf("pairs re-reviewed: %+v", stats)
	}
	if stats.Accepted == 0 || stats.Rejected == 0 {
		t.Fatalf("oracle session should both accept and reject: %+v", stats)
	}
}

func TestSessionModifyDecision(t *testing.T) {
	mod := modifyingExpert{}
	set, stats := RunSession(fixtures.Carrier(), fixtures.Factory(), Config{MinScore: 0.9}, mod)
	if stats.Modified == 0 {
		t.Fatalf("no modifications recorded: %+v", stats)
	}
	if !strings.Contains(set.String(), "transport.") {
		t.Fatalf("modified rule not in set:\n%s", set.String())
	}
}

// modifyingExpert rewrites every suggestion into a cascaded rule through
// the articulation ontology.
type modifyingExpert struct{}

func (modifyingExpert) Review(s Suggestion) (Decision, rules.Rule) {
	mid := ontology.MakeRef("transport", s.Right.Term)
	return Modify, rules.Chain(
		rules.NewStep(rules.Single, s.Left),
		rules.NewStep(rules.Single, mid),
		rules.NewStep(rules.Single, s.Right),
	)
}

func (modifyingExpert) Satisfied(round, newlyAccepted int) bool { return round >= 1 }

func TestEvaluateMetrics(t *testing.T) {
	truth := map[string]string{"A": "X", "B": "Y", "C": "Z"}
	ss := []Suggestion{
		{Left: ontology.MakeRef("o1", "A"), Right: ontology.MakeRef("o2", "X")}, // TP
		{Left: ontology.MakeRef("o1", "B"), Right: ontology.MakeRef("o2", "W")}, // FP
		{Left: ontology.MakeRef("o1", "A"), Right: ontology.MakeRef("o2", "X")}, // duplicate TP
	}
	m := Evaluate(ss, truth)
	if m.TruePos != 1 || m.FalsePos != 1 || m.FalseNeg != 2 {
		t.Fatalf("counts = %+v", m)
	}
	if m.Precision != 0.5 {
		t.Fatalf("precision = %v", m.Precision)
	}
	wantRecall := 1.0 / 3.0
	if diff := m.Recall - wantRecall; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("recall = %v", m.Recall)
	}
	if m.F1 <= 0 || m.F1 >= 1 {
		t.Fatalf("f1 = %v", m.F1)
	}
	empty := Evaluate(nil, nil)
	if empty.Precision != 0 || empty.Recall != 0 || empty.F1 != 0 {
		t.Fatalf("empty metrics = %+v", empty)
	}
}

// TestStructuralLiftsRecall checks the semi-automation claim (§2.4)
// against planted ground truth: lexicon plus structural propagation
// surfaces more of the true correspondences than exact matching.
func TestStructuralLiftsRecall(t *testing.T) {
	o1, o2, truth := workload.GeneratePair(workload.PairSpec{
		Spec:          workload.Spec{Name: "sk", Classes: 150, AttrsPerClass: 0.3, Seed: 2024},
		Overlap:       0.6,
		SynonymRename: 0.4,
		StyleRename:   0.3,
		Typo:          0.1,
		ExtraClasses:  50,
	})
	recall := func(cfg Config) float64 {
		return Evaluate(TopPerLeft(Propose(o1, o2, cfg)), truth).Recall
	}
	exact := recall(Config{Weights: Weights{Exact: 1}, MinScore: 0.95})
	structural := recall(Config{Lexicon: lexicon.DefaultLexicon(), MinScore: 0.55, StructuralRounds: 2})
	t.Logf("recall: exact only %.2f, +structural %.2f", exact, structural)
	if structural <= exact {
		t.Fatalf("structural recall %.2f not above exact-only %.2f", structural, exact)
	}
}

func TestTopPerLeft(t *testing.T) {
	ss := []Suggestion{
		{Left: ontology.MakeRef("o1", "A"), Right: ontology.MakeRef("o2", "X"), Score: 0.5},
		{Left: ontology.MakeRef("o1", "A"), Right: ontology.MakeRef("o2", "Y"), Score: 0.9},
		{Left: ontology.MakeRef("o1", "B"), Right: ontology.MakeRef("o2", "Z"), Score: 0.7},
	}
	top := TopPerLeft(ss)
	if len(top) != 2 {
		t.Fatalf("TopPerLeft size = %d", len(top))
	}
	if top[0].Left.Term != "A" || top[0].Right.Term != "Y" {
		t.Fatalf("TopPerLeft order/selection wrong: %v", top)
	}
}
