package workload

import (
	"testing"

	"repro/internal/lexicon"
	"repro/internal/ontology"
	"repro/internal/skat"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Name: "w", Classes: 40, AttrsPerClass: 0.5, InstancesPerLeaf: 0.5, Seed: 7}
	a := Generate(spec)
	b := Generate(spec)
	if a.String() != b.String() {
		t.Fatalf("Generate not deterministic for equal seeds")
	}
	c := Generate(Spec{Name: "w", Classes: 40, AttrsPerClass: 0.5, InstancesPerLeaf: 0.5, Seed: 8})
	if a.String() == c.String() {
		t.Fatalf("Generate identical across different seeds")
	}
}

func TestGenerateShape(t *testing.T) {
	o := Generate(Spec{Name: "w", Classes: 60, AttrsPerClass: 1, InstancesPerLeaf: 1, Seed: 42})
	if err := o.Validate(); err != nil {
		t.Fatalf("generated ontology invalid: %v", err)
	}
	if o.NumTerms() < 60 {
		t.Fatalf("too few terms: %d", o.NumTerms())
	}
	// The class tree must be connected under SubclassOf: every class but
	// the root reaches the root.
	g := o.Graph()
	roots := 0
	for _, e := range g.EdgesWithLabel(ontology.SubclassOf) {
		_ = e
	}
	subclassEdges := len(g.EdgesWithLabel(ontology.SubclassOf))
	if subclassEdges < 59 {
		t.Fatalf("class tree disconnected: %d SubclassOf edges", subclassEdges)
	}
	_ = roots
	// Attributes and instances present.
	hasAttr, hasInst := false, false
	for _, e := range g.Edges() {
		switch e.Label {
		case ontology.AttributeOf:
			hasAttr = true
		case ontology.InstanceOf:
			hasInst = true
		}
	}
	if !hasAttr || !hasInst {
		t.Fatalf("generated ontology missing attributes (%v) or instances (%v)", hasAttr, hasInst)
	}
}

func TestGeneratePairTruthIsRealizable(t *testing.T) {
	o1, o2, truth := GeneratePair(PairSpec{
		Spec:          Spec{Name: "src", Classes: 50, Seed: 11},
		Overlap:       0.6,
		SynonymRename: 0.5,
		StyleRename:   0.3,
		ExtraClasses:  10,
	})
	if err := o1.Validate(); err != nil {
		t.Fatalf("o1 invalid: %v", err)
	}
	if err := o2.Validate(); err != nil {
		t.Fatalf("o2 invalid: %v", err)
	}
	if len(truth) == 0 {
		t.Fatalf("no planted correspondences")
	}
	for l, r := range truth {
		if !o1.HasTerm(l) {
			t.Fatalf("truth left term %q missing in o1", l)
		}
		if !o2.HasTerm(r) {
			t.Fatalf("truth right term %q missing in o2", r)
		}
	}
	// Overlap fraction is roughly respected (classes only).
	if len(truth) < 10 || len(truth) > 50 {
		t.Fatalf("implausible truth size %d for overlap 0.6 of 50", len(truth))
	}
	// o2 has extra unrelated terms.
	if o2.NumTerms() <= len(truth) {
		t.Fatalf("o2 has no extra terms: %d terms, %d truth", o2.NumTerms(), len(truth))
	}
}

func TestGeneratePairStructureCopied(t *testing.T) {
	o1, o2, truth := GeneratePair(PairSpec{
		Spec:    Spec{Name: "src", Classes: 30, Seed: 3},
		Overlap: 1.0, // all classes overlap, no renames
	})
	g1 := o1.Graph()
	copied := 0
	for _, e := range g1.EdgesWithLabel(ontology.SubclassOf) {
		from, okF := truth[g1.Label(e.From)]
		to, okT := truth[g1.Label(e.To)]
		if okF && okT {
			if !o2.Related(from, ontology.SubclassOf, to) {
				t.Fatalf("edge %s->%s not copied", from, to)
			}
			copied++
		}
	}
	if copied == 0 {
		t.Fatalf("no structure copied")
	}
}

func TestGeneratePairSkatRecall(t *testing.T) {
	// End-to-end sanity: SKAT with the lexicon must recover a majority of
	// planted correspondences at reasonable precision (the machinery of
	// skat.TestStructuralLiftsRecall).
	o1, o2, truth := GeneratePair(PairSpec{
		Spec:          Spec{Name: "src", Classes: 40, Seed: 19},
		Overlap:       0.7,
		SynonymRename: 0.4,
		StyleRename:   0.3,
		ExtraClasses:  8,
	})
	ss := skat.Propose(o1, o2, skat.Config{
		Lexicon:  lexicon.DefaultLexicon(),
		MinScore: 0.5,
	})
	m := skat.Evaluate(skat.TopPerLeft(ss), truth)
	if m.Recall < 0.5 {
		t.Fatalf("lexicon-assisted recall too low: %+v", m)
	}
	// Without any lexicon the renames must hurt recall.
	plain := skat.Propose(o1, o2, skat.Config{MinScore: 0.5})
	m2 := skat.Evaluate(skat.TopPerLeft(plain), truth)
	if m2.Recall > m.Recall {
		t.Fatalf("lexicon did not help: with %v, without %v", m.Recall, m2.Recall)
	}
}

func TestMutate(t *testing.T) {
	o := Generate(Spec{Name: "w", Classes: 30, AttrsPerClass: 0.5, Seed: 5})
	before := o.String()
	muts := Mutate(o, 20, 99)
	if len(muts) == 0 {
		t.Fatalf("no mutations applied")
	}
	if o.String() == before {
		t.Fatalf("mutations did not change ontology")
	}
	touched := TouchedTerms(muts)
	if len(touched) == 0 {
		t.Fatalf("no touched terms recorded")
	}
	// Determinism of the mutation stream.
	o2 := Generate(Spec{Name: "w", Classes: 30, AttrsPerClass: 0.5, Seed: 5})
	muts2 := Mutate(o2, 20, 99)
	if len(muts2) != len(muts) {
		t.Fatalf("mutation stream not deterministic")
	}
	if o.String() != o2.String() {
		t.Fatalf("mutated ontologies differ for equal seeds")
	}
}

func TestPoissonBounds(t *testing.T) {
	o := Generate(Spec{Name: "w", Classes: 10, AttrsPerClass: 2, Seed: 1})
	if err := o.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}
