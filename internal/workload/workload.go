// Package workload generates synthetic ontologies, ontology pairs with
// planted (ground-truth) correspondences, and source-churn mutations.
//
// The paper's evaluation is a worked example plus qualitative claims; to
// test those claims (composition vs. global merge, §5.3 maintenance, SKAT
// recall) we need ontologies of controlled size, overlap and naming
// divergence. The generators here are deterministic per seed, so every
// test and benchmark is reproducible.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/lexicon"
	"repro/internal/ontology"
)

// Spec describes one synthetic ontology.
type Spec struct {
	// Name of the ontology.
	Name string
	// Classes is the number of class terms (the SubclassOf tree size).
	Classes int
	// Branching is the fan-out of the class tree; 0 defaults to 4.
	Branching int
	// AttrsPerClass adds that many attribute terms per class on average
	// (attributes may be shared between classes).
	AttrsPerClass float64
	// InstancesPerLeaf adds that many instance terms per leaf class.
	InstancesPerLeaf float64
	// Seed drives all randomness.
	Seed int64
}

func (s Spec) branching() int {
	if s.Branching <= 0 {
		return 4
	}
	return s.Branching
}

// nounPool is the compound-term vocabulary. Most words also appear in the
// embedded lexicon, so synonym renames in GeneratePair have material to
// work with.
var nounPool = []string{
	"vehicle", "car", "truck", "van", "bus", "bicycle", "train", "ship",
	"cargo", "freight", "goods", "product", "container", "box", "pallet",
	"person", "driver", "owner", "buyer", "seller", "worker", "passenger",
	"company", "factory", "warehouse", "shop", "port", "office", "department",
	"price", "value", "weight", "size", "model", "name", "color", "speed",
	"invoice", "order", "contract", "schedule", "catalog", "document",
	"route", "depot", "fleet", "engine", "wheel", "cabin", "manager",
}

var adjPool = []string{
	"heavy", "light", "fast", "slow", "new", "used", "large", "small",
	"local", "foreign", "annual", "daily", "primary", "backup", "main",
}

// Generate builds a deterministic ontology per spec: a class tree with
// SubclassOf edges, attribute terms with AttributeOf edges, and instance
// terms with InstanceOf edges.
func Generate(spec Spec) *ontology.Ontology {
	rng := rand.New(rand.NewSource(spec.Seed))
	name := spec.Name
	if name == "" {
		name = "synthetic"
	}
	o := ontology.New(name)

	classes := makeTermNames(rng, spec.Classes)
	for _, c := range classes {
		o.MustAddTerm(c)
	}
	// Random tree: node i (>0) gets a parent among the previous nodes,
	// biased to recent ones for a branching-factor-ish shape.
	isLeaf := make(map[string]bool, len(classes))
	for _, c := range classes {
		isLeaf[c] = true
	}
	b := spec.branching()
	for i := 1; i < len(classes); i++ {
		lo := i - b*2
		if lo < 0 {
			lo = 0
		}
		parent := classes[lo+rng.Intn(i-lo)]
		o.MustRelate(classes[i], ontology.SubclassOf, parent)
		isLeaf[parent] = false
	}

	// Attributes: a pool about as large as needed, shared across classes.
	nAttrs := int(spec.AttrsPerClass * float64(len(classes)))
	if spec.AttrsPerClass > 0 && nAttrs == 0 {
		nAttrs = 1
	}
	attrs := make([]string, 0, nAttrs)
	for i := 0; i < nAttrs; i++ {
		a := fmt.Sprintf("%sAttr%d", title(nounPool[rng.Intn(len(nounPool))]), i)
		o.MustAddTerm(a)
		attrs = append(attrs, a)
	}
	if len(attrs) > 0 {
		for _, c := range classes {
			k := poisson(rng, spec.AttrsPerClass)
			for j := 0; j < k; j++ {
				o.MustRelate(c, ontology.AttributeOf, attrs[rng.Intn(len(attrs))])
			}
		}
	}

	// Instances hang off leaves.
	if spec.InstancesPerLeaf > 0 {
		idx := 0
		for _, c := range classes {
			if !isLeaf[c] {
				continue
			}
			k := poisson(rng, spec.InstancesPerLeaf)
			for j := 0; j < k; j++ {
				inst := fmt.Sprintf("%sInst%d", c, idx)
				idx++
				o.MustAddTerm(inst)
				o.MustRelate(inst, ontology.InstanceOf, c)
			}
		}
	}
	return o
}

// makeTermNames builds n distinct CamelCase compound terms.
func makeTermNames(rng *rand.Rand, n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		var name string
		switch rng.Intn(3) {
		case 0:
			name = title(nounPool[rng.Intn(len(nounPool))])
		case 1:
			name = title(adjPool[rng.Intn(len(adjPool))]) + title(nounPool[rng.Intn(len(nounPool))])
		default:
			name = title(nounPool[rng.Intn(len(nounPool))]) + title(nounPool[rng.Intn(len(nounPool))])
		}
		if seen[name] {
			name = fmt.Sprintf("%s%d", name, len(out))
		}
		if seen[name] {
			continue
		}
		seen[name] = true
		out = append(out, name)
	}
	return out
}

func title(w string) string {
	if w == "" {
		return ""
	}
	return strings.ToUpper(w[:1]) + w[1:]
}

// poisson draws a small Poisson-ish count with the given mean (clamped to
// 0..4·mean+1 for determinism-friendly tails).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	k := 0
	limit := int(4*mean) + 1
	for k < limit && rng.Float64() < mean/(mean+1) {
		k++
	}
	return k
}

// PairSpec describes a pair of overlapping ontologies with planted
// correspondences.
type PairSpec struct {
	Spec
	// Overlap is the fraction of the first ontology's class terms that
	// have a counterpart in the second (0..1).
	Overlap float64
	// SynonymRename is the probability that a counterpart's token is
	// replaced by a lexicon synonym ("Car" → "Auto").
	SynonymRename float64
	// StyleRename is the probability that a counterpart is restyled
	// (CamelCase → snake_case).
	StyleRename float64
	// Typo is the probability of a one-character typo in a counterpart.
	Typo float64
	// ExtraClasses adds that many unrelated class terms to the second
	// ontology beyond the overlap.
	ExtraClasses int
	// Lexicon supplies synonyms for SynonymRename; nil uses the default.
	Lexicon *lexicon.Lexicon
}

// GeneratePair builds two ontologies with a known ground truth: the second
// ontology contains a renamed counterpart for a controlled fraction of the
// first's classes. Truth maps first-ontology terms to their counterparts.
func GeneratePair(ps PairSpec) (o1, o2 *ontology.Ontology, truth map[string]string) {
	lex := ps.Lexicon
	if lex == nil {
		lex = lexicon.DefaultLexicon()
	}
	o1 = Generate(ps.Spec)
	rng := rand.New(rand.NewSource(ps.Seed ^ 0x9e3779b9))

	name2 := ps.Name + "2"
	if ps.Name == "" {
		name2 = "synthetic2"
	}
	o2 = ontology.New(name2)
	truth = make(map[string]string)

	// Counterparts for overlapped classes (classes only: attributes and
	// instances follow their class).
	g1 := o1.Graph()
	var classTerms []string
	for _, term := range o1.Terms() {
		if !strings.Contains(term, "Attr") && !strings.Contains(term, "Inst") {
			classTerms = append(classTerms, term)
		}
	}
	for _, term := range classTerms {
		if rng.Float64() >= ps.Overlap {
			continue
		}
		renamed := renameTerm(rng, lex, term, ps)
		if o2.HasTerm(renamed) {
			renamed = fmt.Sprintf("%sX%d", renamed, len(truth))
		}
		o2.MustAddTerm(renamed)
		truth[term] = renamed
	}
	// Copy structure among counterparts.
	for _, e := range g1.Edges() {
		from, okF := truth[g1.Label(e.From)]
		to, okT := truth[g1.Label(e.To)]
		if okF && okT {
			o2.MustRelate(from, e.Label, to)
		}
	}
	// Unrelated extra terms.
	extra := makeTermNames(rand.New(rand.NewSource(ps.Seed^0x51ed)), ps.ExtraClasses)
	prev := ""
	for _, t := range extra {
		t = "Alt" + t
		if o2.HasTerm(t) {
			continue
		}
		o2.MustAddTerm(t)
		if prev != "" && rng.Float64() < 0.7 {
			o2.MustRelate(t, ontology.SubclassOf, prev)
		}
		prev = t
	}
	return o1, o2, truth
}

// renameTerm applies the pair spec's divergence operators to one term.
func renameTerm(rng *rand.Rand, lex *lexicon.Lexicon, term string, ps PairSpec) string {
	toks := lexicon.Tokens(term)
	changed := false
	for i, tok := range toks {
		if rng.Float64() < ps.SynonymRename {
			if syns := lex.Synonyms(tok); len(syns) > 0 {
				toks[i] = syns[rng.Intn(len(syns))]
				changed = true
			}
		}
	}
	out := ""
	if rng.Float64() < ps.StyleRename {
		out = strings.Join(toks, "_")
		changed = true
	} else {
		for _, tok := range toks {
			out += title(tok)
		}
	}
	if rng.Float64() < ps.Typo && len(out) > 3 {
		i := 1 + rng.Intn(len(out)-2)
		out = out[:i] + out[i+1:] // drop one character
		changed = true
	}
	_ = changed
	return out
}

// MutationKind classifies source-churn operations.
type MutationKind int

// Mutation kinds applied by Mutate.
const (
	MutAddTerm MutationKind = iota
	MutRemoveTerm
	MutAddEdge
	MutRemoveEdge
)

// Mutation records one applied change and the terms it touched.
type Mutation struct {
	Kind    MutationKind
	Touched []string
}

// Mutate applies n random structural changes to o in place and returns
// them. It drives the §5.3 maintenance test
// (articulation.TestFreeChangesLeaveArticulationUnchanged): a change
// outside the articulation's coverage needs no articulation update.
func Mutate(o *ontology.Ontology, n int, seed int64) []Mutation {
	rng := rand.New(rand.NewSource(seed))
	var out []Mutation
	g := o.Graph()
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0: // add term (+ attach edge)
			term := fmt.Sprintf("Churn%dTerm%d", seed&0xff, i)
			if o.HasTerm(term) {
				continue
			}
			o.MustAddTerm(term)
			touched := []string{term}
			if terms := o.Terms(); len(terms) > 1 {
				other := terms[rng.Intn(len(terms))]
				if other != term {
					if err := o.Relate(term, ontology.SubclassOf, other); err == nil {
						touched = append(touched, other)
					}
				}
			}
			out = append(out, Mutation{Kind: MutAddTerm, Touched: touched})
		case 1: // remove a random leaf-ish term
			terms := o.Terms()
			if len(terms) == 0 {
				continue
			}
			t := terms[rng.Intn(len(terms))]
			o.RemoveTerm(t)
			out = append(out, Mutation{Kind: MutRemoveTerm, Touched: []string{t}})
		case 2: // add an edge
			terms := o.Terms()
			if len(terms) < 2 {
				continue
			}
			a := terms[rng.Intn(len(terms))]
			b := terms[rng.Intn(len(terms))]
			if a == b {
				continue
			}
			if err := o.Relate(a, "relatedTo", b); err == nil {
				out = append(out, Mutation{Kind: MutAddEdge, Touched: []string{a, b}})
			}
		case 3: // remove an edge
			edges := g.Edges()
			if len(edges) == 0 {
				continue
			}
			e := edges[rng.Intn(len(edges))]
			from, to := g.Label(e.From), g.Label(e.To)
			if g.DeleteEdge(e) {
				out = append(out, Mutation{Kind: MutRemoveEdge, Touched: []string{from, to}})
			}
		}
	}
	return out
}

// TouchedTerms flattens the union of terms touched by a mutation batch.
func TouchedTerms(ms []Mutation) []string {
	set := make(map[string]struct{})
	for _, m := range ms {
		for _, t := range m.Touched {
			set[t] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	return out
}
