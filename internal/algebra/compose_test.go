package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/articulation"
	"repro/internal/lexicon"
	"repro/internal/ontology"
	"repro/internal/rules"
	"repro/internal/workload"
)

// chainWork is what a federation of sources costs to build one arrival
// at a time, counted in graph elements written.
type chainWork struct {
	incremental []int // per-arrival articulation work
	remerge     []int // per-arrival re-merge work
	artStored   int   // articulation elements materialised across the chain
	mergeStored int   // elements of the final unified schema
}

// composeChain models a federation sharing a domain core: every source
// carries a renamed copy of the core's shared quarter plus local-only
// terms. Sources join one at a time; each arrival is articulated against
// the existing articulation using cascaded rules routed through
// core-named articulation terms (§4.2's composition), so the
// articulation vocabulary stays the shared core. The global-merge
// baseline rebuilds a unified schema at every arrival.
func composeChain(t *testing.T, nSources int) chainWork {
	t.Helper()
	const classes = 80
	core := workload.Generate(workload.Spec{Name: "core", Classes: classes, AttrsPerClass: 0.3, Seed: 101})
	shared := core.Terms()[:core.NumTerms()/4]

	// Build the sources: renamed shared subset + structure + local terms.
	lex := lexicon.DefaultLexicon()
	sources := make([]*ontology.Ontology, 0, nSources)
	truths := make([]map[string]string, 0, nSources) // core term → source term
	for i := 1; i <= nSources; i++ {
		name := fmt.Sprintf("s%d", i)
		src := ontology.New(name)
		truth := make(map[string]string, len(shared))
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		for _, term := range shared {
			renamed := term
			if syns := lex.Synonyms(lexicon.HeadToken(term)); len(syns) > 0 && rng.Float64() < 0.4 {
				renamed = term + "_" + syns[rng.Intn(len(syns))]
			}
			if src.HasTerm(renamed) {
				renamed = fmt.Sprintf("%sv%d", renamed, i)
			}
			src.MustAddTerm(renamed)
			truth[term] = renamed
		}
		g := core.Graph()
		for _, e := range g.Edges() {
			from, okF := truth[g.Label(e.From)]
			to, okT := truth[g.Label(e.To)]
			if okF && okT {
				src.MustRelate(from, e.Label, to)
			}
		}
		for j := 0; j < classes/2; j++ {
			term := fmt.Sprintf("%sLocal%d", name, j)
			src.MustAddTerm(term)
			if j > 0 {
				src.MustRelate(term, ontology.SubclassOf, fmt.Sprintf("%sLocal%d", name, j-1))
			}
		}
		sources = append(sources, src)
		truths = append(truths, truth)
	}

	var out chainWork
	// Articulation chain: each arrival articulates against the previous
	// articulation through cascaded rules art.coreTerm in the middle, so
	// articulation terms keep their core names and stay composable.
	left := sources[0]
	leftTruth := truths[0] // core term → left term
	for i := 1; i < len(sources); i++ {
		artName := fmt.Sprintf("a%d", i)
		set := rules.NewSet()
		for _, term := range shared {
			l, okL := leftTruth[term]
			r, okR := truths[i][term]
			if !okL || !okR || !left.HasTerm(l) {
				continue
			}
			set.Add(rules.Chain(
				rules.NewStep(rules.Single, ontology.MakeRef(left.Name(), l)),
				rules.NewStep(rules.Single, ontology.MakeRef(artName, term)),
				rules.NewStep(rules.Single, ontology.MakeRef(sources[i].Name(), r)),
			))
		}
		res, err := articulation.Generate(artName, left, sources[i], set, articulation.Options{Lenient: true})
		if err != nil {
			t.Fatal(err)
		}
		work := res.Art.Ont.NumTerms() + res.Art.Ont.NumRelationships() + len(res.Art.Bridges)
		out.artStored += work
		out.incremental = append(out.incremental, work)
		left = res.Art.Ont
		// The articulation's terms are core terms now.
		next := make(map[string]string, len(shared))
		for _, term := range shared {
			if left.HasTerm(term) {
				next[term] = term
			}
		}
		leftTruth = next
	}

	// Global merge: one qualified union of everything, rebuilt from
	// scratch at each arrival (the global-schema maintenance story).
	for upto := 2; upto <= len(sources); upto++ {
		merged := ontology.New("global")
		work := 0
		for _, src := range sources[:upto] {
			g := Qualify(src).Graph()
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
		out.mergeStored = merged.NumTerms() + merged.NumRelationships()
	}
	return out
}

// TestCompositionVsGlobalMerge checks the scalability claim of §1 and
// §4.2's incremental composition: a source joining a federation costs
// the articulation the same work whatever the federation's size, while
// re-merging a global schema grows with it, and the articulations of the
// whole chain store less than the merged schema.
func TestCompositionVsGlobalMerge(t *testing.T) {
	small, large := composeChain(t, 4), composeChain(t, 8)
	lastArt := func(w chainWork) int { return w.incremental[len(w.incremental)-1] }
	lastMerge := func(w chainWork) int { return w.remerge[len(w.remerge)-1] }
	t.Logf("last arrival: articulation %d/%d, re-merge %d/%d; stored articulation %d/%d, merge %d/%d (4/8 sources)",
		lastArt(small), lastArt(large), lastMerge(small), lastMerge(large),
		small.artStored, large.artStored, small.mergeStored, large.mergeStored)

	if lastArt(small) != lastArt(large) {
		t.Errorf("articulation arrival work not flat: %d at 4 sources, %d at 8", lastArt(small), lastArt(large))
	}
	if lastMerge(large) <= lastMerge(small) {
		t.Errorf("re-merge work did not grow: %d at 4 sources, %d at 8", lastMerge(small), lastMerge(large))
	}
	for _, w := range []chainWork{small, large} {
		if lastArt(w) >= lastMerge(w) {
			t.Errorf("articulation arrival work %d not below re-merge work %d", lastArt(w), lastMerge(w))
		}
		if w.artStored >= w.mergeStored {
			t.Errorf("articulations store %d elements, not less than the merged schema's %d", w.artStored, w.mergeStored)
		}
	}
}
