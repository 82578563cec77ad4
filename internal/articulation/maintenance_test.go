package articulation_test

import (
	"slices"
	"testing"

	"repro/internal/articulation"
	"repro/internal/ontology"
	"repro/internal/rules"
	"repro/internal/workload"
)

// shape is what a source change could alter in an articulation: its
// bridge set and the size of its ontology.
type shape struct {
	bridges      []string
	terms, edges int
}

func shapeOf(a *articulation.Articulation) shape {
	s := shape{terms: a.Ont.NumTerms(), edges: a.Ont.NumRelationships()}
	for _, b := range a.Bridges {
		s.bridges = append(s.bridges, b.String())
	}
	slices.Sort(s.bridges)
	return s
}

func (s shape) equal(o shape) bool {
	return s.terms == o.terms && s.edges == o.edges && slices.Equal(s.bridges, o.bridges)
}

// TestFreeChangesLeaveArticulationUnchanged checks §5.3: "if a change to
// a source ontology ... occurs in the difference of O1 with other
// ontologies, no change needs to occur in any of the articulation
// ontologies". At low, medium and high coverage, one source churns one
// mutation at a time; after each, the articulation is regenerated, and
// whenever AssessChange called the change free the regenerated
// articulation must be the one before the change. The share of changes
// that need an update must track coverage.
func TestFreeChangesLeaveArticulationUnchanged(t *testing.T) {
	const steps = 60
	prevShare := 0.0
	for _, overlap := range []float64{0.1, 0.5, 0.9} {
		o1, o2, truth := workload.GeneratePair(workload.PairSpec{
			Spec:         workload.Spec{Name: "m1", Classes: 120, AttrsPerClass: 0.3, Seed: 77},
			Overlap:      overlap,
			ExtraClasses: 40,
		})
		set := rules.NewSet()
		for l, r := range truth {
			set.Add(rules.Implication(ontology.MakeRef(o1.Name(), l), ontology.MakeRef(o2.Name(), r)))
		}
		res, err := articulation.Generate("artm", o1, o2, set, articulation.Options{Lenient: true})
		if err != nil {
			t.Fatal(err)
		}
		art := res.Art
		free, affected, changed := 0, 0, 0
		for i := 0; i < steps; i++ {
			muts := workload.Mutate(o1, 1, int64(555+i))
			if len(muts) == 0 {
				continue
			}
			impact := art.AssessChange(o1.Name(), muts[0].Touched)
			next, err := art.Regenerate(o1, o2, articulation.Options{})
			if err != nil {
				t.Fatal(err)
			}
			before, after := shapeOf(art), shapeOf(next.Art)
			switch {
			case impact.NeedsUpdate():
				affected++
				if !after.equal(before) {
					changed++
				}
			case !after.equal(before):
				t.Fatalf("overlap %.1f step %d: free change %+v altered the articulation (%d→%d terms, %d→%d edges, %d→%d bridges)",
					overlap, i, muts[0], before.terms, after.terms, before.edges, after.edges, len(before.bridges), len(after.bridges))
			default:
				free++
			}
			art = next.Art
		}
		if free == 0 {
			t.Errorf("overlap %.1f: no free change among %d steps", overlap, steps)
		}
		t.Logf("overlap %.1f: %d free changes left the articulation unchanged; %d of %d affected changes altered it",
			overlap, free, changed, affected)
		share := float64(affected) / float64(free+affected)
		if share < prevShare {
			t.Errorf("overlap %.1f: affected share %.2f fell below %.2f at lower coverage", overlap, share, prevShare)
		}
		prevShare = share
	}
}
