package query

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/articulation"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/rules"
)

// deadWorld builds an engine over sources named names, articulated over
// the first two. Every source's instances carry InstanceOf Item, a
// numeric Val and a Ref to another of its instances; every source but
// dead also carries Tag and Note facts, so dead lacks two of the star
// predicates. It returns the engine and dead's store.
func deadWorld(t testing.TB, rng *rand.Rand, names []string, dead int) (*Engine, *kb.Store) {
	t.Helper()
	sources := make(map[string]*Source, len(names))
	var onts []*ontology.Ontology
	for i, name := range names {
		o := ontology.New(name)
		o.MustAddTerm("Item")
		for _, p := range []string{"Val", "Tag", "Note", "Ref"} {
			o.MustAddTerm(p)
			o.MustRelate("Item", ontology.AttributeOf, p)
		}
		store := kb.New(name)
		n := 6 + rng.Intn(10)
		for k := 0; k < n; k++ {
			inst := fmt.Sprintf("i%d", k)
			if rng.Intn(4) > 0 {
				store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			}
			store.MustAdd(inst, "Val", kb.Number(float64(rng.Intn(20))))
			store.MustAdd(inst, "Ref", kb.Term(fmt.Sprintf("i%d", rng.Intn(n))))
			if i != dead {
				store.MustAdd(inst, "Tag", kb.Term(fmt.Sprintf("T%d", rng.Intn(3))))
				if rng.Intn(2) == 0 {
					store.MustAdd(inst, "Note", kb.String(fmt.Sprintf("n%d", k)))
				}
			}
		}
		sources[name] = &Source{Ont: o, KB: store}
		onts = append(onts, o)
	}
	set, err := rules.ParseSetString(names[0] + ".Item => " + names[1] + ".Item")
	if err != nil {
		t.Fatal(err)
	}
	res, err := articulation.Generate("dart", onts[0], onts[1], set, articulation.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(res.Art, sources)
	if err != nil {
		t.Fatal(err)
	}
	return eng, sources[names[dead]].KB
}

// deadQueries are star and non-star shapes over the dead world: ?x is
// the subject of a step the dead source cannot bind, with and without a
// pushed range (so with and without the semi-join), beside steps on
// other variables and a step that binds ?x as an object.
var deadQueries = []string{
	"SELECT ?x ?p ?t WHERE ?x Val ?p . ?x Tag ?t",
	"SELECT ?x ?p ?t WHERE ?x Val ?p . ?x Tag ?t . FILTER ?p <= 9",
	"SELECT ?x ?p WHERE ?x InstanceOf Item . ?x Val ?p . ?x Note ?n . FILTER ?p < 15",
	"SELECT ?x ?y WHERE ?x Tag ?t . ?y Val ?p . ?y Ref ?x",
	"SELECT ?y ?x ?t WHERE ?y Ref ?x . ?x Tag ?t . ?y Val ?p . FILTER ?p > 3",
	"SELECT ?x ?p WHERE ?x Val ?p . ?x Note ?n . ?x Tag ?t . FILTER ?p >= 2 . FILTER ?p <= 12",
}

// prunedScans counts the scans of source that q's plan prunes because
// their rows cannot join.
func prunedScans(eng *Engine, q Query, source string) int {
	p, _ := eng.cachedPlan(q, eng.validateEpochs())
	n := 0
	for _, st := range p.steps {
		for _, sc := range st.scans {
			if sc.name == source && strings.HasSuffix(sc.why, "cannot join") {
				n++
			}
		}
	}
	return n
}

// TestDeadSourcePruneMatchesSequential is the dead-source prune's
// differential. On seeded two- and three-source worlds where one source
// lacks the Tag and Note predicates, every planned configuration returns
// the Sequential rows. On the same engine, one Tag fact appended to the
// pruned source brings its rows back at the next answer. A world with
// sources "a" and "a.b", whose qualified subjects collide, also returns
// the Sequential rows: there the prune and the semi-join are off.
func TestDeadSourcePruneMatchesSequential(t *testing.T) {
	worlds := [][]string{{"sa", "sb"}, {"sa", "sb", "sc"}}
	pruned := 0
	for seed := int64(0); seed < 8; seed++ {
		for _, names := range worlds {
			rng := rand.New(rand.NewSource(seed))
			dead := rng.Intn(len(names))
			eng, store := deadWorld(t, rng, names, dead)
			for _, text := range deadQueries {
				q := MustParse(text)
				checkPushdownMatchesSequential(t, eng, q)
				pruned += prunedScans(eng, q, names[dead])
			}
			// An append that gives the dead source a Tag un-prunes it.
			q := MustParse(deadQueries[0])
			store.MustAdd("i0", "Tag", kb.Term("T9"))
			checkPushdownMatchesSequential(t, eng, q)
			if n := prunedScans(eng, q, names[dead]); n != 0 {
				t.Fatalf("seed %d %v: %d scans still pruned after the append", seed, names, n)
			}
			res, err := runQuery(eng, q, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			back := false
			for _, row := range res.Rows {
				back = back || row[0].Str == names[dead]+".i0"
			}
			if !back {
				t.Fatalf("seed %d %v: the appended %s.i0 Tag is not in the answer", seed, names, names[dead])
			}
		}
	}
	if pruned == 0 {
		t.Fatalf("no plan pruned a dead source")
	}

	// Collision: a's "b.x" and a.b's "x" both qualify to "a.b.x", so the
	// Val row of a joins the Tag row of a.b although a has no Tag facts
	// and a.b no Val facts.
	oa, oab := ontology.New("a"), ontology.New("a.b")
	ka, kab := kb.New("a"), kb.New("a.b")
	ka.MustAdd("b.x", "Val", kb.Number(1))
	ka.MustAdd("y", "Val", kb.Number(2))
	kab.MustAdd("x", "Tag", kb.Term("T"))
	kab.MustAdd("z", "Tag", kb.Term("U"))
	res, err := articulation.Generate("dart", oa, oab, nil, articulation.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(res.Art, map[string]*Source{"a": {Ont: oa, KB: ka}, "a.b": {Ont: oab, KB: kab}})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{
		"SELECT ?x ?p ?t WHERE ?x Val ?p . ?x Tag ?t",
		"SELECT ?x ?p ?t WHERE ?x Val ?p . ?x Tag ?t . FILTER ?p < 5",
	} {
		q := MustParse(text)
		checkPushdownMatchesSequential(t, eng, q)
		got, err := runQuery(eng, q, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !hasRow(got, "a.b.x", "1", "a.b.T") {
			t.Fatalf("%s: colliding subjects did not join: %v", text, got.Rows)
		}
	}
}
