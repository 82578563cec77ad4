package bench

import (
	"fmt"

	"repro/internal/articulation"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/query"
	"repro/internal/rules"
)

// e12Preds are the fact predicates of the join world, in WHERE order
// after the leading InstanceOf conjunct.
var e12Preds = []string{"Price", "Qty", "Region", "Batch"}

// buildJoinWorld makes an n-source federation where every instance
// carries a value under each predicate, and a query of nt conjuncts all
// keyed on ?x — the join frontier stays at n·instances rows through
// every step, so execution cost is the joins, not scan selectivity.
// Returns the engine, the query and the facts per source.
func buildJoinWorld(n, instances, nt int) (*query.Engine, query.Query, int) {
	if n < 2 {
		panic("join world needs at least two sources")
	}
	if nt < 2 || nt > len(e12Preds)+1 {
		panic(fmt.Sprintf("join world supports 2..%d triples", len(e12Preds)+1))
	}
	sources := make(map[string]*query.Source, n)
	var onts []*ontology.Ontology
	facts := 0
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("j%d", i)
		o := ontology.New(name)
		o.MustAddTerm("Item")
		for _, p := range e12Preds {
			o.MustAddTerm(p)
			o.MustRelate("Item", ontology.AttributeOf, p)
		}
		store := kb.New(name)
		rng := newRand(int64(12000 + i))
		for k := 0; k < instances; k++ {
			inst := fmt.Sprintf("%sI%d", name, k)
			store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			store.MustAdd(inst, "Price", kb.Number(float64(50+rng.Intn(400))))
			store.MustAdd(inst, "Qty", kb.Number(float64(1+rng.Intn(90))))
			store.MustAdd(inst, "Region", kb.Term(fmt.Sprintf("R%d", rng.Intn(8))))
			store.MustAdd(inst, "Batch", kb.Number(float64(rng.Intn(50))))
		}
		facts = store.Len()
		sources[name] = &query.Source{Ont: o, KB: store}
		onts = append(onts, o)
	}
	set := rules.NewSet(rules.MustParse("j1.Item => j2.Item"))
	res, err := articulation.Generate("joinart", onts[0], onts[1], set, articulation.Options{Lenient: true})
	if err != nil {
		panic(err)
	}
	eng, err := query.NewEngine(res.Art, sources)
	if err != nil {
		panic(err)
	}
	where := "?x InstanceOf Item"
	for i := 0; i < nt-1; i++ {
		where += fmt.Sprintf(" . ?x %s ?v%d", e12Preds[i], i)
	}
	q := query.MustParse("SELECT ?x ?v0 WHERE " + where + " . FILTER ?v0 > 100")
	return eng, q, facts
}
