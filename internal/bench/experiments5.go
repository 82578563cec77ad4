package bench

import (
	"fmt"

	"repro/internal/articulation"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/query"
	"repro/internal/rules"
)

// Parameters of the deep-chain world (E15, and the frozen E13): a
// 32-source federation whose query is a chain of keyed joins, each
// conjunct fanning the frontier out by chainDup values per instance —
// the shape where cross-step streaming matters most (without it the
// frontier regrows, gets re-partitioned and re-indexed at every step).
const (
	chainSources   = 32
	chainInstances = 80
	chainDup       = 3
	// chainWorkers forces a real pool, so the experiments on this world
	// run the pipeline rather than the inline joins and are meaningful
	// on single-core CI runners too.
	chainWorkers = 8
)

// chainWorldPreds are the fact predicates of the chain world, in WHERE
// order after the leading InstanceOf conjunct.
var chainWorldPreds = []string{"L1", "L2", "L3", "L4", "L5"}

// buildChainWorld makes an n-source federation where every instance
// carries dup values under each of the first nt-1 chain predicates, and
// a query chaining nt conjuncts on ?x — the frontier multiplies by dup
// at every join step, so each step's output is substantially wider than
// its scan input.
// Returns the engine and the query.
func buildChainWorld(n, instances, nt, dup int) (*query.Engine, query.Query) {
	if n < 2 {
		panic("chain world needs at least two sources")
	}
	if nt < 2 || nt > len(chainWorldPreds)+1 {
		panic(fmt.Sprintf("chain world supports 2..%d triples", len(chainWorldPreds)+1))
	}
	sources := make(map[string]*query.Source, n)
	var onts []*ontology.Ontology
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("c%d", i)
		o := ontology.New(name)
		o.MustAddTerm("Item")
		for _, p := range chainWorldPreds {
			o.MustAddTerm(p)
			o.MustRelate("Item", ontology.AttributeOf, p)
		}
		store := kb.New(name)
		rng := newRand(int64(13000 + i))
		for k := 0; k < instances; k++ {
			inst := fmt.Sprintf("%sI%d", name, k)
			store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			for pi, p := range chainWorldPreds {
				for d := 0; d < dup; d++ {
					store.MustAdd(inst, p, kb.Number(float64(pi*1000+rng.Intn(400)*dup+d)))
				}
			}
		}
		sources[name] = &query.Source{Ont: o, KB: store}
		onts = append(onts, o)
	}
	set := rules.NewSet(rules.MustParse("c1.Item => c2.Item"))
	res, err := articulation.Generate("chainart", onts[0], onts[1], set, articulation.Options{Lenient: true})
	if err != nil {
		panic(err)
	}
	eng, err := query.NewEngine(res.Art, sources)
	if err != nil {
		panic(err)
	}
	where := "?x InstanceOf Item"
	for i := 0; i < nt-1; i++ {
		where += fmt.Sprintf(" . ?x %s ?v%d", chainWorldPreds[i], i)
	}
	q := query.MustParse("SELECT ?x ?v0 WHERE " + where)
	return eng, q
}
