// Package bench is test-only: it builds synthetic multi-source query
// worlds and checks the planned executor against the sequential
// reference on each of them (determinism_test.go), bounds the chain
// world's accounted memory under a cap, and benchmarks the executors on
// the same worlds (perf_test.go). paper_test.go checks the paper's
// Fig. 2 articulation, the Fig. 1 pipeline, the light inference engine
// and the planned executor on the fan-out world end to end.
// Served-system numbers come from benchmark/, which drives the real
// daemon.
package bench

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"repro/internal/articulation"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/workload"
)

// buildQueryWorld makes a two-source world with instances and prices, an
// articulation with a currency conversion, and returns the engine plus an
// articulation-level and a source-qualified class term for querying.
func buildQueryWorld(classes int) (*query.Engine, string, string) {
	o1, o2, truth := workload.GeneratePair(workload.PairSpec{
		Spec:         workload.Spec{Name: "q1", Classes: classes, AttrsPerClass: 0.2, Seed: int64(classes) * 7},
		Overlap:      0.5,
		ExtraClasses: classes / 4,
	})
	o2.SetName("q2")
	// Price attributes on both sides.
	for _, o := range []*ontology.Ontology{o1, o2} {
		if !o.HasTerm("Price") {
			o.MustAddTerm("Price")
		}
	}
	set := rules.NewSet()
	lefts := slices.Sorted(maps.Keys(truth))
	for _, l := range lefts {
		set.Add(rules.Implication(ontology.MakeRef(o1.Name(), l), ontology.MakeRef(o2.Name(), truth[l])))
	}
	set.Add(rules.MustParse("QObToEuro() : " + o1.Name() + ".Price => qart.Price"))
	funcs := articulation.NewFuncRegistry()
	if err := funcs.RegisterLinear("QObToEuro", "", 1.5, 0); err != nil {
		panic(err)
	}
	res, err := articulation.Generate("qart", o1, o2, set, articulation.Options{Lenient: true, Funcs: funcs})
	if err != nil {
		panic(err)
	}

	// Instances beneath both sources: spread across classes.
	kb1, kb2 := kb.New(o1.Name()), kb.New(o2.Name())
	fill := func(store *kb.Store, o *ontology.Ontology, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		terms := o.Terms()
		for i := 0; i < o.NumTerms()*2; i++ {
			class := terms[rng.Intn(len(terms))]
			inst := fmt.Sprintf("%sI%d", o.Name(), i)
			store.MustAdd(inst, "InstanceOf", kb.Term(class))
			store.MustAdd(inst, "Price", kb.Number(float64(100+i)))
		}
	}
	fill(kb1, o1, 11)
	fill(kb2, o2, 12)

	eng, err := query.NewEngine(res.Art, map[string]*query.Source{
		o1.Name(): {Ont: o1, KB: kb1},
		o2.Name(): {Ont: o2, KB: kb2},
	})
	if err != nil {
		panic(err)
	}
	// The first planted pair: its right term is the articulation
	// namesake of the rule's consequent.
	return eng, truth[lefts[0]], o1.Name() + "." + lefts[0]
}

// buildFanoutWorld makes an n-source federation sharing the vocabulary
// {Item, Price, Status}: every source carries a local class tree under
// Item plus a KB of instances with prices, free-text notes (scan noise
// the predicate index skips) and a sparse Status marker (the selective
// triple the planner should move first). The articulation spans the
// first two sources; the remaining sources join the engine by namesake
// vocabulary, exactly the per-source fan-out the executor parallelises.
func buildFanoutWorld(n, instances int) (*query.Engine, query.Query) {
	if n < 2 {
		panic("fanout world needs at least two sources")
	}
	sources := make(map[string]*query.Source, n)
	var onts []*ontology.Ontology
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("s%d", i)
		o := ontology.New(name)
		o.MustAddTerm("Item")
		o.MustAddTerm("Price")
		o.MustAddTerm("Status")
		o.MustRelate("Item", ontology.AttributeOf, "Price")
		for j := 0; j < 40; j++ {
			term := fmt.Sprintf("%sClass%d", name, j)
			o.MustAddTerm(term)
			if j == 0 {
				o.MustRelate(term, ontology.SubclassOf, "Item")
			} else {
				o.MustRelate(term, ontology.SubclassOf, fmt.Sprintf("%sClass%d", name, j-1))
			}
		}
		store := kb.New(name)
		rng := rand.New(rand.NewSource(int64(9000 + i)))
		for k := 0; k < instances; k++ {
			inst := fmt.Sprintf("%sI%d", name, k)
			store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			store.MustAdd(inst, "Price", kb.Number(float64(50+rng.Intn(200))))
			store.MustAdd(inst, "Note", kb.String(fmt.Sprintf("lot %d of %s", k, name)))
			if k%5 == 0 {
				store.MustAdd(inst, "Status", kb.String("active"))
			}
		}
		sources[name] = &query.Source{Ont: o, KB: store}
		onts = append(onts, o)
	}
	set := rules.NewSet(rules.MustParse("s1.Item => s2.Item"))
	res, err := articulation.Generate("fanart", onts[0], onts[1], set, articulation.Options{Lenient: true})
	if err != nil {
		panic(err)
	}
	eng, err := query.NewEngine(res.Art, sources)
	if err != nil {
		panic(err)
	}
	q := query.MustParse(`SELECT ?x ?p WHERE ?x InstanceOf Item . ?x Price ?p . ?x Status "active" . FILTER ?p > 100`)
	return eng, q
}

// joinWorldPreds are the fact predicates of the join world, in WHERE
// order after the leading InstanceOf conjunct.
var joinWorldPreds = []string{"Price", "Qty", "Region", "Batch"}

// buildJoinWorld makes an n-source federation where every instance
// carries a value under each predicate, and a query of nt conjuncts all
// keyed on ?x — the join frontier stays at n·instances rows through
// every step, so execution cost is the joins, not scan selectivity.
func buildJoinWorld(n, instances, nt int) (*query.Engine, query.Query) {
	if n < 2 {
		panic("join world needs at least two sources")
	}
	if nt < 2 || nt > len(joinWorldPreds)+1 {
		panic(fmt.Sprintf("join world supports 2..%d triples", len(joinWorldPreds)+1))
	}
	sources := make(map[string]*query.Source, n)
	var onts []*ontology.Ontology
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("j%d", i)
		o := ontology.New(name)
		o.MustAddTerm("Item")
		for _, p := range joinWorldPreds {
			o.MustAddTerm(p)
			o.MustRelate("Item", ontology.AttributeOf, p)
		}
		store := kb.New(name)
		rng := rand.New(rand.NewSource(int64(12000 + i)))
		for k := 0; k < instances; k++ {
			inst := fmt.Sprintf("%sI%d", name, k)
			store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			store.MustAdd(inst, "Price", kb.Number(float64(50+rng.Intn(400))))
			store.MustAdd(inst, "Qty", kb.Number(float64(1+rng.Intn(90))))
			store.MustAdd(inst, "Region", kb.Term(fmt.Sprintf("R%d", rng.Intn(8))))
			store.MustAdd(inst, "Batch", kb.Number(float64(rng.Intn(50))))
		}
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
		where += fmt.Sprintf(" . ?x %s ?v%d", joinWorldPreds[i], i)
	}
	q := query.MustParse("SELECT ?x ?v0 WHERE " + where + " . FILTER ?v0 > 100")
	return eng, q
}

// Parameters of the deep-chain world (and of the bounded-memory test):
// a 32-source federation whose query is a chain of keyed joins, each
// conjunct fanning the frontier out by chainDup values per instance —
// the shape where cross-step streaming matters most (without it the
// frontier regrows, gets re-partitioned and re-indexed at every step).
const (
	chainSources   = 32
	chainInstances = 80
	chainDup       = 3
	// chainWorkers forces a real scan pool, so the tests and benchmarks
	// on this world overlap their scans and are meaningful on
	// single-core CI runners too.
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
		rng := rand.New(rand.NewSource(int64(13000 + i)))
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
