package bench

import (
	"fmt"
	"runtime"

	"repro/internal/articulation"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/query"
	"repro/internal/rules"
)

// fanoutInstances is how many instances each E11 source carries.
const fanoutInstances = 2000

// E11ParallelQuery compares the sequential reference execution path
// (textual join order, unindexed full scans, no plan cache) against the
// planned path (selectivity-ordered hash joins, indexed scans, cached
// plans, worker-pool scan fan-out) as the number of sources grows — the
// multi-source fan-out the articulation model invites.
func E11ParallelQuery(ns []int) *Table {
	if ns == nil {
		ns = []int{2, 4, 8, 16, 32}
	}
	t := &Table{
		Columns: []string{"sources", "facts/src", "rows", "seq ms", "planned ms",
			"speedup", "reordered", "identical"},
		Notes: []string{
			fmt.Sprintf("query: 3 triples + filter over %d instances per source; workers = GOMAXPROCS (%d here)",
				fanoutInstances, runtime.GOMAXPROCS(0)),
			"planned ms is the warm path (plan cache hit); identical checks byte-equal rows",
		},
	}
	const reps = 3
	for _, n := range ns {
		eng, q, factsPerSrc := buildFanoutWorld(n, fanoutInstances)
		seq := query.Options{Sequential: true}
		par := query.Options{}

		var resSeq, resPar *query.Result
		var err error
		dSeq := timeIt(func() {
			for i := 0; i < reps; i++ {
				if resSeq, err = eng.ExecuteWith(q, seq); err != nil {
					panic(err)
				}
			}
		}) / reps
		// One cold run compiles and caches the plan; the timed runs are
		// the steady state a query-serving deployment lives in.
		if resPar, err = eng.ExecuteWith(q, par); err != nil {
			panic(err)
		}
		dPar := timeIt(func() {
			for i := 0; i < reps; i++ {
				if resPar, err = eng.ExecuteWith(q, par); err != nil {
					panic(err)
				}
			}
		}) / reps
		speedup := 0.0
		if dPar > 0 {
			speedup = float64(dSeq) / float64(dPar)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", factsPerSrc),
			fmt.Sprintf("%d", len(resPar.Rows)),
			ms(dSeq), ms(dPar),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%d", resPar.Stats.ReorderedTriples),
			okMark(resSeq.EqualRows(resPar)),
		})
	}
	return t
}

// buildFanoutWorld makes an n-source federation sharing the vocabulary
// {Item, Price, Status}: every source carries a local class tree under
// Item plus a KB of instances with prices, free-text notes (scan noise
// the predicate index skips) and a sparse Status marker (the selective
// triple the planner should move first). The articulation spans the
// first two sources; the remaining sources join the engine by namesake
// vocabulary, exactly the per-source fan-out the executor parallelises.
// Returns the engine, the benchmark query and the facts per source.
func buildFanoutWorld(n, instances int) (*query.Engine, query.Query, int) {
	if n < 2 {
		panic("fanout world needs at least two sources")
	}
	sources := make(map[string]*query.Source, n)
	var onts []*ontology.Ontology
	facts := 0
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
		rng := newRand(int64(9000 + i))
		for k := 0; k < instances; k++ {
			inst := fmt.Sprintf("%sI%d", name, k)
			store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			store.MustAdd(inst, "Price", kb.Number(float64(50+rng.Intn(200))))
			store.MustAdd(inst, "Note", kb.String(fmt.Sprintf("lot %d of %s", k, name)))
			if k%5 == 0 {
				store.MustAdd(inst, "Status", kb.String("active"))
			}
		}
		facts = store.Len()
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
	return eng, q, facts
}
