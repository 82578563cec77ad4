package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/articulation"
	"repro/internal/fixtures"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/query/mem"
	"repro/internal/rules"
)

// pdConv is the conversion a pushdown world attaches to one source's Val
// predicate.
type pdConv uint8

const (
	pdIdentity    pdConv = iota // no functional bridge: values pass raw
	pdLinear                    // RegisterLinear, positive factor
	pdNegLinear                 // RegisterLinear, negative factor and an offset
	pdOpaque                    // a plain Register function (non-monotone, partial)
	pdOpaqueFirst               // two bridges on Val, the first opaque, the second linear
	pdConvKinds
)

func (c pdConv) String() string {
	return [...]string{"identity", "linear", "neg-linear", "opaque", "opaque-first"}[c]
}

// pdFuncs registers every conversion a pushdown world can use. The
// second source's linear bridges go through the inverse names, so both
// directions' declared coefficients are exercised.
func pdFuncs() *articulation.FuncRegistry {
	reg := articulation.NewFuncRegistry()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(reg.RegisterLinear("LinFn", "LinInv", 1.6, 0))
	must(reg.RegisterLinear("NegFn", "NegInv", -2.5, 7.25))
	must(reg.RegisterLinear("BLinFn", "BLinInv", 0.5, 1))
	// Non-monotone and partial: a pushed range through it would be wrong,
	// and the values it refuses pass raw.
	must(reg.Register("OpqFn", func(v float64) (float64, error) {
		if math.Abs(v) > 1e6 {
			return 0, fmt.Errorf("out of range")
		}
		return v * v, nil
	}))
	// Sorted ahead of BLinFn on the same predicate; refuses negatives, so
	// those fall through to the linear candidate.
	must(reg.Register("AOpqFn", func(v float64) (float64, error) {
		if !(v >= 0) {
			return 0, fmt.Errorf("negative")
		}
		return math.Sqrt(v), nil
	}))
	return reg
}

// pdRules returns the functional rules attaching kind to src.Val.
func pdRules(src string, kind pdConv) []string {
	inv := src == "pd2"
	pick := func(fwd, back string) string {
		if inv {
			return back
		}
		return fwd
	}
	rule := func(fn string) string { return fn + "() : " + src + ".Val => pdart.Val" }
	switch kind {
	case pdLinear:
		return []string{rule(pick("LinFn", "LinInv"))}
	case pdNegLinear:
		return []string{rule(pick("NegFn", "NegInv"))}
	case pdOpaque:
		return []string{rule("OpqFn")}
	case pdOpaqueFirst:
		return []string{rule("AOpqFn"), rule(pick("BLinFn", "BLinInv"))}
	}
	return nil
}

// pdEdgeValues are the numbers every pushdown world draws from: signed
// zeros, NaN, infinities, subnormals and the extremes of the normals.
var pdEdgeValues = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
	1, -1, 1.5, 2.9, 7.25, 100, -100, 1e300, -1e300, math.MaxFloat64,
}

// pdThresholds are the articulation-unit constants the filters compare
// against; every world also carries each one's source-unit preimage and
// its neighbours one ulp either side.
var pdThresholds = []float64{0, math.Copysign(0, -1), 1, 1.6, 4, 100, -7, 1e-310, 5e-324, math.Inf(1), math.Inf(-1), 1e300}

// pdWorld is a two-source world whose Val facts carry values, converted
// into pdart.Val by the given kinds.
type pdWorld struct {
	convs  [2]pdConv
	values [2][]kb.Value
}

// newPDWorld draws a world from rng: a random subset of the edge values,
// the preimages of the thresholds, and a few non-numeric objects.
func newPDWorld(rng *rand.Rand, c1, c2 pdConv) pdWorld {
	w := pdWorld{convs: [2]pdConv{c1, c2}}
	reg := pdFuncs()
	for i, c := range w.convs {
		var vals []float64
		for _, v := range pdEdgeValues {
			if rng.Intn(3) > 0 {
				vals = append(vals, v)
			}
		}
		// The preimage of a threshold under the source's first conversion,
		// when that is linear, and one ulp either side of it.
		fn := ""
		if r := pdRules(fmt.Sprintf("pd%d", i+1), c); len(r) > 0 {
			fn = strings.SplitN(r[0], "()", 2)[0]
		}
		for _, th := range pdThresholds {
			x := th
			if f, o, ok := reg.Linear(fn); ok {
				x = (th - o) / f
			}
			vals = append(vals, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
		}
		for _, v := range vals {
			w.values[i] = append(w.values[i], kb.Number(v))
		}
		w.values[i] = append(w.values[i], kb.Term("Five"), kb.String("5"), kb.String("1.6"))
	}
	return w
}

// engine builds the world: per source, one instance per value (every
// third one lacking its InstanceOf fact, every fourth carrying a second
// Val), each with a Tag term, under articulation pdart.
func (w pdWorld) engine(t testing.TB) *Engine {
	t.Helper()
	var onts []*ontology.Ontology
	sources := make(map[string]*Source, 2)
	ruleText := []string{"pd1.Item => pd2.Item"}
	for i := range w.convs {
		name := fmt.Sprintf("pd%d", i+1)
		o := ontology.New(name)
		o.MustAddTerm("Item")
		for _, p := range []string{"Val", "Tag"} {
			o.MustAddTerm(p)
			o.MustRelate("Item", ontology.AttributeOf, p)
		}
		store := kb.New(name)
		vals := w.values[i]
		for k, v := range vals {
			inst := fmt.Sprintf("%sI%d", name, k)
			if k%3 != 2 {
				store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			}
			store.MustAdd(inst, "Val", v)
			if k%4 == 3 {
				store.MustAdd(inst, "Val", vals[(k*7)%len(vals)])
			}
			store.MustAdd(inst, "Tag", kb.Term(fmt.Sprintf("T%d", k%3)))
		}
		sources[name] = &Source{Ont: o, KB: store}
		onts = append(onts, o)
		ruleText = append(ruleText, pdRules(name, w.convs[i])...)
	}
	set, err := rules.ParseSetString(strings.Join(ruleText, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := articulation.Generate("pdart", onts[0], onts[1], set, articulation.Options{Funcs: pdFuncs(), Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(res.Art, sources)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// pdShapes are the WHERE clauses the filters ride on: a bare scan, the
// class join, and a join whose second step the sideways semi-join binds.
var pdShapes = []struct {
	sel   []string
	where string
}{
	{[]string{"x", "p"}, "?x Val ?p"},
	{[]string{"x", "p"}, "?x InstanceOf Item . ?x Val ?p"},
	{[]string{"x", "p", "t"}, "?x Val ?p . ?x Tag ?t"},
}

func pdQuery(shape int, fs ...Filter) Query {
	s := pdShapes[shape]
	q := MustParse("SELECT ?" + strings.Join(s.sel, " ?") + " WHERE " + s.where)
	q.Filters = fs
	return q
}

// pdOptions are the planned executions every pushdown query is checked
// under.
var pdOptions = []Options{{Workers: 1}, {Workers: 4}, {Workers: 4, MemoryLimit: 16 << 10}}

// checkPushdownMatchesSequential runs q on every planned configuration
// and compares the rows with the Sequential reference, which never
// pushes.
func checkPushdownMatchesSequential(t *testing.T, eng *Engine, q Query) {
	t.Helper()
	want, err := runQuery(eng, q, Options{Sequential: true})
	if err != nil {
		t.Fatalf("%s: sequential: %v", q, err)
	}
	for _, opts := range pdOptions {
		got, err := runQuery(eng, q, opts)
		if err != nil {
			t.Fatalf("%s %+v: %v", q, opts, err)
		}
		if !want.EqualRows(got) {
			t.Fatalf("%s %+v: planned rows diverged from sequential: %d rows, want %d\n got %v\nwant %v",
				q, opts, len(got.Rows), len(want.Rows), got.Rows[:min(8, len(got.Rows))], want.Rows[:min(8, len(want.Rows))])
		}
	}
}

// pushedRanges returns the pushed range of every scan that binds ?p, by
// source, from Explain.
func pushedRanges(t *testing.T, eng *Engine, q Query) map[string]string {
	t.Helper()
	plan, _, err := eng.Explain(context.Background(), q, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, tp := range plan.Triples {
		if !strings.HasSuffix(tp.Triple, " ?p") {
			continue
		}
		for _, sc := range tp.Scans {
			if !sc.Skipped {
				out[sc.Source] = sc.Range
			}
		}
	}
	return out
}

func num(v float64) kb.Value { return kb.Number(v) }

// TestPushdownEdgeCases is the named-edge-case table of the pushdown
// differential: each case pins a world, a filter set and whether the
// first source's scan is pushed, and every configuration must return the
// Sequential rows.
func TestPushdownEdgeCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// One ulp either side of LinFn's preimage of 4 EUR.
	x4 := 4 / 1.6
	cases := []struct {
		name   string
		convs  [2]pdConv
		shape  int
		fs     []Filter
		pushed bool
	}{
		{"identity < 0 excludes -0", [2]pdConv{pdIdentity, pdIdentity}, 0, []Filter{{"p", OpLT, num(0)}}, true},
		{"identity >= -0 keeps +0", [2]pdConv{pdIdentity, pdIdentity}, 0, []Filter{{"p", OpGE, num(negZero)}}, true},
		{"identity = 0 matches -0", [2]pdConv{pdIdentity, pdLinear}, 1, []Filter{{"p", OpEQ, num(0)}}, true},
		{"subnormal > 0", [2]pdConv{pdIdentity, pdIdentity}, 0, []Filter{{"p", OpGT, num(0)}, {"p", OpLE, num(1e-300)}}, true},
		{"subnormal threshold", [2]pdConv{pdLinear, pdNegLinear}, 0, []Filter{{"p", OpLT, num(5e-324)}}, true},
		{"only +Inf", [2]pdConv{pdIdentity, pdIdentity}, 0, []Filter{{"p", OpGE, num(math.Inf(1))}}, true},
		// Every value past MaxFloat64/1.6 converts to +Inf, so no bound
		// within a few ulps of the inverse image fails: not pushed.
		{"+Inf through an overflowing conversion", [2]pdConv{pdLinear, pdIdentity}, 0, []Filter{{"p", OpGE, num(math.Inf(1))}}, false},
		{"all but -Inf", [2]pdConv{pdNegLinear, pdLinear}, 0, []Filter{{"p", OpGT, num(math.Inf(-1))}}, true},
		{"NaN constant passes nothing", [2]pdConv{pdLinear, pdIdentity}, 1, []Filter{{"p", OpLT, num(math.NaN())}}, true},
		{"NaN constant with != passes numbers", [2]pdConv{pdLinear, pdIdentity}, 1, []Filter{{"p", OpNE, num(math.NaN())}}, false},
		{"ulp below converted threshold", [2]pdConv{pdLinear, pdLinear}, 0, []Filter{{"p", OpLT, num(math.Nextafter(x4*1.6, 0))}}, true},
		{"at converted threshold", [2]pdConv{pdLinear, pdLinear}, 2, []Filter{{"p", OpLE, num(x4 * 1.6)}}, true},
		{"ulp above converted threshold", [2]pdConv{pdLinear, pdLinear}, 1, []Filter{{"p", OpGT, num(math.Nextafter(x4*1.6, 10))}}, true},
		{"negative factor range", [2]pdConv{pdNegLinear, pdNegLinear}, 2, []Filter{{"p", OpGT, num(-7)}, {"p", OpLE, num(4)}}, true},
		{"negative factor equality", [2]pdConv{pdNegLinear, pdIdentity}, 0, []Filter{{"p", OpEQ, num(-7)}}, true},
		// Around x = 0 the offset absorbs -2.5x for thousands of ulps, so
		// the boundary does not settle: not pushed.
		{"cancellation at the offset", [2]pdConv{pdNegLinear, pdIdentity}, 2, []Filter{{"p", OpEQ, num(7.25)}}, false},
		{"empty intersection", [2]pdConv{pdLinear, pdIdentity}, 2, []Filter{{"p", OpGT, num(5)}, {"p", OpLT, num(3)}}, true},
		{"string object equal to the constant's text", [2]pdConv{pdIdentity, pdIdentity}, 0, []Filter{{"p", OpEQ, num(5)}}, true},
		{"!= stays after conversion", [2]pdConv{pdLinear, pdLinear}, 2, []Filter{{"p", OpNE, num(1.6)}}, false},
		{"!= beside a pushed bound", [2]pdConv{pdLinear, pdLinear}, 2, []Filter{{"p", OpNE, num(1.6)}, {"p", OpLT, num(100)}}, true},
		{"opaque is not pushed", [2]pdConv{pdOpaque, pdLinear}, 0, []Filter{{"p", OpLT, num(4)}}, false},
		{"opaque first of two bridges", [2]pdConv{pdOpaqueFirst, pdIdentity}, 2, []Filter{{"p", OpGE, num(1)}}, false},
		{"inverse names, second source", [2]pdConv{pdNegLinear, pdLinear}, 1, []Filter{{"p", OpLT, num(0)}}, true},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := newPDWorld(rand.New(rand.NewSource(int64(i))), c.convs[0], c.convs[1]).engine(t)
			q := pdQuery(c.shape, c.fs...)
			ranges := pushedRanges(t, eng, q)
			if got := ranges["pd1"] != ""; got != c.pushed {
				t.Errorf("pd1 pushed = %v, want %v (%v)", got, c.pushed, ranges)
			}
			// pd2's linear kinds convert through the inverse names.
			if c2 := c.convs[1]; c.pushed && (c2 == pdLinear || c2 == pdNegLinear) && !strings.Contains(ranges["pd2"], "Inv⁻¹") {
				t.Errorf("pd2 not pushed through its inverse function: %v", ranges)
			}
			checkPushdownMatchesSequential(t, eng, q)
		})
	}
}

// TestPushdownSemiJoinMatchesSequential is the semi-join differential:
// on join shapes whose later steps the planner binds to step 0's
// subjects, every configuration returns the Sequential rows — with the
// dispatch barrier in play on a pool and under a budget.
func TestPushdownSemiJoinMatchesSequential(t *testing.T) {
	bound := 0
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newPDWorld(rng, pdConv(rng.Intn(int(pdConvKinds))), pdConv(rng.Intn(int(pdConvKinds))))
		eng := w.engine(t)
		for _, th := range []float64{0, 1.6, 100} {
			for _, where := range []string{
				"?x Val ?p . ?x Tag ?t",
				"?x Val ?p . ?x Tag ?t . ?x InstanceOf Item",
				"?x Tag ?t . ?x Val ?p . ?y Tag ?t",
			} {
				q := MustParse("SELECT ?x ?p ?t WHERE " + where)
				q.Filters = []Filter{{"p", OpLE, num(th)}, {"p", OpGT, num(-th - 1)}}
				checkPushdownMatchesSequential(t, eng, q)
				if p, _ := eng.cachedPlan(q, eng.validateEpochs()); p.semiJoin {
					bound++
				}
			}
		}
	}
	if bound == 0 {
		t.Fatalf("no plan bound a scan to step 0's subjects")
	}
}

// semiJoinBatch is a one-column batch of subject terms whose row dead
// (if >= 0) is masked off.
func semiJoinBatch(dead int, subjects ...string) *colBatch {
	col := make([]kb.Value, len(subjects))
	for i, x := range subjects {
		col[i] = kb.Term(x)
	}
	b := &colBatch{n: len(col), cols: [][]kb.Value{col}}
	if dead >= 0 {
		b.sel = []uint64{^uint64(0) &^ (1 << dead)}
	}
	return b
}

// TestSemiJoinSetFirstSeenOrder pins the order a bound scan walks: each
// source's sealed set lists each of its live subjects once, in the order
// that source's step-0 sink first flushed it, so the walk — and the rows
// it feeds the joins — is the same on every execution. Each kept subject
// is charged once, and release returns the whole charge. It runs without
// an exact count (every entry charged per batch), presized above the
// distinct count (the unfilled slots released at seal) and below it (the
// entries past the reservation charged per batch).
func TestSemiJoinSetFirstSeenOrder(t *testing.T) {
	for _, exact := range [][]int{{0, 0}, {6, 2}, {2, 1}} {
		bud := mem.New(1 << 20)
		s := newSemiJoinSet(bud, exact)
		s.add(0, semiJoinBatch(-1, "src.c", "src.a", "src.c"), 0)
		s.add(1, semiJoinBatch(-1, "two.q"), 0)
		s.add(0, semiJoinBatch(1, "src.b", "src.z", "src.a", "src.d"), 0)
		got := s.seal()
		want := [][]string{{"src.c", "src.a", "src.b", "src.d"}, {"two.q"}}
		kept := 0
		for j := range want {
			if !slices.Equal(got[j].order, want[j]) || len(got[j].has) != len(want[j]) {
				t.Fatalf("exact %v: source %d order %v (%d members), want %v", exact, j, got[j].order, len(got[j].has), want[j])
			}
			kept += len(want[j])
		}
		if used, charge := bud.Used(), int64(kept)*semiJoinEntryBytes; used != charge {
			t.Fatalf("exact %v: budget holds %d B, want %d", exact, used, charge)
		}
		s.release()
		if used := bud.Used(); used != 0 {
			t.Fatalf("exact %v: budget holds %d B after release", exact, used)
		}
	}
}

// TestSemiJoinPresizeRefusedFallsBack checks the fallback when the exact
// count cannot be reserved up front: the set charges per batch as if it
// had no count, stays exact, and gives the whole charge back. Past the
// per-batch budget too it overflows (seal returns nil), and the query
// still returns the Sequential rows.
func TestSemiJoinPresizeRefusedFallsBack(t *testing.T) {
	bud := mem.New(4 * semiJoinEntryBytes)
	s := newSemiJoinSet(bud, []int{1000})
	if used := bud.Used(); used != 0 {
		t.Fatalf("refused presize holds %d B", used)
	}
	s.add(0, semiJoinBatch(-1, "src.a", "src.b", "src.a"), 0)
	got := s.seal()
	if got == nil || !slices.Equal(got[0].order, []string{"src.a", "src.b"}) {
		t.Fatalf("fallback set %v, want [src.a src.b]", got)
	}
	if used := bud.Used(); used != 2*semiJoinEntryBytes {
		t.Fatalf("fallback holds %d B, want %d", used, 2*semiJoinEntryBytes)
	}
	s.release()
	if used := bud.Used(); used != 0 {
		t.Fatalf("budget holds %d B after release", used)
	}

	over := newSemiJoinSet(bud, []int{1000})
	over.add(0, semiJoinBatch(-1, "src.a", "src.b", "src.c", "src.d", "src.e"), 0)
	if got := over.seal(); got != nil {
		t.Fatalf("set past its budget did not overflow: %v", got[0].order)
	}
	if used := bud.Used(); used != 0 {
		t.Fatalf("overflowed set holds %d B", used)
	}

	eng, _ := scaledFig2Engine(t, 400)
	q := MustParse("SELECT ?x ?p ?o WHERE ?x InstanceOf Cars . ?x Price ?p . ?x Owner ?o . ?x Model ?m . FILTER ?p < 1500")
	if p, _ := eng.cachedPlan(q, eng.validateEpochs()); !p.semiJoin {
		t.Fatalf("query does not bind a scan to step 0's subjects")
	}
	want, err := runQuery(eng, q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int64{1, 4 << 10, 64 << 10} {
		got, err := runQuery(eng, q, Options{Workers: 2, MemoryLimit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if !want.EqualRows(got) {
			t.Fatalf("limit %d: %d rows, want the Sequential %d", limit, len(got.Rows), len(want.Rows))
		}
	}
}

// TestSemiJoinPresizeReleased runs a presized semi-join query on a budget
// the test owns and checks that every byte the subject set charged — the
// up-front reservation included — is back when the query returns: the
// budget then holds exactly what the same plan run unbound leaves held
// (the result's merged row slice).
func TestSemiJoinPresizeReleased(t *testing.T) {
	eng, _ := scaledFig2Engine(t, 400)
	q := MustParse("SELECT ?x ?p ?o WHERE ?x InstanceOf Cars . ?x Price ?p . ?x Owner ?o . ?x Model ?m . FILTER ?p < 1500")
	plan, _ := eng.cachedPlan(q, eng.validateEpochs())
	exact := 0
	for _, sc := range plan.steps[0].scans {
		if sc.view.pushed != nil {
			exact += sc.est
		}
	}
	if !plan.semiJoin || exact == 0 {
		t.Fatalf("plan is not a presized semi-join (semiJoin %v, exact %d)", plan.semiJoin, exact)
	}
	unbound := *plan
	unbound.semiJoin = false
	unbound.steps = slices.Clone(plan.steps)
	for i := range unbound.steps {
		unbound.steps[i].scans = slices.Clone(unbound.steps[i].scans)
		for j := range unbound.steps[i].scans {
			unbound.steps[i].scans[j].bound = false
		}
	}
	run := func(p *execPlan, limit int64) (*Result, *mem.Budget) {
		bud := mem.New(limit)
		res := &Result{Vars: q.Select}
		if err := eng.executeBatched(context.Background(), q, p, Options{Workers: 2, MemoryLimit: limit}, bud, res); err != nil {
			t.Fatal(err)
		}
		return res, bud
	}
	for _, limit := range []int64{0, 4 << 20} {
		res, bud := run(plan, limit)
		ref, refBud := run(&unbound, limit)
		if len(res.Rows) == 0 || !res.EqualRows(ref) {
			t.Fatalf("limit %d: %d rows, unbound %d", limit, len(res.Rows), len(ref.Rows))
		}
		if bud.Peak() < int64(exact)*semiJoinEntryBytes {
			t.Fatalf("limit %d: peak %d B is below the presize of %d subjects", limit, bud.Peak(), exact)
		}
		if used, want := bud.Used(), refBud.Used(); used != want {
			t.Fatalf("limit %d: budget holds %d B after the query, %d unbound", limit, used, want)
		}
	}
}

// FuzzPushdownMatchesSequential differentially checks the selection
// pushdown: random worlds over the edge values and every conversion
// kind, queried with one or two filters drawn from all six operators,
// must return the Sequential rows under every planned configuration.
func FuzzPushdownMatchesSequential(f *testing.F) {
	f.Add(int64(1), uint8(0x10), uint8(0), uint16(0))
	f.Add(int64(2), uint8(0x21), uint8(1), uint16(1*6+4+36))
	f.Add(int64(3), uint8(0x43), uint8(2), uint16(3*6+2+36))
	f.Add(int64(4), uint8(0x02), uint8(2), uint16(5))
	f.Fuzz(func(t *testing.T, seed int64, convs, shape uint8, ops uint16) {
		rng := rand.New(rand.NewSource(seed))
		c1 := pdConv(convs&0xf) % pdConvKinds
		c2 := pdConv(convs>>4) % pdConvKinds
		w := newPDWorld(rng, c1, c2)
		eng := w.engine(t)
		// A threshold is one of the listed constants, or a value of the
		// world carried through the source's conversion, either exact or
		// one ulp off.
		threshold := func() float64 {
			if rng.Intn(2) == 0 {
				return pdThresholds[rng.Intn(len(pdThresholds))]
			}
			src := rng.Intn(2)
			vals := w.values[src]
			v := vals[rng.Intn(len(vals))]
			if !v.IsNumber() {
				return 1.6
			}
			y := v.Num
			for _, fn := range tableOf(eng, fmt.Sprintf("pd%d", src+1)).convs["Val"].funcs {
				if out, err := eng.art.Funcs.Apply(fn, y); err == nil {
					y = out
					break
				}
			}
			switch rng.Intn(3) {
			case 0:
				y = math.Nextafter(y, math.Inf(-1))
			case 1:
				y = math.Nextafter(y, math.Inf(1))
			}
			return y
		}
		fs := []Filter{{"p", CmpOp(ops % 6), num(threshold())}}
		if (ops/36)%2 == 1 {
			fs = append(fs, Filter{"p", CmpOp((ops / 6) % 6), num(threshold())})
		}
		checkPushdownMatchesSequential(t, eng, pdQuery(int(shape)%len(pdShapes), fs...))
	})
}

// scaledFig2Engine is the Fig. 2 world with n extra vehicles split over
// both sources, priced in each source's currency.
func scaledFig2Engine(t testing.TB, n int) (*Engine, *articulation.Articulation) {
	t.Helper()
	res, carrier, factory := paperPieces(t)
	carrierKB, factoryKB := fixtures.CarrierKB(), fixtures.FactoryKB()
	for k := 0; k < n; k++ {
		if k%2 == 0 {
			inst := fmt.Sprintf("Car%d", k)
			carrierKB.MustAdd(inst, "InstanceOf", kb.Term([]string{"PassengerCar", "SUV", "Trucks"}[k%3]))
			carrierKB.MustAdd(inst, "Price", kb.Number(float64(500+k*7%20000)))
			carrierKB.MustAdd(inst, "Owner", kb.String(fmt.Sprintf("Owner%d", k%50)))
			carrierKB.MustAdd(inst, "Model", kb.String(fmt.Sprintf("M%d", k%7)))
		} else {
			inst := fmt.Sprintf("Veh%d", k)
			factoryKB.MustAdd(inst, "InstanceOf", kb.Term([]string{"Truck", "GoodsVehicle"}[k%2]))
			factoryKB.MustAdd(inst, "Price", kb.Number(float64(1000+k*13%40000)))
		}
	}
	e, err := NewEngine(res.Art, map[string]*Source{
		"carrier": {Ont: carrier, KB: carrierKB},
		"factory": {Ont: factory, KB: factoryKB},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, res.Art
}

// TestSequentialDoesNotPush pins the reference's independence from the
// rewrite: on the Fig. 2 world scaled to 2 000 vehicles, Sequential
// converts every numeric Price fact, while the planned path converts at
// most two values per returned row.
func TestSequentialDoesNotPush(t *testing.T) {
	eng, _ := scaledFig2Engine(t, 2000)
	numericPrices := 0
	for _, name := range []string{"carrier", "factory"} {
		eng.sources[name].KB.ForEachByPredicate("Price", func(f kb.Fact) bool {
			if f.Object.IsNumber() {
				numericPrices++
			}
			return true
		})
	}
	q := MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p . FILTER ?p < 1500")
	seq, err := runQuery(eng, q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats.Conversions != numericPrices {
		t.Errorf("Sequential converted %d values, want every numeric Price fact (%d)", seq.Stats.Conversions, numericPrices)
	}
	if len(seq.Rows) == 0 {
		t.Fatalf("the filter selects nothing; the bound below would be vacuous")
	}
	for _, opts := range []Options{{Workers: 1}, {Workers: 4}} {
		got, err := runQuery(eng, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !seq.EqualRows(got) {
			t.Fatalf("%+v: rows diverged from sequential", opts)
		}
		if got.Stats.Conversions > 2*len(got.Rows) {
			t.Errorf("%+v: planned path converted %d values for %d rows, want <= 2 per row",
				opts, got.Stats.Conversions, len(got.Rows))
		}
	}
}

// TestPushdownOpaqueReregistration is the pushdown half of the
// registry's clearing contract: re-registering a linear function as an
// opaque one must stop the plan's pushed range from being used, cached
// plan or not — the rows keep matching Sequential, which applies the new
// function to every value. A fresh engine over the same sources compiles
// the query anew and pushes nothing through the opaque function.
func TestPushdownOpaqueReregistration(t *testing.T) {
	eng, art := scaledFig2Engine(t, 200)
	q := MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p . FILTER ?p < 1500")
	if r := pushedRanges(t, eng, q); r["carrier"] == "" {
		t.Fatalf("carrier Price not pushed: %v", r)
	}
	checkPushdownMatchesSequential(t, eng, q) // warms the pushed plan
	// Same name, now opaque: halves instead of converting pounds to euros,
	// so carrier prices up to 3 000 pass where the cached range stops at
	// 937.5.
	if err := art.Funcs.Register("PSToEuroFn", func(v float64) (float64, error) { return v / 2, nil }); err != nil {
		t.Fatal(err)
	}
	checkPushdownMatchesSequential(t, eng, q)
	fresh := peerEngine(t, eng)
	if r := pushedRanges(t, fresh, q); r["carrier"] != "" {
		t.Errorf("carrier Price pushed through an opaque function: %v", r)
	}
	checkPushdownMatchesSequential(t, fresh, q)
}

// TestInStoreOrderEmitsRangeAscending is inStoreOrder's property test:
// for random indexes and ranges, the sparse (sort) path, the dense
// (bitset) path and the one inStoreOrder picks each emit exactly the
// range's ordinals, ascending — the order the semi-join's subject set,
// and so its determinism, depends on.
func TestInStoreOrderEmitsRangeAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		ords := 1 + rng.Intn(20000)
		n := rng.Intn(min(ords, 400) + 1)
		ix := &numIndex{}
		var ents []numEntry
		for _, ord := range rng.Perm(ords)[:n] {
			ents = append(ents, numEntry{v: float64(rng.Intn(64)), ord: ord})
		}
		// Two adds: the second merges into the first's sorted entries.
		half := n / 2
		slices.SortFunc(ents, func(a, b numEntry) int { return a.ord - b.ord })
		ix.add(slices.Clone(ents[:half]))
		ix.add(slices.Clone(ents[half:]))
		lo := rng.Intn(len(ix.ents) + 1)
		hi := lo + rng.Intn(len(ix.ents)-lo+1)
		var want []int
		for _, en := range ix.ents[lo:hi] {
			want = append(want, en.ord)
		}
		slices.Sort(want)
		for name, walk := range map[string]func(lo, hi int, fn func(int)){
			"sorted": ix.sortedOrder, "bitset": ix.bitsetOrder, "inStoreOrder": ix.inStoreOrder,
		} {
			var got []int
			walk(lo, hi, func(ord int) { got = append(got, ord) })
			if !slices.Equal(got, want) {
				t.Fatalf("iter %d, %s over [%d,%d) of %d entries (%d ordinals): got %v, want %v",
					iter, name, lo, hi, len(ix.ents), ix.ords, got, want)
			}
		}
	}
}

// TestInStoreOrderAllocsFollowRange pins a pushed scan's ordering cost to
// its range: 64 entries out of a 100 000-ordinal index must allocate
// under 2 KB, where a bitset over the ordinal space takes 12.5 KB.
func TestInStoreOrderAllocsFollowRange(t *testing.T) {
	const ords, k, calls = 100_000, 64, 100
	ents := make([]numEntry, ords)
	for ord := range ents {
		ents[ord] = numEntry{v: float64(ord * 7919 % ords), ord: ord}
	}
	ix := &numIndex{}
	ix.add(ents)
	lo := ords / 3
	n := 0
	fn := func(int) { n++ }
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		ix.inStoreOrder(lo, lo+k, fn)
	}
	runtime.ReadMemStats(&after)
	if n != k*calls {
		t.Fatalf("emitted %d ordinals, want %d", n, k*calls)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 2048 {
		t.Errorf("ordering a %d-entry range of a %d-ordinal index allocates %d B, want < 2048", k, ords, per)
	}
}

// BenchmarkSemiJoinStar is the sideways semi-join on the served capped
// workload's shape: a four-triple star on ?x whose pushed Price range
// leads (≈1 000 carrier rows, ≈2 100 factory rows), with factory lacking
// Owner and Model, under a 4 MiB memory limit on two workers. It reports
// ns/op, B/op and allocs/op.
func BenchmarkSemiJoinStar(b *testing.B) {
	eng, _ := scaledFig2Engine(b, 40000)
	q := MustParse("SELECT ?x ?p ?o WHERE ?x InstanceOf Cars . ?x Price ?p . ?x Owner ?o . ?x Model ?m . FILTER ?p < 2400")
	opts := Options{Workers: 2, MemoryLimit: 4 << 20}
	if _, err := runQuery(eng, q, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := runQuery(eng, q, opts); err != nil {
			b.Fatal(err)
		}
	}
}
