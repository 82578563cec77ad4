package query

import (
	"math"
	"testing"

	"repro/internal/articulation"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/query/mem"
	"repro/internal/rowcodec"
	"repro/internal/rules"
)

// vkey encodes one value with the shared row/join key encoding.
func vkey(v kb.Value) string { return string(rowcodec.AppendValue(nil, v)) }

// TestAppendValueKeyKindStrict locks the shared encoding's kind tags:
// values that format identically but differ in kind must produce
// different keys on every call site (join, dedup, sort).
func TestAppendValueKeyKindStrict(t *testing.T) {
	if vkey(kb.Term("3000")) == vkey(kb.Number(3000)) {
		t.Errorf("kind-blind key: Term(3000) == Number(3000)")
	}
	if vkey(kb.Term("3000")) == vkey(kb.String("3000")) {
		t.Errorf("kind-blind key: Term(3000) == String(3000)")
	}
	if vkey(kb.String("3000")) == vkey(kb.Number(3000)) {
		t.Errorf("kind-blind key: String(3000) == Number(3000)")
	}
}

// TestAppendValueKeyFraming locks the escape/terminator framing: byte
// payloads containing the NUL separator or shifted across field
// boundaries must stay distinguishable when keys are concatenated.
func TestAppendValueKeyFraming(t *testing.T) {
	mk := func(vals ...kb.Value) string {
		var buf []byte
		for _, v := range vals {
			buf = rowcodec.AppendValue(buf, v)
		}
		return string(buf)
	}
	if mk(kb.Term("ab"), kb.Term("c")) == mk(kb.Term("a"), kb.Term("bc")) {
		t.Errorf("ambiguous field framing")
	}
	if mk(kb.Term("a\x00b"), kb.Term("c")) == mk(kb.Term("a"), kb.Term("b\x00c")) {
		t.Errorf("NUL-containing payloads collide")
	}
	if mk(kb.Term("a"), kb.Term("b")) == mk(kb.Term("a\x00b")) {
		t.Errorf("two fields collide with one NUL-joined field")
	}
	if vkey(kb.Term("\x01unbound")) == vkey(kb.Term("unbound")) {
		t.Errorf("control-byte payload collapsed")
	}
	if mk(kb.Number(1), kb.Number(2)) == mk(kb.Number(2), kb.Number(1)) {
		t.Errorf("number order ignored")
	}
}

// TestAppendValueKeyNumberSemantics locks the numeric image: every NaN
// in one equality class (the engine's reference semantics key on
// Format(), where all NaNs render "NaN"), +0 and -0 distinct, and byte
// order equal to numeric order so sorted rows read numerically.
func TestAppendValueKeyNumberSemantics(t *testing.T) {
	nanA := math.NaN()
	nanB := math.Float64frombits(0x7FF8000000000001)
	if vkey(kb.Number(nanA)) != vkey(kb.Number(nanB)) {
		t.Errorf("NaN payloads split the NaN equality class")
	}
	if vkey(kb.Number(0)) == vkey(kb.Number(math.Copysign(0, -1))) {
		t.Errorf("+0 and -0 collapsed (Format distinguishes them)")
	}
	nums := []float64{math.Inf(-1), -2.5, math.Copysign(0, -1), 0, 0.25, 2, 10, math.Inf(1)}
	for i := 1; i < len(nums); i++ {
		a, b := vkey(kb.Number(nums[i-1])), vkey(kb.Number(nums[i]))
		if a >= b {
			t.Errorf("key order not numeric: %v !< %v", nums[i-1], nums[i])
		}
	}
}

// TestJoinKeyUnboundMarkerUnambiguous locks the binding-path joinKey
// framing, including the out-of-band unbound marker. The adversarial
// pair below was a verified collision under a 0xff marker (the string
// terminator 0x00 followed by 0xff reads as the \x00→\x00\xff escape):
// binding A with v2 unbound and binding B with v3 unbound encoded to
// identical bytes. The 0x03 marker keeps them distinct.
func TestJoinKeyUnboundMarkerUnambiguous(t *testing.T) {
	vars := []string{"v1", "v2", "v3", "v4"}
	a := binding{"v1": kb.Term("a"), "v3": kb.Term("\xffc"), "v4": kb.Term("a\x00\x00c")}
	b := binding{"v1": kb.Term("a\x00\x00c"), "v2": kb.Term("a"), "v4": kb.Term("\xffc")}
	if joinKey(a, vars) == joinKey(b, vars) {
		t.Errorf("unbound marker framing collision: %q", joinKey(a, vars))
	}
	// A bound value can never encode to the bare marker either.
	if joinKey(binding{"v1": kb.Term("\x03")}, []string{"v1"}) == joinKey(binding{}, []string{"v1"}) {
		t.Errorf("marker byte collides with a term payload")
	}
}

// TestEqualRowsKindStrict locks the cell-wise comparison: the
// determinism suite must detect an executor returning a different kind
// even when the cells format identically (the formatRow-based
// comparison it replaces could not).
func TestEqualRowsKindStrict(t *testing.T) {
	mk := func(vals ...kb.Value) *Result {
		return &Result{Vars: []string{"v"}, Rows: [][]kb.Value{vals}}
	}
	if mk(kb.Term("3000")).EqualRows(mk(kb.Number(3000))) {
		t.Errorf("kind divergence undetected: Term vs Number")
	}
	if mk(kb.Term("3000")).EqualRows(mk(kb.String("3000"))) {
		t.Errorf("kind divergence undetected: Term vs String")
	}
	if !mk(kb.Number(3000)).EqualRows(mk(kb.Number(3000))) {
		t.Errorf("identical rows unequal")
	}
	if !mk(kb.Number(math.NaN())).EqualRows(mk(kb.Number(math.NaN()))) {
		t.Errorf("NaN cells unequal: the engine keys every NaN alike")
	}
}

// adversarialEngine builds a one-KB world whose term payloads are
// crafted against the seed's raw-\x00-joined Format() keys: without
// framing-safe encodings they collapse distinct SELECT rows and falsely
// join. The source is named "adv" and the payloads bake that prefix in,
// since emitted terms are source-qualified.
func adversarialEngine(t testing.TB) *Engine {
	t.Helper()
	src := ontology.New("adv")
	src.MustAddTerm("T")
	dst := ontology.New("other")
	dst.MustAddTerm("U")
	set := rules.NewSet(rules.MustParse("adv.T => other.U"))
	res, err := articulation.Generate("advart", src, dst, set, articulation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := kb.New("adv")
	// Projection collapse pair: the two rows' cells concatenate to the
	// same raw \x00-joined string once qualified.
	store.MustAdd("a", "P", kb.Term("b\x00adv.c"))
	store.MustAdd("a\x00adv.b", "P", kb.Term("c"))
	// False-join pair against the seed's "%d:%s"-formatted join keys:
	// the P row (u=adv.a, v=adv.b\x000:adv.c) and the Q row
	// (u=adv.a\x000:adv.b, v=adv.c) used to encode identically.
	store.MustAdd("a", "Q", kb.Term("b\x000:adv.c"))
	store.MustAdd("a\x000:adv.b", "R", kb.Term("c"))
	// In-band sentinel payloads must behave like ordinary values.
	store.MustAdd("\x01unbound", "S", kb.Term("\x01unbound"))
	store.MustAdd("unbound", "S", kb.Term("unbound"))
	eng, err := NewEngine(res.Art, map[string]*Source{
		"adv":   {Ont: src, KB: store},
		"other": {Ont: dst},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// advModes are the executor configurations the adversarial regressions
// run under: the sequential reference, and the batch pipeline at one
// scan worker and on a pool, with pinned partitions and under a 16KB
// budget.
var advModes = []struct {
	name string
	opts Options
}{
	{"sequential", Options{Sequential: true}},
	{"one-worker", Options{Workers: 1}},
	{"one-worker-16k", Options{Workers: 1, MemoryLimit: 1 << 14}},
	{"pooled", Options{Workers: 4}},
	{"pooled-parts-3", Options{Workers: 4, Partitions: 3}},
	{"batch-16k", Options{Workers: 4, MemoryLimit: 1 << 14}},
	{"batch-16k-parts-3", Options{Workers: 4, Partitions: 3, MemoryLimit: 1 << 14}},
}

// TestProjectionFramingSafe regresses the dedup/sort collapse: two
// distinct rows whose cells concatenate identically under a raw \x00
// join must stay two rows, on every execution path.
func TestProjectionFramingSafe(t *testing.T) {
	eng := adversarialEngine(t)
	q := MustParse("SELECT ?x ?y WHERE ?x P ?y")
	want, err := runQuery(eng, q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 2 {
		t.Fatalf("adversarial projection rows = %d, want 2 (framing collapse): %v", len(want.Rows), want.Rows)
	}
	for _, m := range advModes {
		got, err := runQuery(eng, q, m.opts)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if !want.EqualRows(got) {
			t.Errorf("%s diverged on adversarial projection: %v", m.name, got.Rows)
		}
	}
}

// TestJoinFramingSafe regresses the binding-map joinKey false
// join: rows that only encode identically under the seed's separator
// scheme must not join — the correct answer is empty on every path.
func TestJoinFramingSafe(t *testing.T) {
	eng := adversarialEngine(t)
	q := MustParse("SELECT ?u ?v WHERE ?u Q ?v . ?u R ?v")
	for _, m := range advModes {
		got, err := runQuery(eng, q, m.opts)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if len(got.Rows) != 0 {
			t.Errorf("%s falsely joined adversarial rows: %v", m.name, got.Rows)
		}
	}
}

// TestInBandSentinelValues checks that a term literally named
// "\x01unbound" (the seed's in-band unbound marker) flows through scans,
// joins and projection as an ordinary value on every path — including a
// single-step plan whose filter runs on the scan batches, where every
// leg must also report the reference's JoinedRows.
func TestInBandSentinelValues(t *testing.T) {
	eng := adversarialEngine(t)
	for _, tc := range []struct {
		q    Query
		rows int
	}{
		{MustParse("SELECT ?x ?y WHERE ?x S ?y"), 2},
		{MustParse("SELECT ?x ?y WHERE ?x S ?y . FILTER ?y != adv.unbound"), 1},
	} {
		want, err := runQuery(eng, tc.q, Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) != tc.rows {
			t.Fatalf("%s: sentinel rows = %d, want %d: %v", tc.q, len(want.Rows), tc.rows, want.Rows)
		}
		for _, m := range advModes {
			got, err := runQuery(eng, tc.q, m.opts)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if !want.EqualRows(got) {
				t.Errorf("%s diverged on sentinel values (%s): %v", m.name, tc.q, got.Rows)
			}
			if got.Stats.JoinedRows != want.Stats.JoinedRows {
				t.Errorf("%s (%s): JoinedRows = %d, want %d", m.name, tc.q,
					got.Stats.JoinedRows, want.Stats.JoinedRows)
			}
		}
	}
}

// TestKindCollidingProjection pins the documented Term("3000") vs
// Number(3000) projection collision at the row-key level: rows that
// differ only in cell kind dedup and sort as distinct rows in the
// streaming projection.
func TestKindCollidingProjection(t *testing.T) {
	vals := []kb.Value{
		kb.Term("3000"),
		kb.Number(3000),
		kb.String("3000"),
		kb.Term("3000"), // true duplicate
	}
	bud := mem.New(0)
	alloc := newBatchAlloc(1, bud)
	b := alloc.get()
	defer alloc.put(b)
	for i, v := range vals {
		b.cols[0][i] = v
	}
	b.n = len(vals)
	plan := &execPlan{slotOf: map[string]int{"v": 0}, slotNames: []string{"v"}}
	pp := newStageProj(Query{Select: []string{"v"}}, plan, bud, nil, "")
	for i := range vals {
		pp.addBatchRow(b, i)
	}
	rows, err := pp.finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("kind-colliding rows deduped to %d, want 3: %v", len(rows), rows)
	}
}
