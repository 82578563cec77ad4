package query

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/articulation"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/rules"
)

// batchEdgeEngine builds a two-source world whose join output size is
// directly controlled by the instance count: every instance carries one
// P value and one P2 value (both its own index), so the three-conjunct
// chain yields exactly instances rows per source. The ontology also
// declares a Q attribute with zero facts behind it, for the empty-batch
// tests.
func batchEdgeEngine(t testing.TB, instances int) (*Engine, Query) {
	t.Helper()
	sources := make(map[string]*Source, 2)
	var onts []*ontology.Ontology
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("be%d", i)
		o := ontology.New(name)
		o.MustAddTerm("Item")
		for _, p := range []string{"P", "P2", "Q"} {
			o.MustAddTerm(p)
			o.MustRelate("Item", ontology.AttributeOf, p)
		}
		store := kb.New(name)
		for k := 0; k < instances; k++ {
			inst := fmt.Sprintf("%sI%d", name, k)
			store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			store.MustAdd(inst, "P", kb.Number(float64(k)))
			store.MustAdd(inst, "P2", kb.Number(float64(k)))
		}
		sources[name] = &Source{Ont: o, KB: store}
		onts = append(onts, o)
	}
	set := rules.NewSet(rules.MustParse("be1.Item => be2.Item"))
	res, err := articulation.Generate("beart", onts[0], onts[1], set, articulation.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(res.Art, sources)
	if err != nil {
		t.Fatal(err)
	}
	return eng, MustParse("SELECT ?x ?v ?w WHERE ?x InstanceOf Item . ?x P ?v . ?x P2 ?w")
}

// TestBatchBoundaryRowCounts exercises result sizes that straddle the
// column-batch capacity on both the full-capacity and budgeted-capacity
// paths: one row short of a full batch, exactly full, one row over, and
// several batches plus a remainder. Rows must stay byte-identical to
// the sequential reference at every size.
func TestBatchBoundaryRowCounts(t *testing.T) {
	for _, n := range []int{batchRows - 1, batchRows, batchRows + 1, 2*batchRows + 3} {
		t.Run(fmt.Sprintf("rows-%d", n), func(t *testing.T) {
			eng, q := batchEdgeEngine(t, n)
			want, err := runQuery(eng, q, Options{Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) != 2*n {
				t.Fatalf("sequential rows = %d, want %d", len(want.Rows), 2*n)
			}
			batch, err := runQuery(eng, q, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !want.EqualRows(batch) {
				t.Errorf("batch diverged: sequential %d rows, batch %d", len(want.Rows), len(batch.Rows))
			}
			if batch.Stats.Batches == 0 || batch.Stats.BatchRows == 0 {
				t.Errorf("batch path not engaged: %+v", batch.Stats)
			}
			// The budgeted capacity (budgetedBatchRows) divides the same
			// row counts differently; the edge must hold there too.
			budgeted, err := runQuery(eng, q, Options{Workers: 4, MemoryLimit: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}
			if !want.EqualRows(budgeted) {
				t.Errorf("budgeted batch diverged: sequential %d rows, got %d", len(want.Rows), len(budgeted.Rows))
			}
		})
	}
}

// TestBatchSelectionMaskAllZero drives a filter that zeroes the
// selection mask of every batch: the executor must drain cleanly to an
// empty result rather than emitting masked-off rows or wedging on
// fully-dead batches.
func TestBatchSelectionMaskAllZero(t *testing.T) {
	eng, _ := batchEdgeEngine(t, batchRows+5)
	dead := MustParse("SELECT ?x ?v WHERE ?x InstanceOf Item . ?x P ?v . ?x P2 ?w . FILTER ?v < 0")
	for _, leg := range []struct {
		name string
		opts Options
	}{
		{"batch", Options{Workers: 4}},
		{"batch-budgeted", Options{Workers: 4, MemoryLimit: 1 << 14}},
		{"one-worker", Options{Workers: 1}},
	} {
		got, err := runQuery(eng, dead, leg.opts)
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if len(got.Rows) != 0 {
			t.Errorf("%s: all-zero selection mask leaked %d rows", leg.name, len(got.Rows))
		}
	}
	// A mask with a single surviving bit per source must emit exactly
	// those rows, byte-identical to the reference.
	oneLeft := MustParse(fmt.Sprintf(
		"SELECT ?x ?v WHERE ?x InstanceOf Item . ?x P ?v . ?x P2 ?w . FILTER ?v >= %d", batchRows+4))
	want, err := runQuery(eng, oneLeft, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 2 {
		t.Fatalf("single-survivor filter: sequential rows = %d, want 2", len(want.Rows))
	}
	got, err := runQuery(eng, oneLeft, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !want.EqualRows(got) {
		t.Errorf("single-survivor batch diverged: %v vs %v", got.Rows, want.Rows)
	}
}

// TestBatchEmptyStep covers empty batches at the source: a conjunct
// whose predicate has no facts must short-circuit every batch leg to an
// empty result without error.
func TestBatchEmptyStep(t *testing.T) {
	eng, _ := batchEdgeEngine(t, 64)
	empty := MustParse("SELECT ?x WHERE ?x InstanceOf Item . ?x Q ?w")
	for _, leg := range []struct {
		name string
		opts Options
	}{
		{"batch", Options{Workers: 4}},
		{"batch-budgeted", Options{Workers: 4, MemoryLimit: 1 << 14}},
		{"one-worker", Options{Workers: 1}},
	} {
		got, err := runQuery(eng, empty, leg.opts)
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if len(got.Rows) != 0 {
			t.Errorf("%s: factless conjunct produced %d rows", leg.name, len(got.Rows))
		}
	}
}

// TestBatchDeterminismAcrossProcs is the fourth determinism leg of the
// executor matrix: on every bench world — join-heavy, deep-chain, and
// the adversarial rowkey payloads — the batch plane must produce rows
// byte-identical to the sequential reference under GOMAXPROCS 1, 2 and
// 8, unbounded and under the 16KB budget, alongside the one-worker and
// pinned-partition legs.
func TestBatchDeterminismAcrossProcs(t *testing.T) {
	worlds := []struct {
		name  string
		build func(testing.TB) (*Engine, Query)
	}{
		{"join-heavy", func(tb testing.TB) (*Engine, Query) { return joinHeavyEngine(tb, 150) }},
		{"deep-chain", func(tb testing.TB) (*Engine, Query) { return deepChainEngine(tb, 40, 2) }},
		{"adversarial", func(tb testing.TB) (*Engine, Query) { return spillAdversarialEngine(tb, 60, 5) }},
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			eng, q := w.build(t)
			want, err := runQuery(eng, q, Options{Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) == 0 {
				t.Fatalf("world produced no rows")
			}
			for _, procs := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("gomaxprocs-%d", procs), func(t *testing.T) {
					prev := runtime.GOMAXPROCS(procs)
					defer runtime.GOMAXPROCS(prev)
					legs := []struct {
						name string
						opts Options
					}{
						{"default-workers", Options{}},
						{"one-worker", Options{Workers: 1}},
						{"batch", Options{Workers: 4}},
						{"batch-parts-3", Options{Workers: 4, Partitions: 3}},
						{"batch-16k", Options{Workers: 4, MemoryLimit: 1 << 14}},
						{"batch-16k-parts-1", Options{Workers: 4, Partitions: 1, MemoryLimit: 1 << 14}},
					}
					for _, leg := range legs {
						got, err := runQuery(eng, q, leg.opts)
						if err != nil {
							t.Fatalf("%s: %v", leg.name, err)
						}
						if !want.EqualRows(got) {
							t.Errorf("%s diverged: sequential %d rows, got %d",
								leg.name, len(want.Rows), len(got.Rows))
						}
						if got.Stats.JoinedRows != want.Stats.JoinedRows {
							t.Errorf("%s JoinedRows = %d, want %d",
								leg.name, got.Stats.JoinedRows, want.Stats.JoinedRows)
						}
					}
				})
			}
		})
	}
}

// mixedWidthStreams returns the join-heavy world's width-4 query
// interleaved one for one with a width-2 selection, and the same queries
// grouped by width.
func mixedWidthStreams(t testing.TB) (eng *Engine, shuffled, grouped []Query) {
	eng, wide := joinHeavyEngine(t, 400)
	narrow := MustParse(`SELECT ?x ?p WHERE ?x InstanceOf Item . ?x Price ?p . FILTER ?p > 100`)
	for i := 0; i < 8; i++ {
		shuffled = append(shuffled, narrow, wide)
	}
	grouped = append(slices.Repeat([]Query{narrow}, 8), slices.Repeat([]Query{wide}, 8)...)
	return eng, shuffled, grouped
}

// TestMixedWidthBatchReuse pins batch recycling across query shapes: a
// stream that alternates width-2 and width-4 queries must allocate about
// as many bytes per query as the same queries grouped by width. With one
// pool whose batches only a same-width query could reuse, each query of
// the alternating stream found the other width's batches and allocated
// fresh columns: 3x the grouped stream's bytes. GC is pinned off while
// sampling (a cycle empties the pools), and the heap is collected between
// samples.
func TestMixedWidthBatchReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting under -short")
	}
	if raceEnabled {
		t.Skip("the race runtime drops a quarter of sync.Pool puts, so pooled reuse is not measurable under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	eng, shuffled, grouped := mixedWidthStreams(t)
	opts := Options{Workers: 1}
	run := func(stream []Query) {
		for _, q := range stream {
			if _, err := runQuery(eng, q, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	bytesPerQuery := func(stream []Query) float64 {
		runtime.GC()
		run(stream) // refill the pools the collection emptied
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(stream)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(stream))
	}
	var mixed, sorted []float64
	for i := 0; i < 7; i++ {
		mixed = append(mixed, bytesPerQuery(shuffled))
		sorted = append(sorted, bytesPerQuery(grouped))
	}
	slices.Sort(mixed)
	slices.Sort(sorted)
	m, g := mixed[len(mixed)/2], sorted[len(sorted)/2]
	t.Logf("bytes per query: alternating widths %.0f, grouped by width %.0f (%.2fx)", m, g, m/g)
	if m > 1.25*g {
		t.Errorf("alternating widths allocate %.0f B per query, grouped %.0f B (%.2fx); want <= 1.25x", m, g, m/g)
	}
}

// BenchmarkQueryMixedWidths runs the alternating-width stream of
// TestMixedWidthBatchReuse; B/op is bytes per stream of 16 queries.
func BenchmarkQueryMixedWidths(b *testing.B) {
	eng, shuffled, _ := mixedWidthStreams(b)
	opts := Options{Workers: 1}
	b.ReportAllocs()
	for b.Loop() {
		for _, q := range shuffled {
			if _, err := runQuery(eng, q, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}
