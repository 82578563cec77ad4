package query

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/articulation"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/rules"
)

// failingWorld builds a world whose conversion function always errors.
func failingWorld(t *testing.T) *Engine {
	t.Helper()
	src := ontology.New("src")
	src.MustAddTerm("Thing")
	src.MustAddTerm("Price")
	dst := ontology.New("dst")
	dst.MustAddTerm("Item")

	funcs := articulation.NewFuncRegistry()
	if err := funcs.Register("Broken", func(float64) (float64, error) {
		return 0, fmt.Errorf("conversion backend down")
	}); err != nil {
		t.Fatal(err)
	}
	set := rules.NewSet(
		rules.MustParse("src.Thing => dst.Item"),
		rules.MustParse("Broken() : src.Price => art.Price"),
	)
	res, err := articulation.Generate("art", src, dst, set, articulation.Options{Funcs: funcs})
	if err != nil {
		t.Fatal(err)
	}
	store := kb.New("src")
	store.MustAdd("T1", "InstanceOf", kb.Term("Thing"))
	store.MustAdd("T1", "Price", kb.Number(42))
	eng, err := NewEngine(res.Art, map[string]*Source{
		"src": {Ont: src, KB: store},
		"dst": {Ont: dst},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestFailingConversionFallsBackToRawValue(t *testing.T) {
	eng := failingWorld(t)
	res, err := runQuery(eng, MustParse("SELECT ?p WHERE T1 Price ?p"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The broken conversion must not lose the fact or crash the query;
	// the raw source value comes through and no conversion is counted.
	if len(res.Rows) != 1 || res.Rows[0][0].Num != 42 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Stats.Conversions != 0 {
		t.Fatalf("failed conversion counted: %+v", res.Stats)
	}
}

func TestConcurrentExecuteIsSafe(t *testing.T) {
	eng := paperEngine(t)
	q := MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p")
	want, err := runQuery(eng, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := runQuery(eng, q, Options{})
			if err != nil {
				errs <- err
				return
			}
			if len(got.Rows) != len(want.Rows) {
				errs <- fmt.Errorf("row count diverged under concurrency: %d vs %d", len(got.Rows), len(want.Rows))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestEngineWithKBLessSources(t *testing.T) {
	// Sources without knowledge bases answer structural queries only.
	res, carrier, factory := paperPieces(t)
	eng, err := NewEngine(res.Art, map[string]*Source{
		"carrier": {Ont: carrier},
		"factory": {Ont: factory},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := runQuery(eng, MustParse("SELECT ?x WHERE ?x InstanceOf Vehicle"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Only the graph-level instance (MyCar) matches; KB-only instances
	// are absent.
	if !hasRow(out, "carrier.MyCar") {
		t.Fatalf("graph instance missing: %v", out.Rows)
	}
	for _, row := range out.Rows {
		if row[0].Format() == "carrier.Suv9" {
			t.Fatalf("KB instance appeared without a KB")
		}
	}
}
