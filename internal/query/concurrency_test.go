package query

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentMixedQueriesAreSafe hammers one engine from many
// goroutines with several distinct queries — churning the plan cache and
// the lazy edge indexes while the worker pool runs — and verifies every
// answer against the sequential reference. Run with -race.
func TestConcurrentMixedQueriesAreSafe(t *testing.T) {
	eng := paperEngine(t)
	queries := []string{
		"SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p",
		"SELECT ?x WHERE ?x InstanceOf Vehicle",
		"SELECT ?p WHERE carrier.MyCar Price ?p",
		"SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p . FILTER ?p > 3000",
		"SELECT ?x ?y WHERE ?x SubclassOf ?y",
	}
	want := make([]*Result, len(queries))
	for i, qs := range queries {
		ref, err := runQuery(eng, MustParse(qs), Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref
	}

	const goroutines = 16
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (g + i) % len(queries)
				opts := Options{Workers: 1 + (g+i)%4}
				got, err := runQuery(eng, MustParse(queries[qi]), opts)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d query %d: %w", g, qi, err)
					return
				}
				if !want[qi].EqualRows(got) {
					errs <- fmt.Errorf("goroutine %d query %d diverged under concurrency", g, qi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentExplainAndExecute interleaves Explain (which shares the
// expansion code with the planner) with planned executions.
func TestConcurrentExplainAndExecute(t *testing.T) {
	eng := paperEngine(t)
	q := MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p")
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if g%2 == 0 {
					if _, _, err := eng.Explain(context.Background(), q, Options{}, false); err != nil {
						errs <- err
						return
					}
				} else if _, err := runQuery(eng, q, Options{Workers: 2}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
