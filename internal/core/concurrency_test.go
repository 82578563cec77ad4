package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/ontology"
	"repro/internal/query"
)

// TestConcurrentSystemQueries hammers one System with concurrent Query,
// QueryWith, Explain and read-path lookups — the concurrency its doc
// comment promises. Run with -race.
func TestConcurrentSystemQueries(t *testing.T) {
	s := paperSystem(t)
	const q = "SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"
	want, err := s.QueryWith(fixtures.ArtName, q, query.Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch g % 4 {
				case 0:
					got, err := s.Query(fixtures.ArtName, q)
					if err != nil {
						errs <- err
						return
					}
					if !want.EqualRows(got) {
						errs <- fmt.Errorf("query diverged under concurrency")
						return
					}
				case 1:
					got, err := s.QueryWith(fixtures.ArtName, q, query.Options{Workers: 3})
					if err != nil {
						errs <- err
						return
					}
					if !want.EqualRows(got) {
						errs <- fmt.Errorf("QueryWith diverged under concurrency")
						return
					}
				case 2:
					if _, _, err := s.Explain(context.Background(), fixtures.ArtName, query.MustParse(q), query.Options{}, false); err != nil {
						errs <- err
						return
					}
				default:
					s.Ontologies()
					s.Articulations()
					if _, ok := s.Ontology("carrier"); !ok {
						errs <- fmt.Errorf("carrier vanished")
						return
					}
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

// TestConcurrentMutationAndQuery mixes registry mutation (Register,
// RegisterKB, Drop, Articulate on unrelated ontologies) with queries
// against a stable articulation: mutations must serialise cleanly and
// queries must keep answering correctly throughout.
func TestConcurrentMutationAndQuery(t *testing.T) {
	s := paperSystem(t)
	const q = "SELECT ?x WHERE ?x InstanceOf Vehicle"
	want, err := s.QueryWith(fixtures.ArtName, q, query.Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if g%4 == 0 {
					// Churn unrelated ontologies through the registry.
					name := fmt.Sprintf("scratch%d", g)
					o := ontology.New(name)
					o.MustAddTerm("Thing")
					if err := s.Register(o); err != nil && !strings.Contains(err.Error(), "already registered") {
						errs <- err
						return
					}
					s.Drop(name)
					continue
				}
				if g%4 == 1 {
					// Mutate a queried source in place: Infer holds the
					// write lock, so in-flight queries must never see a
					// half-mutated graph.
					if _, err := s.Infer("carrier"); err != nil {
						errs <- err
						return
					}
					continue
				}
				got, err := s.Query(fixtures.ArtName, q)
				if err != nil {
					errs <- err
					return
				}
				if !want.EqualRows(got) {
					errs <- fmt.Errorf("query diverged during registry churn")
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

// engineOf returns the engine s resolves for the Fig. 2 articulation.
func engineOf(t *testing.T, s *System) *query.Engine {
	t.Helper()
	return engineNamed(t, s, fixtures.ArtName)
}

// TestEngineCacheInvalidation checks the two invalidation regimes: data
// mutations (Infer, AddFacts) keep the cached engine — its epoch check
// self-heals the stale plan/index state — while structural mutations
// (re-registering a KB) rebind the name and drop the engines reading it.
func TestEngineCacheInvalidation(t *testing.T) {
	s := paperSystem(t)
	e1 := engineOf(t, s)
	e2 := engineOf(t, s)
	if e1 != e2 {
		t.Fatalf("engine not cached across calls")
	}
	if _, err := s.Infer("carrier"); err != nil {
		t.Fatal(err)
	}
	e3 := engineOf(t, s)
	if e3 != e1 {
		t.Fatalf("Infer dropped the cached engine; epochs should self-heal it instead")
	}
	if res, err := s.Query(fixtures.ArtName, "SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"); err != nil || len(res.Rows) == 0 {
		t.Fatalf("query through the healed engine failed: %v", err)
	}
	// Structural change: a swapped KB rebinds carrier to a new Source,
	// so the engine reading the old binding must be rebuilt.
	if err := s.RegisterKB(fixtures.CarrierKB()); err != nil {
		t.Fatal(err)
	}
	e4 := engineOf(t, s)
	if e4 == e1 {
		t.Fatalf("engine cache not invalidated by RegisterKB")
	}
}
