package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/kb"
	"repro/internal/query"
)

const vehiclePriceQ = "SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"

// TestAddFactsVisibleWithoutEngineRebuild is the epoch path end to end
// through the registry: AddFacts on an existing store must show up in
// the next query without an engine rebuild (observable
// as a plan-cache hit staying warm until the mutation, and the mutation
// forcing exactly one recompile).
func TestAddFactsVisibleWithoutEngineRebuild(t *testing.T) {
	s := paperSystem(t)
	before, err := s.Query(fixtures.ArtName, vehiclePriceQ)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Query(fixtures.ArtName, vehiclePriceQ)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.PlanCacheHit {
		t.Fatalf("second query missed the plan cache")
	}

	added, err := s.AddFacts("carrier", []kb.Fact{
		{Subject: "NewCar", Predicate: "InstanceOf", Object: kb.Term("PassengerCar")},
		{Subject: "NewCar", Predicate: "Price", Object: kb.Number(2500)},
		{Subject: "NewCar", Predicate: "Price", Object: kb.Number(2500)}, // duplicate
	})
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Fatalf("AddFacts added = %d, want 2", added)
	}

	after, err := s.Query(fixtures.ArtName, vehiclePriceQ)
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.PlanCacheHit {
		t.Fatalf("stale plan served after AddFacts")
	}
	if len(after.Rows) != len(before.Rows)+1 {
		t.Fatalf("rows = %d, want %d", len(after.Rows), len(before.Rows)+1)
	}

	// Unknown sources are rejected; a registered ontology without a KB
	// gets one attached on first mutation.
	if _, err := s.AddFacts("nope", nil); err == nil {
		t.Fatalf("AddFacts accepted an unknown source")
	}
	bare := paperSystem(t)
	bare.Drop("carrier")
	if _, err := bare.AddFacts("factory", []kb.Fact{{Subject: "X", Predicate: "P", Object: kb.Number(1)}}); err != nil {
		t.Fatal(err)
	}
}

// TestInferInvalidatesViaEpochs checks that Infer no longer tears down
// cached engines: the derived edges appear in the next query while an
// unrelated articulation's plan cache stays warm.
func TestInferInvalidatesViaEpochs(t *testing.T) {
	s := paperSystem(t)
	if _, err := s.Query(fixtures.ArtName, vehiclePriceQ); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Infer("carrier"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(fixtures.ArtName, vehiclePriceQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("query after Infer returned nothing")
	}
}

// TestExecuteVersioned pins the serving contract: the key versions the
// rows — unchanged key means byte-identical rows, any mutation changes
// the key.
func TestExecuteVersioned(t *testing.T) {
	s := paperSystem(t)
	q := query.MustParse(vehiclePriceQ)
	ctx := context.Background()
	r1, k1, err := s.Execute(ctx, fixtures.ArtName, q, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k2, err := s.QueryEpochKey(fixtures.ArtName); err != nil || k2 != k1 {
		t.Fatalf("QueryEpochKey = %q (err %v), want %q", k2, err, k1)
	}
	r2, k2, err := s.Execute(ctx, fixtures.ArtName, q, query.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if k2 != k1 || !r1.EqualRows(r2) {
		t.Fatalf("same epoch key must mean identical rows")
	}
	if err := s.AddFact("carrier", "Z1", "InstanceOf", kb.Term("SUV")); err != nil {
		t.Fatal(err)
	}
	_, k3, err := s.Execute(ctx, fixtures.ArtName, q, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatalf("epoch key unchanged after mutation")
	}
	if _, _, err := s.Execute(ctx, "nope", q, query.Options{}); err == nil {
		t.Fatalf("unknown articulation accepted")
	}
}

// TestQueryCtxCancellation threads a dead context through the registry
// path.
func TestQueryCtxCancellation(t *testing.T) {
	s := paperSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := query.MustParse(vehiclePriceQ)
	if _, _, err := s.Execute(ctx, fixtures.ArtName, q, query.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute returned %v, want context.Canceled", err)
	}
	if res, _, err := s.Execute(context.Background(), fixtures.ArtName, q, query.Options{}); err != nil || len(res.Rows) == 0 {
		t.Fatalf("live ctx query failed: %v", err)
	}
}

// TestInferOnArticulationSelfHeals covers the articulation ontology's
// own epoch: it participates in the engine as a source, so inferring
// derived edges over the articulation itself must invalidate cached
// plans without an engine rebuild.
func TestInferOnArticulationSelfHeals(t *testing.T) {
	s := paperSystem(t)
	if _, err := s.Query(fixtures.ArtName, vehiclePriceQ); err != nil {
		t.Fatal(err)
	}
	warm, err := s.Query(fixtures.ArtName, vehiclePriceQ)
	if err != nil || !warm.Stats.PlanCacheHit {
		t.Fatalf("warm query missed plan cache (err %v)", err)
	}
	k1, err := s.QueryEpochKey(fixtures.ArtName)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the articulation ontology itself (as Infer on the
	// articulation name would when it derives edges).
	art, ok := s.Ontology(fixtures.ArtName)
	if !ok {
		t.Fatal("articulation ontology not registered")
	}
	art.MustAddTerm("DerivedClass")
	art.MustRelate("DerivedClass", "SubclassOf", "Vehicle")
	k2, err := s.QueryEpochKey(fixtures.ArtName)
	if err != nil {
		t.Fatal(err)
	}
	if k2 == k1 {
		t.Fatalf("articulation mutation did not move the epoch key")
	}
	res, err := s.Query(fixtures.ArtName, vehiclePriceQ)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanCacheHit {
		t.Fatalf("stale plan served after articulation-ontology mutation")
	}
}

// TestRegisterKBChangesEpochKey pins the engine-identity component of
// the epoch key: swapping in a replacement store whose epoch count
// coincides with the old one must still change the key (the serving
// cache would otherwise serve the pre-swap rows as hits).
func TestRegisterKBChangesEpochKey(t *testing.T) {
	s := paperSystem(t)
	k1, err := s.QueryEpochKey(fixtures.ArtName)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh CarrierKB replays the same number of Adds, so its epoch
	// count equals the registered store's; only the engine identity can
	// tell the keys apart.
	if err := s.RegisterKB(fixtures.CarrierKB()); err != nil {
		t.Fatal(err)
	}
	k2, err := s.QueryEpochKey(fixtures.ArtName)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatalf("epoch key unchanged across a KB swap with coinciding epochs")
	}
}
