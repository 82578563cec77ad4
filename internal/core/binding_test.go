package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/kb"
	"repro/internal/query"
)

// engineNamed returns the engine s resolves for artName, read under the
// registry lock the way Execute reads it.
func engineNamed(t testing.TB, s *System, artName string) *query.Engine {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, err := s.engineLocked(artName)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// engineSource is the *query.Source e reads for name. Engine keeps its
// sources unexported, so the test reads the pointer by reflection.
func engineSource(e *query.Engine, name string) uintptr {
	return reflect.ValueOf(e).Elem().FieldByName("sources").MapIndex(reflect.ValueOf(name)).Pointer()
}

// articulateAgain registers a second articulation over carrier and
// factory, with the Fig. 2 rule set bar the rules naming "transport".
func articulateAgain(t testing.TB, s *System, name string) {
	t.Helper()
	set, err := parseRuleSet("carrier.Cars => factory.Vehicle\nfactory.Vehicle => (carrier.Cars v carrier.Trucks)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Articulate(name, "carrier", "factory", set, fixtures.GenOptions()); err != nil {
		t.Fatal(err)
	}
}

// TestArticulationsShareSourceRecords: two articulations over the same
// sources read one binding per source, so they share its index record.
func TestArticulationsShareSourceRecords(t *testing.T) {
	s := paperSystem(t)
	articulateAgain(t, s, "transport-again")
	a, b := engineNamed(t, s, fixtures.ArtName), engineNamed(t, s, "transport-again")
	for _, name := range []string{"carrier", "factory"} {
		bound := reflect.ValueOf(s.srcs[name]).Pointer()
		if engineSource(a, name) != bound || engineSource(b, name) != bound {
			t.Fatalf("%s: the two engines do not read the registry's one binding", name)
		}
	}
	if engineSource(a, fixtures.ArtName) != reflect.ValueOf(s.srcs[fixtures.ArtName]).Pointer() {
		t.Fatalf("the articulation's own ontology is not read through its binding")
	}
}

// TestUnrelatedArticulateKeepsEngine: articulating a new name changes no
// source transport reads, so transport keeps its engine, epoch key and
// cached plans.
func TestUnrelatedArticulateKeepsEngine(t *testing.T) {
	s := paperSystem(t)
	if _, err := s.Query(fixtures.ArtName, vehiclePriceQ); err != nil {
		t.Fatal(err)
	}
	e1 := engineNamed(t, s, fixtures.ArtName)
	k1, err := s.QueryEpochKey(fixtures.ArtName)
	if err != nil {
		t.Fatal(err)
	}
	articulateAgain(t, s, "transport-again")
	if _, err := s.Query("transport-again", vehiclePriceQ); err != nil {
		t.Fatal(err)
	}
	if engineNamed(t, s, fixtures.ArtName) != e1 {
		t.Fatalf("an unrelated Articulate dropped transport's engine")
	}
	if k2, err := s.QueryEpochKey(fixtures.ArtName); err != nil || k2 != k1 {
		t.Fatalf("an unrelated Articulate moved transport's epoch key (err %v)", err)
	}
	res, err := s.Query(fixtures.ArtName, vehiclePriceQ)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.PlanCacheHit {
		t.Fatalf("transport's next query missed the plan cache")
	}
}

// TestDropSourceFailsQuery: once a source is dropped, querying an
// articulation over it is an error, not the old engine's rows.
func TestDropSourceFailsQuery(t *testing.T) {
	s := paperSystem(t)
	if _, err := s.Query(fixtures.ArtName, vehiclePriceQ); err != nil {
		t.Fatal(err)
	}
	if !s.Drop("carrier") {
		t.Fatal("Drop reported carrier unregistered")
	}
	if res, err := s.Query(fixtures.ArtName, vehiclePriceQ); err == nil {
		t.Fatalf("query over a dropped source answered %d rows", len(res.Rows))
	}
	if _, bound := s.srcs["carrier"]; bound {
		t.Fatalf("the dropped name is still bound")
	}
}

// TestRegenerateDropsOnlyDependents: regenerating transport gives its
// name a new ontology, so transport's engine and the engine of an
// articulation composed over transport are dropped; an articulation
// that reads only carrier and factory keeps its engine.
func TestRegenerateDropsOnlyDependents(t *testing.T) {
	s := paperSystem(t)
	articulateAgain(t, s, "transport-again")
	composed, err := parseRuleSet("transport.Vehicle => carrier.Cars")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Articulate("fleet", fixtures.ArtName, "carrier", composed, fixtures.GenOptions()); err != nil {
		t.Fatal(err)
	}
	before := make(map[string]*query.Engine)
	for _, name := range []string{fixtures.ArtName, "transport-again", "fleet"} {
		before[name] = engineNamed(t, s, name)
	}
	if _, err := s.Regenerate(fixtures.ArtName, fixtures.GenOptions()); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	s.engMu.Lock()
	after := map[string]*query.Engine{}
	for name, e := range s.engines {
		after[name] = e
	}
	s.engMu.Unlock()
	s.mu.RUnlock()
	if after[fixtures.ArtName] != nil || after["fleet"] != nil {
		t.Fatalf("Regenerate kept an engine that reads transport: %v", after)
	}
	if after["transport-again"] != before["transport-again"] {
		t.Fatalf("Regenerate dropped an engine that does not read transport")
	}
	if engineNamed(t, s, "fleet") == before["fleet"] {
		t.Fatalf("the composed articulation's engine was not rebuilt")
	}
}

// scaledPaperSystem is the Fig. 2 system with n carrier and n factory
// vehicles of three facts each added to the fixture stores.
func scaledPaperSystem(t testing.TB, n int) *System {
	t.Helper()
	s := paperSystem(t)
	var cars, vehicles []kb.Fact
	for k := 0; k < n; k++ {
		car, veh := fmt.Sprintf("Car%d", k), fmt.Sprintf("Veh%d", k)
		cars = append(cars,
			kb.Fact{Subject: car, Predicate: "InstanceOf", Object: kb.Term([]string{"PassengerCar", "SUV", "Trucks"}[k%3])},
			kb.Fact{Subject: car, Predicate: "Price", Object: kb.Number(float64(500 + k*7%20000))},
			kb.Fact{Subject: car, Predicate: "Owner", Object: kb.String(fmt.Sprintf("Owner%d", k%50))})
		vehicles = append(vehicles,
			kb.Fact{Subject: veh, Predicate: "InstanceOf", Object: kb.Term([]string{"Truck", "GoodsVehicle"}[k%2])},
			kb.Fact{Subject: veh, Predicate: "Price", Object: kb.Number(float64(1000 + k*13%40000))},
			kb.Fact{Subject: veh, Predicate: "Weight", Object: kb.Number(float64(k % 8000))})
	}
	if _, err := s.AddFacts("carrier", cars); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddFacts("factory", vehicles); err != nil {
		t.Fatal(err)
	}
	return s
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// BenchmarkSharedRecordHeap reports the live heap of the Fig. 2 system
// with 40 000 vehicles of three facts per source (240 000 facts) after
// one articulation's engine has queried, and after a second
// articulation over the same two sources has too. The second engine
// shares both sources' records, so it should add only its own
// articulation's small record: two-engine heap at most 1.1× the one-engine
// heap. Run with -benchtime=1x; each iteration builds the world anew.
func BenchmarkSharedRecordHeap(b *testing.B) {
	const q = "SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p . FILTER ?p < 1500"
	var one, two float64
	for i := 0; i < b.N; i++ {
		s := scaledPaperSystem(b, 40000)
		articulateAgain(b, s, "transport-again")
		if _, err := s.Query(fixtures.ArtName, q); err != nil {
			b.Fatal(err)
		}
		one = liveHeapMB()
		if _, err := s.Query("transport-again", q); err != nil {
			b.Fatal(err)
		}
		two = liveHeapMB()
		runtime.KeepAlive(s)
	}
	b.ReportMetric(one, "heap-one-MB")
	b.ReportMetric(two, "heap-two-MB")
	b.ReportMetric(two/one, "two/one")
	if two > 1.1*one {
		b.Errorf("a second articulation over the same sources grew the heap %.2f× (%.1f → %.1f MB), want ≤ 1.1×", two/one, one, two)
	}
}
