package fixtures

import (
	"testing"

	"repro/internal/articulation"
	"repro/internal/ontology"
)

func ref(s string) ontology.Ref { return ontology.MustParseRef(s) }

// TestFigure2 regenerates the paper's Fig. 2 articulation and checks every
// structure the paper describes.
func TestFigure2(t *testing.T) {
	res, carrier, factory := GenerateTransport()
	art := res.Art

	if err := art.Validate(ontology.MapResolver{"carrier": carrier, "factory": factory}); err != nil {
		t.Fatalf("articulation invalid: %v", err)
	}
	if len(res.Skipped) != 0 {
		t.Fatalf("rules skipped: %v", res.Skipped)
	}
	if len(res.MissingFuncs) != 0 {
		t.Fatalf("missing conversion functions: %v", res.MissingFuncs)
	}

	// The articulation ontology holds the semantically shared terms.
	for _, term := range []string{
		"Transportation", "Vehicle", "PassengerCar",
		"CargoCarrierVehicle", "CarsTrucks", "Person", "Owner", "Price",
	} {
		if !art.Ont.HasTerm(term) {
			t.Errorf("articulation missing term %s; has %v", term, art.Ont.Terms())
		}
	}

	// Simple rule carrier.Cars => factory.Vehicle: the three-edge
	// translation of §4.1.
	for _, b := range [][3]string{
		{"carrier.Cars", articulation.BridgeLabel, "transport.Vehicle"},
		{"factory.Vehicle", articulation.BridgeLabel, "transport.Vehicle"},
		{"transport.Vehicle", articulation.BridgeLabel, "factory.Vehicle"},
	} {
		if !art.HasBridge(ref(b[0]), b[1], ref(b[2])) {
			t.Errorf("missing bridge %v", b)
		}
	}

	// Cascaded rule through transport.PassengerCar.
	if !art.HasBridge(ref("carrier.PassengerCar"), articulation.BridgeLabel, ref("transport.PassengerCar")) ||
		!art.HasBridge(ref("transport.PassengerCar"), articulation.BridgeLabel, ref("factory.Vehicle")) {
		t.Errorf("cascaded rule bridges missing")
	}

	// Conjunction: CargoCarrierVehicle subclass of conjuncts and RHS, and
	// the common subclasses GoodsVehicle/Truck folded in.
	ccv := ref("transport.CargoCarrierVehicle")
	for _, to := range []string{"factory.CargoCarrier", "factory.Vehicle", "carrier.Trucks"} {
		if !art.HasBridge(ccv, articulation.BridgeLabel, ref(to)) {
			t.Errorf("CargoCarrierVehicle missing bridge to %s", to)
		}
	}
	for _, from := range []string{"factory.GoodsVehicle", "factory.Truck"} {
		if !art.HasBridge(ref(from), articulation.BridgeLabel, ccv) {
			t.Errorf("common subclass %s not folded into CargoCarrierVehicle", from)
		}
	}

	// Disjunction: CarsTrucks with Cars, Trucks and Vehicle beneath it.
	ct := ref("transport.CarsTrucks")
	for _, from := range []string{"carrier.Cars", "carrier.Trucks", "factory.Vehicle"} {
		if !art.HasBridge(ref(from), articulation.BridgeLabel, ct) {
			t.Errorf("CarsTrucks missing member %s", from)
		}
	}

	// Intra-articulation rule: Owner SubclassOf Person inside transport.
	if !art.Ont.Related("Owner", ontology.SubclassOf, "Person") {
		t.Errorf("transport.Owner => transport.Person edge missing")
	}

	// Functional rules: all four currency edges present and invertible.
	for _, fb := range [][3]string{
		{"carrier.Price", "PSToEuroFn()", "transport.Price"},
		{"transport.Price", "EuroToPSFn()", "carrier.Price"},
		{"factory.Price", "DGToEuroFn()", "transport.Price"},
		{"transport.Price", "EuroToDGFn()", "factory.Price"},
	} {
		if !art.HasBridge(ref(fb[0]), fb[1], ref(fb[2])) {
			t.Errorf("missing functional bridge %v", fb)
		}
	}
	// MyCar's price of 2000 pounds sterling converts to euros and back.
	euros, err := art.Funcs.Apply("PSToEuroFn", 2000)
	if err != nil {
		t.Fatal(err)
	}
	back, err := art.Funcs.Apply("EuroToPSFn", euros)
	if err != nil {
		t.Fatal(err)
	}
	if diff := back - 2000; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("currency round trip = %v, want 2000", back)
	}
	if euros != 3200 {
		t.Errorf("MyCar's 2000 GBP = %v EUR, want 3200", euros)
	}

	// Structure inheritance (§4.2): Vehicle under Transportation inside
	// the articulation, inherited from the sources.
	if !art.Ont.IsA("Vehicle", "Transportation") {
		t.Errorf("inherited structure missing Vehicle -> Transportation:\n%s", art.Ont)
	}
	if !art.Ont.IsA("PassengerCar", "Vehicle") {
		t.Errorf("inherited structure missing PassengerCar -> Vehicle:\n%s", art.Ont)
	}
	if !art.Ont.IsA("PassengerCar", "Transportation") {
		t.Errorf("inherited structure missing PassengerCar -> Transportation:\n%s", art.Ont)
	}

	// The articulation must stay small relative to the sources — that is
	// the scalability point of keeping sources independent.
	if art.Ont.NumTerms() >= carrier.NumTerms()+factory.NumTerms() {
		t.Errorf("articulation (%d terms) not smaller than combined sources (%d)",
			art.Ont.NumTerms(), carrier.NumTerms()+factory.NumTerms())
	}
}

func TestFixtureOntologiesValid(t *testing.T) {
	if err := Carrier().Validate(); err != nil {
		t.Fatalf("carrier invalid: %v", err)
	}
	if err := Factory().Validate(); err != nil {
		t.Fatalf("factory invalid: %v", err)
	}
	if TransportRules().Len() < 10 {
		t.Fatalf("rule set unexpectedly small: %d", TransportRules().Len())
	}
}

func TestFixtureDeterminism(t *testing.T) {
	r1, _, _ := GenerateTransport()
	r2, _, _ := GenerateTransport()
	if r1.Art.String() != r2.Art.String() {
		t.Fatalf("articulation generation not deterministic")
	}
}
