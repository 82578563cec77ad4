// Package fixtures reconstructs the running example of the paper (EDBT
// 2000, Fig. 2): the carrier and factory source ontologies, the
// articulation rule set that produces the transport articulation ontology,
// and the currency-conversion functions of §4.1's functional rules.
//
// Tests (TestFigure2 checks the reconstruction), benchmarks and the
// examples/transportation program all build on these fixtures, so the
// reconstruction lives in one place.
package fixtures

import (
	"repro/internal/articulation"
	"repro/internal/ontology"
	"repro/internal/rules"
)

// ArtName is the articulation ontology's name in the running example.
const ArtName = "transport"

// Carrier builds the carrier source ontology of Fig. 2: a transport
// operator's view with Cars/Trucks hierarchies, an instance MyCar, and
// attributes priced in pounds sterling.
func Carrier() *ontology.Ontology {
	o := ontology.New("carrier")
	for _, t := range []string{
		"Transportation", "Cars", "Trucks", "PassengerCar", "SUV",
		"MyCar", "Person", "Driver", "Owner", "Model", "Price", "2000",
	} {
		o.MustAddTerm(t)
	}
	rel := [][3]string{
		{"Cars", ontology.SubclassOf, "Transportation"},
		{"Trucks", ontology.SubclassOf, "Transportation"},
		{"PassengerCar", ontology.SubclassOf, "Cars"},
		{"SUV", ontology.SubclassOf, "Cars"},
		{"Driver", ontology.SubclassOf, "Person"},
		{"MyCar", ontology.InstanceOf, "PassengerCar"},
		{"Cars", ontology.AttributeOf, "Price"},
		{"Cars", ontology.AttributeOf, "Owner"},
		{"Trucks", ontology.AttributeOf, "Model"},
		{"Trucks", ontology.AttributeOf, "Owner"},
		{"Cars", "drivenBy", "Driver"},
		{"MyCar", "Price", "2000"},
	}
	for _, r := range rel {
		o.MustRelate(r[0], r[1], r[2])
	}
	return o
}

// Factory builds the factory source ontology of Fig. 2: a manufacturer's
// view with Vehicle/CargoCarrier hierarchies, buyers, and prices in Dutch
// guilders.
func Factory() *ontology.Ontology {
	o := ontology.New("factory")
	for _, t := range []string{
		"Transportation", "Vehicle", "CargoCarrier", "GoodsVehicle", "Truck",
		"Factory", "Person", "Buyer", "Price", "Weight",
	} {
		o.MustAddTerm(t)
	}
	rel := [][3]string{
		{"Vehicle", ontology.SubclassOf, "Transportation"},
		{"CargoCarrier", ontology.SubclassOf, "Transportation"},
		{"GoodsVehicle", ontology.SubclassOf, "Vehicle"},
		{"GoodsVehicle", ontology.SubclassOf, "CargoCarrier"},
		{"Truck", ontology.SubclassOf, "GoodsVehicle"},
		{"Buyer", ontology.SubclassOf, "Person"},
		{"Vehicle", ontology.AttributeOf, "Price"},
		{"Vehicle", ontology.AttributeOf, "Weight"},
		{"Factory", "sells", "Vehicle"},
		{"Buyer", "buysFrom", "Factory"},
	}
	for _, r := range rel {
		o.MustRelate(r[0], r[1], r[2])
	}
	return o
}

// TransportRuleText is the articulation rule set of the running example in
// parseable rule syntax. It exercises every rule form of §4.1: simple
// implication (with the namesake-equivalence translation), a cascaded
// implication through transport.PassengerCar, a conjunction (the
// CargoCarrierVehicle example), a disjunction (the CarsTrucks example),
// intra-articulation structuring (Owner => Person), and the two-way
// currency conversion functions.
const TransportRuleText = `
# Fig. 2 articulation rules: carrier x factory -> transport
carrier.Transportation => factory.Transportation
carrier.Cars => factory.Vehicle
carrier.PassengerCar => transport.PassengerCar => factory.Vehicle
(factory.CargoCarrier ^ factory.Vehicle) => carrier.Trucks
factory.Vehicle => (carrier.Cars v carrier.Trucks)
carrier.Person => factory.Person
carrier.Owner => transport.Owner
transport.Owner => transport.Person
carrier.Person => transport.Person
PSToEuroFn() : carrier.Price => transport.Price
EuroToPSFn() : transport.Price => carrier.Price
DGToEuroFn() : factory.Price => transport.Price
EuroToDGFn() : transport.Price => factory.Price
`

// TransportRules parses TransportRuleText.
func TransportRules() *rules.Set {
	set, err := rules.ParseSetString(TransportRuleText)
	if err != nil {
		panic("fixtures: parsing transport rules: " + err.Error())
	}
	return set
}

// Currency conversion rates of the running example (fixed early-2000
// values; the euro conversion rate for the guilder was fixed by treaty).
const (
	PoundPerEuro   = 0.625   // 1 euro = 0.625 GBP
	GuilderPerEuro = 2.20371 // 1 euro = 2.20371 NLG (fixed)
)

// TransportFuncs registers the four conversion functions used by the
// functional rules: pounds sterling and Dutch guilders to and from euros.
func TransportFuncs() *articulation.FuncRegistry {
	reg := articulation.NewFuncRegistry()
	mustRegister(reg.RegisterLinear("PSToEuroFn", "EuroToPSFn", 1/PoundPerEuro, 0))
	mustRegister(reg.RegisterLinear("DGToEuroFn", "EuroToDGFn", 1/GuilderPerEuro, 0))
	return reg
}

func mustRegister(err error) {
	if err != nil {
		panic("fixtures: registering conversion functions: " + err.Error())
	}
}

// GenOptions returns the generation options of the running example:
// conversion functions registered and structure inheritance on.
func GenOptions() articulation.Options {
	return articulation.Options{
		Funcs:            TransportFuncs(),
		InheritStructure: true,
	}
}

// GenerateTransport builds the full Fig. 2 articulation: carrier and
// factory articulated into transport, with structure inheritance on.
func GenerateTransport() (*articulation.Result, *ontology.Ontology, *ontology.Ontology) {
	carrier, factory := Carrier(), Factory()
	res, err := articulation.Generate(ArtName, carrier, factory, TransportRules(), GenOptions())
	if err != nil {
		panic("fixtures: generating transport articulation: " + err.Error())
	}
	return res, carrier, factory
}
