package main

func Example() {
	main()
	// Output:
	// === transport articulation (Fig. 2) ===
	// articulation transport of (carrier, factory): 8 terms, 24 bridges
	// graph transport (8 nodes, 10 edges)
	//   node CargoCarrierVehicle
	//   node CarsTrucks
	//   node Owner
	//   node PassengerCar
	//   node Person
	//   node Price
	//   node Transportation
	//   node Vehicle
	//   edge CargoCarrierVehicle -[SubclassOf]-> CarsTrucks
	//   edge CargoCarrierVehicle -[SubclassOf]-> PassengerCar
	//   edge CargoCarrierVehicle -[SubclassOf]-> Transportation
	//   edge CargoCarrierVehicle -[SubclassOf]-> Vehicle
	//   edge CarsTrucks -[SubclassOf]-> Transportation
	//   edge Owner -[SubclassOf]-> Person
	//   edge PassengerCar -[SubclassOf]-> CarsTrucks
	//   edge PassengerCar -[SubclassOf]-> Transportation
	//   edge PassengerCar -[SubclassOf]-> Vehicle
	//   edge Vehicle -[SubclassOf]-> Transportation
	//   bridge (carrier.Cars, "SIBridge", transport.CarsTrucks)
	//   bridge (carrier.Cars, "SIBridge", transport.Vehicle)
	//   bridge (carrier.Owner, "SIBridge", transport.Owner)
	//   bridge (carrier.PassengerCar, "SIBridge", transport.PassengerCar)
	//   bridge (carrier.Person, "SIBridge", transport.Person)
	//   bridge (carrier.Price, "PSToEuroFn()", transport.Price)
	//   bridge (carrier.Transportation, "SIBridge", transport.Transportation)
	//   bridge (carrier.Trucks, "SIBridge", transport.CarsTrucks)
	//   bridge (factory.GoodsVehicle, "SIBridge", transport.CargoCarrierVehicle)
	//   bridge (factory.Person, "SIBridge", transport.Person)
	//   bridge (factory.Price, "DGToEuroFn()", transport.Price)
	//   bridge (factory.Transportation, "SIBridge", transport.Transportation)
	//   bridge (factory.Truck, "SIBridge", transport.CargoCarrierVehicle)
	//   bridge (factory.Vehicle, "SIBridge", transport.CarsTrucks)
	//   bridge (factory.Vehicle, "SIBridge", transport.Vehicle)
	//   bridge (transport.CargoCarrierVehicle, "SIBridge", carrier.Trucks)
	//   bridge (transport.CargoCarrierVehicle, "SIBridge", factory.CargoCarrier)
	//   bridge (transport.CargoCarrierVehicle, "SIBridge", factory.Vehicle)
	//   bridge (transport.PassengerCar, "SIBridge", factory.Vehicle)
	//   bridge (transport.Person, "SIBridge", factory.Person)
	//   bridge (transport.Price, "EuroToDGFn()", factory.Price)
	//   bridge (transport.Price, "EuroToPSFn()", carrier.Price)
	//   bridge (transport.Transportation, "SIBridge", factory.Transportation)
	//   bridge (transport.Vehicle, "SIBridge", factory.Vehicle)
	//
	// === all vehicles across both sources ===
	//   SELECT ?x WHERE ?x InstanceOf Vehicle
	//   carrier.MyCar
	//   carrier.Rig1
	//   carrier.Suv9
	//   factory.Truck77
	//   factory.Wagon3
	//
	// === vehicle prices, normalised to euros ===
	//   SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p
	//   carrier.MyCar	carrier.2000
	//   carrier.MyCar	3200
	//   carrier.Rig1	20000
	//   carrier.Suv9	8000
	//   factory.Truck77	20000
	//   factory.Wagon3	10000
	//
	// === who owns what (string attributes) ===
	//   SELECT ?x ?o WHERE ?x Owner ?o
	//   carrier.MyCar	"Alice"
	//   carrier.Suv9	"Bob"
	//
	// === articulation-level structure ===
	//   SELECT ?x WHERE ?x SubclassOf transport.Person
	//   carrier.Driver
	//   factory.Buyer
	//   transport.Owner
	//
	// === union ontology (DOT, first lines) ===
	//   digraph carrier_factory {
	//     node [shape=box, fontname="Helvetica"];
	//     n1 [label="carrier.Transportation"];
	//     n2 [label="carrier.Cars"];
	//     n3 [label="carrier.Trucks"];
	//     n4 [label="carrier.PassengerCar"];
	//     n5 [label="carrier.SUV"];
	//     n6 [label="carrier.MyCar"];
	//   ...
	//
	// === carrier - factory (changes here never touch the articulation) ===
	//   [2000 Model Price]
}
