package main

func Example() {
	main()
	// Output:
	// === step 1: haulage x maker ===
	// SKAT: 6 suggested, 2 accepted, 2 rejected in 2 round(s)
	// haulage.Price => maker.Cost
	// haulage.Truck => maker.Lorry
	// articulation logistics: 2 terms, 6 bridges
	//
	// === step 2: logistics x insurer ===
	// SKAT: 2 suggested, 1 accepted in 2 round(s); 1 expert rule added
	// logistics.Lorry => insurer.MotorVehicle
	// logistics.Lorry => insurer.Asset
	// articulation federation: 2 terms, 6 bridges
	//
	// === union over the full federation ===
	// terms: 9, relationships: 11, components: 2
	// insurer - federation (free to change): [Asset Holder MotorVehicle Policy Premium]
}
