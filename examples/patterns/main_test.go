package main

func Example() {
	main()
	// Output:
	// === fleet:?x:Driver matches ===
	//   ?x = Truck
	//   ?x = Van
	//
	// === Truck(O:Owner, Model): 1 match(es) ===
	//
	// === fuzzy 'Lorry' matches 1 node(s) (truck/lorry are synonyms) ===
	//
	// === extract(Truck(O:Owner, Model)) ===
	// graph fleet (3 nodes, 2 edges)
	//   node Model
	//   node Owner
	//   node Truck
	//   edge Truck -[AttributeOf]-> Model
	//   edge Truck -[AttributeOf]-> Owner
	//
	// === pattern rule: ?x with Price => trade.PricedItem ===
	//   (fleet.Truck, "SIBridge", trade.PricedItem)
	//   (fleet.Van, "SIBridge", trade.PricedItem)
	//
	// === the viewer's tree rendering ===
	// fleet (7 terms, 8 relationships)
	// Driver
	// Vehicle
	//    ├─ Truck  [attr: Model, Owner, Price] {drivenBy→Driver}
	//    └─ Van  [attr: Price] {drivenBy→Driver}
}
