package main

func Example() {
	main()
	// Output:
	// === articulation ===
	// articulation trade of (shop, depot): 3 terms, 8 bridges
	// graph trade (3 nodes, 1 edges)
	//   node Bike
	//   node Cost
	//   node Item
	//   edge Bike -[SubclassOf]-> Item
	//   bridge (depot.Cost, "SIBridge", trade.Cost)
	//   bridge (depot.Item, "SIBridge", trade.Item)
	//   bridge (shop.Bike, "SIBridge", trade.Bike)
	//   bridge (shop.Price, "SIBridge", trade.Cost)
	//   bridge (shop.Product, "SIBridge", trade.Item)
	//   bridge (trade.Bike, "SIBridge", depot.Bicycle)
	//   bridge (trade.Cost, "SIBridge", depot.Cost)
	//   bridge (trade.Item, "SIBridge", depot.Item)
	// === bikes everywhere ===
	//   depot.Clunker7
	//   shop.SpeedsterX
	// === intersection (articulation ontology) ===
	// graph trade (3 nodes, 1 edges)
	//   node Bike
	//   node Cost
	//   node Item
	//   edge Bike -[SubclassOf]-> Item
}
