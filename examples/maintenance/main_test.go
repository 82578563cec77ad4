package main

func Example() {
	main()
	// Output:
	// === catalog articulation ===
	// articulation catalog of (library, press): 5 terms, 15 bridges
	// graph catalog (5 nodes, 2 edges)
	//   node Creator
	//   node Monograph
	//   node Name
	//   node Periodical
	//   node Work
	//   edge Monograph -[SubclassOf]-> Work
	//   edge Periodical -[SubclassOf]-> Work
	//   bridge (catalog.Creator, "SIBridge", press.Creator)
	//   bridge (catalog.Monograph, "SIBridge", press.Monograph)
	//   bridge (catalog.Name, "SIBridge", press.Name)
	//   bridge (catalog.Periodical, "SIBridge", press.Periodical)
	//   bridge (catalog.Work, "SIBridge", press.Work)
	//   bridge (library.Author, "SIBridge", catalog.Creator)
	//   bridge (library.Book, "SIBridge", catalog.Monograph)
	//   bridge (library.Journal, "SIBridge", catalog.Periodical)
	//   bridge (library.Publication, "SIBridge", catalog.Work)
	//   bridge (library.Title, "SIBridge", catalog.Name)
	//   bridge (press.Creator, "SIBridge", catalog.Creator)
	//   bridge (press.Monograph, "SIBridge", catalog.Monograph)
	//   bridge (press.Name, "SIBridge", catalog.Name)
	//   bridge (press.Periodical, "SIBridge", catalog.Periodical)
	//   bridge (press.Work, "SIBridge", catalog.Work)
	//
	// library - press (free to change): [Basement Shelf]
	//
	// change {Shelf, Basement}: needs articulation update? false
	//   applied shelving reorganisation; articulation untouched
	//   system validates without regeneration ✔
	//
	// change {Author}: needs articulation update? true (affected: [Author])
	//   regenerated; 1 stale rule(s) skipped:
	//     library.Author => press.Creator (term library.Author not defined in ontology library)
	//   repaired articulation covers: library=[Book Journal Publication Title Writer] press=[Creator Monograph Name Periodical Work]
	//   system validates after repair ✔
}
