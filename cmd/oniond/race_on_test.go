//go:build race

package main

// raceEnabled reports whether the race detector instruments this build;
// exact allocation-count assertions get a small slack under it (the
// race runtime empties sync.Pools at random, so encoding/json's pooled
// encoder state is allocated afresh).
const raceEnabled = true
