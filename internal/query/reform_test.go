package query

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kb"
	"repro/internal/ontology"
)

// tableOf returns source name's reformulation table as the engine
// publishes it for its next query.
func tableOf(eng *Engine, name string) *reformTable {
	return eng.validateEpochs()[slices.Index(eng.names, name)]
}

// reformTables validates eng's epochs, as a query's entry does, and
// returns the published tables by source name.
func reformTables(eng *Engine) map[string]*reformTable {
	tabs := eng.validateEpochs()
	out := make(map[string]*reformTable, len(tabs))
	for i, name := range eng.names {
		out[name] = tabs[i]
	}
	return out
}

// warmReformTables runs Q-sel until eng holds its plan and returns the
// tables it was compiled against.
func warmReformTables(t *testing.T, eng *Engine) map[string]*reformTable {
	t.Helper()
	checkPlannedMatchesSequential(t, eng, pushdownQSel)
	if res, err := runQuery(eng, pushdownQSel, Options{}); err != nil || !res.Stats.PlanCacheHit {
		t.Fatalf("Q-sel did not hit its cached plan (err %v)", err)
	}
	return reformTables(eng)
}

// checkReformTables fails unless, after a change, exactly the replaced
// sources got new tables and every plan was flushed; the answer still
// matches Sequential.
func checkReformTables(t *testing.T, eng *Engine, before map[string]*reformTable, replaced ...string) {
	t.Helper()
	for name, tab := range reformTables(eng) {
		if got, want := tab != before[name], slices.Contains(replaced, name); got != want {
			t.Errorf("%s's table replaced: %v, want %v", name, got, want)
		}
	}
	if n := len(eng.plans); n != 0 {
		t.Errorf("%d plans survived the change", n)
	}
	checkPlannedMatchesSequential(t, eng, pushdownQSel)
}

// TestReformTableAppendKeepsTables: appended facts flush the plans but
// rebuild no table — a table reads the ontologies and the registry only.
func TestReformTableAppendKeepsTables(t *testing.T) {
	eng, _ := scaledFig2Engine(t, 40)
	before := warmReformTables(t, eng)
	eng.sources["carrier"].KB.MustAdd("NewCar", "Price", kb.Number(500))
	eng.sources["factory"].KB.MustAdd("NewTruck", "InstanceOf", kb.Term("Vehicle"))
	checkReformTables(t, eng, before)
}

// TestReformTableSourceEditReplacesOne: a carrier ontology edit replaces
// carrier's table alone; factory's and the articulation's stay.
func TestReformTableSourceEditReplacesOne(t *testing.T) {
	eng, _ := scaledFig2Engine(t, 40)
	before := warmReformTables(t, eng)
	carrier := eng.sources["carrier"].Ont
	carrier.MustAddTerm("Hatchback")
	carrier.MustRelate("Hatchback", ontology.SubclassOf, "PassengerCar")
	checkReformTables(t, eng, before, "carrier")
	if subs := tableOf(eng, "carrier").subs["Cars"]; !slices.Contains(subs, "Hatchback") {
		t.Fatalf("carrier's rebuilt table misses the new subclass: Cars → %v", subs)
	}
}

// TestReformTableArticulationEditReplacesAll: every source's anchors read
// the articulation ontology, so an edit to it replaces every table.
func TestReformTableArticulationEditReplacesAll(t *testing.T) {
	eng, art := scaledFig2Engine(t, 40)
	before := warmReformTables(t, eng)
	art.Ont.MustAddTerm("Bicycle")
	checkReformTables(t, eng, before, eng.names...)
}

// TestReformTableRegistryEditReplacesAll: re-registering a conversion
// function moves the registry epoch, which replaces every table — the
// new table carries the new coefficients — and flushes the plans.
func TestReformTableRegistryEditReplacesAll(t *testing.T) {
	eng, art := scaledFig2Engine(t, 40)
	before := warmReformTables(t, eng)
	if err := art.Funcs.RegisterLinear("PSToEuroFn", "", 2, 0); err != nil {
		t.Fatal(err)
	}
	checkReformTables(t, eng, before, eng.names...)
	if c := tableOf(eng, "carrier").convs["Price"]; !c.linear || c.factor != 2 || c.offset != 0 {
		t.Fatalf("carrier Price converts through %+v after the re-registration", c)
	}
}

// TestReformTableMatchesBridgeWalk checks every table against the walk
// the engine used to repeat per plan and per scan: an articulation term's
// anchors are the SourceAnchors of the term and its articulation
// subclasses, counted before dedup; a source class's subclasses are
// Subclasses; a predicate's conversion candidates are the registered
// functions of its functional bridges into the articulation in BridgesFrom
// order, and it is linear when Linear declares the first one.
func TestReformTableMatchesBridgeWalk(t *testing.T) {
	fig2, _ := scaledFig2Engine(t, 0)
	engines := []*Engine{fig2}
	rng := rand.New(rand.NewSource(1))
	for c := pdConv(0); c < pdConvKinds; c++ {
		engines = append(engines, newPDWorld(rng, c, (c+1)%pdConvKinds).engine(t))
	}
	for _, eng := range engines {
		art := eng.art
		for _, name := range eng.names {
			tab, ont := tableOf(eng, name), eng.sources[name].Ont
			for _, term := range ont.Terms() {
				if want := ont.Subclasses(term); len(want) > 0 && !slices.Equal(tab.subs[term], want) {
					t.Errorf("%s: subclasses of %s are %v, want %v", name, term, tab.subs[term], want)
				}
			}
			if name == art.Ont.Name() {
				continue
			}
			for _, term := range art.Ont.Terms() {
				want, n := map[string]bool{}, 0
				for _, a := range append([]string{term}, art.Ont.Subclasses(term)...) {
					for _, ref := range art.SourceAnchors(a) {
						if ref.Ont == name {
							want[ref.Term] = true
							n++
						}
					}
				}
				if got := tab.anchors[term]; !maps.Equal(got, want) || tab.pairs[term] != n {
					t.Errorf("%s: %s anchors %v (%d pairs), want %v (%d)", name, term, got, tab.pairs[term], want, n)
				}
			}
			for _, pred := range ont.Terms() {
				var want []string
				for _, b := range art.BridgesFrom(ontology.MakeRef(name, pred)) {
					if b.Functional() && b.To.Ont == art.Ont.Name() && art.Funcs.Has(b.FuncName()) {
						want = append(want, b.FuncName())
					}
				}
				c := tab.convs[pred]
				if !slices.Equal(c.funcs, want) {
					t.Errorf("%s: %s converts through %v, want %v", name, pred, c.funcs, want)
				}
				if len(want) > 0 {
					f, o, ok := art.Funcs.Linear(want[0])
					if c.linear != ok || c.factor != f || c.offset != o {
						t.Errorf("%s: %s conversion %+v, Linear(%s) = %v, %v, %v", name, pred, c, want[0], f, o, ok)
					}
				}
			}
		}
	}
}
