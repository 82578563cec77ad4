package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/kb"
)

// extendQueries are checked against Sequential after every append: Q-sel
// (both Price scans pushed), a pushed > range, a three-way join, and a
// pushed range on Weight, a predicate only factory starts with.
var extendQueries = []Query{
	pushdownQSel,
	MustParse("SELECT ?x ?p WHERE ?x Price ?p . FILTER ?p > 3000"),
	MustParse("SELECT ?x ?p ?o WHERE ?x InstanceOf Vehicle . ?x Price ?p . ?x Owner ?o"),
	MustParse("SELECT ?x ?w WHERE ?x Weight ?w . FILTER ?w >= 100"),
}

// appendRandomFacts adds 1–6 facts to one source's store, drawn to hit
// every case the cache extension must get right: new and existing
// subjects, prices tying stored values, ±0 and NaN, term and string
// objects, and numbers under predicates whose numeric index has not been
// built (Weight until the Weight query first runs, Model never).
func appendRandomFacts(rng *rand.Rand, eng *Engine, step int) {
	name := []string{"carrier", "factory"}[rng.Intn(2)]
	store := eng.sources[name].KB
	for n := 1 + rng.Intn(6); n > 0; n-- {
		subj := fmt.Sprintf("Add%d_%d", step, n)
		if rng.Intn(2) == 0 {
			subj = store.FactAt(rng.Intn(store.Len())).Subject
		}
		var pred string
		var obj kb.Value
		switch rng.Intn(9) {
		case 0:
			pred, obj = "InstanceOf", kb.Term([]string{"PassengerCar", "SUV", "Truck", "GoodsVehicle"}[rng.Intn(4)])
		case 1:
			pred, obj = "Price", kb.Number(float64(rng.Intn(30000)))
		case 2: // ties a stored value
			var vals []float64
			store.ForEachByPredicate("Price", func(f kb.Fact) bool {
				if f.Object.IsNumber() {
					vals = append(vals, f.Object.Num)
				}
				return true
			})
			pred, obj = "Price", kb.Number(vals[rng.Intn(len(vals))])
		case 3:
			pred, obj = "Price", kb.Number([]float64{0, math.Copysign(0, -1), math.NaN()}[rng.Intn(3)])
		case 4:
			pred, obj = "Price", kb.String(fmt.Sprint(rng.Intn(5000)))
		case 5:
			pred, obj = "Owner", kb.String(fmt.Sprintf("Owner%d", rng.Intn(60)))
		case 6:
			pred, obj = "Owner", kb.Term(fmt.Sprintf("Holder%d", rng.Intn(8)))
		case 7:
			pred, obj = "Weight", kb.Number(float64(rng.Intn(8000)))
		default:
			pred, obj = "Model", kb.Number(float64(rng.Intn(9)))
		}
		store.MustAdd(subj, pred, obj)
	}
}

// checkCachesMatchFresh fails unless every source's record on eng equals
// a from-scratch build: the record of a fresh engine over separate Source
// values holding the same ontologies and stores — the same state, tables
// and numeric indexes (each built fresh on the separate source).
func checkCachesMatchFresh(t *testing.T, eng *Engine) {
	t.Helper()
	separate := make(map[string]*Source, len(eng.sources))
	for name, src := range eng.sources {
		separate[name] = &Source{Ont: src.Ont, KB: src.KB}
	}
	twin, err := NewEngine(eng.art, separate)
	if err != nil {
		t.Fatal(err)
	}
	twin.validateEpochs()
	for _, name := range eng.names {
		rec, fresh := eng.index(name), twin.index(name)
		if rec == fresh {
			t.Fatalf("%s: the twin over separate sources shares eng's record", name)
		}
		if rec.state != fresh.state || !reflect.DeepEqual(rec.edges, fresh.edges) {
			t.Fatalf("%s: extended record's state or edge index differs from a fresh build", name)
		}
		if !reflect.DeepEqual(rec.quals, fresh.quals) {
			t.Fatalf("%s: extended qualification table differs from a fresh build", name)
		}
		if !reflect.DeepEqual(rec.facts, fresh.facts) {
			t.Fatalf("%s: extended fact-ordinal cache differs from a fresh build", name)
		}
		for pred, ix := range rec.nums {
			if want := separate[name].numIndex(pred); !reflect.DeepEqual(ix, want) {
				t.Fatalf("%s %s: extended numeric index differs from a fresh build:\n got %+v\nwant %+v", name, pred, ix, want)
			}
		}
	}
}

// TestAppendExtendedCachesMatchFresh is the extension's differential:
// seeded interleavings of appends and queries on the scaled Fig. 2 world,
// where after every step each extended cache equals a fresh build and
// every query's planned rows equal Sequential's, through two engines that
// share every source. The carrier record and its Price index must stay
// the same objects throughout — grown, never rebuilt — whichever engine
// healed them.
func TestAppendExtendedCachesMatchFresh(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			eng, _ := scaledFig2Engine(t, 400)
			peer := peerEngine(t, eng)
			checkPlannedMatchesSequential(t, eng, pushdownQSel)
			carrier := eng.index("carrier")
			priceIx := carrier.nums["Price"]
			for step := 0; step < 30; step++ {
				// One to three append bursts land before the caches
				// heal, so one extension may span several of them.
				for burst := rng.Intn(3); burst >= 0; burst-- {
					appendRandomFacts(rng, eng, 3*step+burst)
				}
				// The engines take turns healing the shared records.
				first, second := eng, peer
				if step%2 == 1 {
					first, second = peer, eng
				}
				first.validateEpochs()
				checkCachesMatchFresh(t, eng)
				// Weight joins the rotation halfway, so its index is
				// built mid-run and extended afterwards.
				qs := extendQueries[:len(extendQueries)-1]
				if step >= 15 {
					qs = extendQueries
				}
				for _, q := range qs {
					checkPlannedMatchesSequential(t, first, q)
					checkPlannedMatchesSequential(t, second, q)
				}
				checkCachesMatchFresh(t, eng)
			}
			if priceIx == nil || eng.index("carrier") != carrier || carrier.nums["Price"] != priceIx {
				t.Fatalf("appends rebuilt the carrier record instead of extending it")
			}
			if peer.index("carrier") != carrier {
				t.Fatalf("the peer engine holds its own carrier record")
			}
			if eng.index("factory").nums["Weight"] == nil {
				t.Fatalf("the Weight query never built its index")
			}
		})
	}
}

// TestAppendHealRaceHammer: after each append, 8 goroutines query at once
// and race to heal the caches; every answer must equal Sequential's, and
// -race must see no unsynchronised access to the extended caches.
func TestAppendHealRaceHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eng, _ := scaledFig2Engine(t, 200)
	checkPlannedMatchesSequential(t, eng, pushdownQSel)
	for step := 0; step < 12; step++ {
		appendRandomFacts(rng, eng, step)
		hammerMatchesSequential(t, step, []*Engine{eng})
	}
}

// hammerMatchesSequential runs 8 goroutines' queries at once, spread over
// engs, and fails unless every answer equals Sequential's.
func hammerMatchesSequential(t *testing.T, step int, engs []*Engine) {
	t.Helper()
	got := make([]*Result, 8)
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = runQuery(engs[g%len(engs)], extendQueries[g%len(extendQueries)], Options{Workers: 1 + g%3})
		}()
	}
	wg.Wait()
	for g, res := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		q := extendQueries[g%len(extendQueries)]
		want, err := runQuery(engs[0], q, Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		if !want.EqualRows(res) {
			t.Fatalf("step %d goroutine %d: %s diverged from sequential after a concurrent heal", step, g, q)
		}
	}
}

// TestSharedRecordRaceHammer: two articulations' engines over the same
// sources query at once after each append, racing each other to heal the
// records they share; every answer must equal Sequential's, and -race
// must see no unsynchronised access to a shared record.
func TestSharedRecordRaceHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eng, _ := scaledFig2Engine(t, 200)
	res, _, _ := paperPieces(t) // a second transport articulation, not eng's
	other := make(map[string]*Source, 2)
	for _, name := range []string{"carrier", "factory"} {
		other[name] = eng.sources[name]
	}
	peer, err := NewEngine(res.Art, other)
	if err != nil {
		t.Fatal(err)
	}
	engs := []*Engine{eng, peer}
	for step := 0; step < 12; step++ {
		appendRandomFacts(rng, eng, step)
		hammerMatchesSequential(t, step, engs)
	}
	if eng.index("carrier") != peer.index("carrier") || eng.index("factory") != peer.index("factory") {
		t.Fatalf("two articulations over the same sources hold separate records")
	}
}

// TestSharedRecordPeerMissesPlanCache: after an append that engine A's
// query healed into the shared record, engine B's record is already
// fresh, yet B's plans were compiled at the old state — B must miss its
// plan cache and see the new row.
func TestSharedRecordPeerMissesPlanCache(t *testing.T) {
	eng, _ := scaledFig2Engine(t, 40)
	peer := peerEngine(t, eng)
	for _, e := range []*Engine{eng, peer} {
		checkPlannedMatchesSequential(t, e, pushdownQSel)
	}
	store := eng.sources["carrier"].KB
	store.MustAdd("NewCar", "InstanceOf", kb.Term("PassengerCar"))
	store.MustAdd("NewCar", "Price", kb.Number(500)) // 800 EUR, inside the range
	if got := rows(t, eng, pushdownQSel.String()); got.Stats.PlanCacheHit || !hasRow(got, "carrier.NewCar", "800") {
		t.Fatalf("engine A: plan cache hit %v, rows %v", got.Stats.PlanCacheHit, got.Rows)
	}
	got := rows(t, peer, pushdownQSel.String())
	if got.Stats.PlanCacheHit {
		t.Fatalf("engine B served a plan compiled before the append")
	}
	if !hasRow(got, "carrier.NewCar", "800") {
		t.Fatalf("engine B misses the appended row: %v", got.Rows)
	}
	if again := rows(t, peer, pushdownQSel.String()); !again.Stats.PlanCacheHit {
		t.Fatalf("engine B did not re-cache its recompiled plan")
	}
}

// BenchmarkQueryAfterAppend is the cost of the first pushed Q-sel after
// a 128-fact carrier append on the Fig. 2 world scaled to 40 000
// vehicles: the engine brings its caches up to the new state before the
// query scans. The append itself is not timed.
func BenchmarkQueryAfterAppend(b *testing.B) {
	eng, _ := scaledFig2Engine(b, 40000)
	store := eng.sources["carrier"].KB
	if _, err := runQuery(eng, pushdownQSel, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 32; k++ {
			inst := fmt.Sprintf("Append%d_%d", i, k)
			store.MustAdd(inst, "InstanceOf", kb.Term("PassengerCar"))
			store.MustAdd(inst, "Price", kb.Number(float64(500+(i*32+k)*7%20000)))
			store.MustAdd(inst, "Owner", kb.String(fmt.Sprintf("Owner%d", k)))
			store.MustAdd(inst, "Model", kb.String(fmt.Sprintf("M%d", k%7)))
		}
		b.StartTimer()
		if _, err := runQuery(eng, pushdownQSel, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
