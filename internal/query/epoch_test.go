package query

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fixtures"
	"repro/internal/kb"
)

// TestEpochSelfHealsStaleCaches is the ROADMAP-footgun regression: a
// direct NewEngine user mutates a source KB between queries and the next
// query must see the new facts without any explicit flush — the epoch
// check at query entry heals the stale plans and indexes.
func TestEpochSelfHealsStaleCaches(t *testing.T) {
	res, carrier, factory := paperPieces(t)
	carrierKB := fixtures.CarrierKB()
	e, err := NewEngine(res.Art, map[string]*Source{
		"carrier": {Ont: carrier, KB: carrierKB},
		"factory": {Ont: factory, KB: fixtures.FactoryKB()},
	})
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"
	before := rows(t, e, q)
	if hasRow(before, "carrier.NewCar", "4000") {
		t.Fatalf("world already contains the fact to be added")
	}
	// Warm the plan cache and prove it stays warm while nothing mutates.
	warm := rows(t, e, q)
	if !warm.Stats.PlanCacheHit {
		t.Fatalf("second identical query missed the plan cache")
	}

	carrierKB.MustAdd("NewCar", "InstanceOf", kb.Term("PassengerCar"))
	carrierKB.MustAdd("NewCar", "Price", kb.Number(2500)) // 4000 EUR via PSToEuroFn

	after := rows(t, e, q)
	if after.Stats.PlanCacheHit {
		t.Fatalf("stale plan survived a KB mutation")
	}
	if !hasRow(after, "carrier.NewCar", "4000") {
		t.Fatalf("self-heal missed the new fact; rows: %v", after.Rows)
	}
	if len(after.Rows) != len(before.Rows)+1 {
		t.Fatalf("rows = %d, want %d", len(after.Rows), len(before.Rows)+1)
	}
	// The next query re-hits the recompiled plan: healing is one-shot,
	// not a permanent cache bypass.
	if again := rows(t, e, q); !again.Stats.PlanCacheHit {
		t.Fatalf("plan cache not rebuilt after self-heal")
	}
}

// TestEpochSelfHealsOntologyMutation covers the ontology side: relating
// new terms in a source graph must invalidate the engine's per-source
// edge index and qualified-name table without an explicit call.
func TestEpochSelfHealsOntologyMutation(t *testing.T) {
	res, carrier, factory := paperPieces(t)
	e, err := NewEngine(res.Art, map[string]*Source{
		"carrier": {Ont: carrier},
		"factory": {Ont: factory},
	})
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT ?x WHERE ?x SubclassOf carrier.Cars"
	before := rows(t, e, q)

	carrier.MustAddTerm("Hatchback")
	carrier.MustRelate("Hatchback", "SubclassOf", "Cars")

	after := rows(t, e, q)
	if !hasRow(after, "carrier.Hatchback") {
		t.Fatalf("edge index not refreshed after ontology mutation; rows: %v", after.Rows)
	}
	if len(after.Rows) != len(before.Rows)+1 {
		t.Fatalf("rows = %d, want %d", len(after.Rows), len(before.Rows)+1)
	}
}

// TestEpochVectorAndKey pins the epoch-vector contract the serving
// layer's cache keys rely on: stable while nothing mutates, changed by
// any source mutation, and engine-local.
func TestEpochVectorAndKey(t *testing.T) {
	res, carrier, factory := paperPieces(t)
	carrierKB := fixtures.CarrierKB()
	e, err := NewEngine(res.Art, map[string]*Source{
		"carrier": {Ont: carrier, KB: carrierKB},
		"factory": {Ont: factory, KB: fixtures.FactoryKB()},
	})
	if err != nil {
		t.Fatal(err)
	}
	v1, k1 := e.EpochVector(), e.EpochKey()
	if len(v1) != 3 { // transport articulation + two sources
		t.Fatalf("EpochVector len = %d, want 3", len(v1))
	}
	if k2 := e.EpochKey(); k2 != k1 {
		t.Fatalf("EpochKey unstable without mutation")
	}
	if _, err := runQuery(e, MustParse("SELECT ?x WHERE ?x InstanceOf Vehicle"), Options{}); err != nil {
		t.Fatal(err)
	}
	if k2 := e.EpochKey(); k2 != k1 {
		t.Fatalf("query execution changed the epoch key")
	}
	carrierKB.MustAdd("Extra", "InstanceOf", kb.Term("SUV"))
	if k3 := e.EpochKey(); k3 == k1 {
		t.Fatalf("EpochKey unchanged after KB mutation")
	}
	v2 := e.EpochVector()
	changed := 0
	for i := range v1 {
		if v1[i] != v2[i] {
			changed++
		}
	}
	if changed != 1 {
		t.Fatalf("mutating one source changed %d vector entries: %v -> %v", changed, v1, v2)
	}
}

// peerEngine is a second engine over eng's articulation and the very
// same Source values, so the two share every source's record.
func peerEngine(t testing.TB, eng *Engine) *Engine {
	t.Helper()
	peer, err := NewEngine(eng.art, eng.sources)
	if err != nil {
		t.Fatal(err)
	}
	return peer
}

// TestKBSwapDropsFactQuals: a Source's KB pointer swapped in place needs
// no flush call — the fact-ordinal qualification cache goes with the
// rest of the record, or indexed scans would keep emitting the old
// store's subjects by ordinal while the sequential reference reads the
// new store. Both engines over the shared source read the new store.
func TestKBSwapDropsFactQuals(t *testing.T) {
	eng, q := projWideEngine(t, 8)
	peer := peerEngine(t, eng)
	for _, e := range []*Engine{eng, peer} {
		if _, err := runQuery(e, q, Options{Workers: 1}); err != nil { // builds the fact-ordinal cache
			t.Fatal(err)
		}
	}
	swapped := kb.New("pw1")
	for k := 0; k < 8; k++ {
		inst := fmt.Sprintf("swapped%c", 'A'+k)
		swapped.MustAdd(inst, "InstanceOf", kb.Term("Item"))
		swapped.MustAdd(inst, "P", kb.Number(float64(k)))
	}
	eng.sources["pw1"].KB = swapped
	for _, e := range []*Engine{eng, peer} {
		want, err := runQuery(e, q, Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		if !hasRow(want, "pw1.swappedA", "0") {
			t.Fatalf("sequential does not read the swapped store: %v", want.Rows)
		}
		for _, opts := range []Options{{Workers: 1}, {Workers: 4}, {Workers: 4, MemoryLimit: 1 << 16}} {
			got, err := runQuery(e, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !want.EqualRows(got) {
				t.Errorf("%+v: planned rows after a KB swap diverged from sequential:\n got %v\nwant %v", opts, got.Rows, want.Rows)
			}
		}
	}
}

// pushdownQSel is Q-sel: its Price scans are pushed and read the numeric
// index.
var pushdownQSel = MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p . FILTER ?p < 1500")

// checkPlannedMatchesSequential runs q planned (one worker, a pool, a
// budget) and fails on any divergence from the Sequential rows.
func checkPlannedMatchesSequential(t *testing.T, eng *Engine, q Query) *Result {
	t.Helper()
	want, err := runQuery(eng, q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{Workers: 1}, {Workers: 4}, {Workers: 4, MemoryLimit: 1 << 16}} {
		got, err := runQuery(eng, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !want.EqualRows(got) {
			t.Fatalf("%+v: planned rows diverged from sequential: %d rows, want %d", opts, len(got.Rows), len(want.Rows))
		}
	}
	return want
}

// TestEpochBumpExtendsNumIndex: facts appended to a source's store
// extend its numeric index in place — the same cache, now holding the
// new ordinals and equal entry for entry to a from-scratch build — and
// the next answer carries them. The other source's index is untouched,
// and a second engine over the same sources reads the one extended
// index rather than building its own.
func TestEpochBumpExtendsNumIndex(t *testing.T) {
	eng, _ := scaledFig2Engine(t, 40)
	peer := peerEngine(t, eng)
	checkPlannedMatchesSequential(t, eng, pushdownQSel)
	checkPlannedMatchesSequential(t, peer, pushdownQSel)
	carrierIx, factoryIx := eng.index("carrier").nums["Price"], eng.index("factory").nums["Price"]
	if carrierIx == nil || factoryIx == nil {
		t.Fatalf("a pushed query did not build both Price indexes")
	}
	factoryEnts := slices.Clone(factoryIx.ents)
	store := eng.sources["carrier"].KB
	store.MustAdd("NewCar", "InstanceOf", kb.Term("PassengerCar"))
	store.MustAdd("NewCar", "Price", kb.Number(500)) // 800 EUR, inside the range
	eng.validateEpochs()
	if got := eng.index("carrier").nums["Price"]; got != carrierIx {
		t.Fatalf("an append replaced the carrier Price index instead of extending it")
	}
	newOrd := store.Len() - 1
	if !slices.ContainsFunc(carrierIx.ents, func(en numEntry) bool { return en.ord == newOrd }) {
		t.Fatalf("extended index lacks NewCar's ordinal %d", newOrd)
	}
	fresh := &numIndex{}
	store.ForEachByPredicateIndexed("Price", func(i int, f kb.Fact) bool {
		if isIndexedNum(f.Object) {
			fresh.ents = append(fresh.ents, numEntry{f.Object.Num, i})
			fresh.ords = i + 1
		}
		return true
	})
	slices.SortFunc(fresh.ents, cmpNumEntry)
	if !reflect.DeepEqual(carrierIx, fresh) {
		t.Fatalf("extended index differs from a fresh build:\n got %+v\nwant %+v", carrierIx, fresh)
	}
	if eng.index("factory").nums["Price"] != factoryIx || !slices.Equal(factoryIx.ents, factoryEnts) {
		t.Fatalf("an append to carrier changed factory's numeric index")
	}
	for _, e := range []*Engine{eng, peer} {
		if got := checkPlannedMatchesSequential(t, e, pushdownQSel); !hasRow(got, "carrier.NewCar", "800") {
			t.Fatalf("the added fact is missing from the answer")
		}
	}
	if peer.index("carrier").nums["Price"] != carrierIx {
		t.Fatalf("the peer engine does not share the extended carrier Price index")
	}
}

// warmCarrierCaches runs Q-sel through eng and a peer engine over the
// same sources, which reads every table of carrier's one record and
// builds its Price index, and fails unless it did. It returns the peer.
func warmCarrierCaches(t *testing.T, eng *Engine) *Engine {
	t.Helper()
	peer := peerEngine(t, eng)
	checkPlannedMatchesSequential(t, eng, pushdownQSel)
	checkPlannedMatchesSequential(t, peer, pushdownQSel)
	rec := eng.index("carrier")
	if rec == nil || len(rec.edges) == 0 || len(rec.quals) == 0 || len(rec.facts) == 0 || rec.nums["Price"] == nil {
		t.Fatalf("Q-sel did not build every carrier table")
	}
	if peer.index("carrier") != rec {
		t.Fatalf("two engines over one source hold two records")
	}
	return peer
}

// checkCarrierRecordReplaced validates the engine's epochs and fails
// unless carrier got a new record of its current state, without the old
// one's numeric index, while factory kept its record. The peer engine,
// which shares both records, then answers from the replaced one.
func checkCarrierRecordReplaced(t *testing.T, eng, peer *Engine) {
	t.Helper()
	carrier, factory := eng.index("carrier"), eng.index("factory")
	eng.validateEpochs()
	rec := eng.index("carrier")
	if rec == carrier || len(rec.nums) != 0 || rec.state != stateOf(eng.sources["carrier"]) {
		t.Fatalf("a non-append change kept carrier's record or its numeric index")
	}
	if eng.index("factory") != factory {
		t.Fatalf("a carrier change replaced factory's record")
	}
	checkPlannedMatchesSequential(t, eng, pushdownQSel)
	if res, err := runQuery(peer, pushdownQSel, Options{}); err != nil || res.Stats.PlanCacheHit {
		t.Fatalf("the peer engine kept a plan compiled at the old record (err %v)", err)
	}
	checkPlannedMatchesSequential(t, peer, pushdownQSel)
	if peer.index("carrier") != rec {
		t.Fatalf("the peer engine does not read the replaced record")
	}
}

// TestOntologyEditDropsCaches is the converse of the extension: an
// ontology edit is not an append, so it replaces the source's record even
// when facts were appended too.
func TestOntologyEditDropsCaches(t *testing.T) {
	eng, _ := scaledFig2Engine(t, 40)
	peer := warmCarrierCaches(t, eng)
	carrier := eng.sources["carrier"]
	carrier.KB.MustAdd("NewCar", "Price", kb.Number(500))
	carrier.Ont.MustAddTerm("Hatchback")
	checkCarrierRecordReplaced(t, eng, peer)
}

// TestKBSwapDropsCaches: a store swapped in place is not an append even
// when it is the old store's length plus its epoch delta — its ordinals
// hold other facts — so the record is replaced.
func TestKBSwapDropsCaches(t *testing.T) {
	eng, _ := scaledFig2Engine(t, 40)
	peer := warmCarrierCaches(t, eng)
	old := eng.sources["carrier"].KB
	swapped := kb.New("carrier")
	old.ForEach(func(f kb.Fact) bool {
		swapped.MustAdd("Swapped"+f.Subject, f.Predicate, f.Object)
		return true
	})
	swapped.MustAdd("SwappedNew", "InstanceOf", kb.Term("PassengerCar"))
	if swapped.Len()-old.Len() != int(swapped.Epoch()-old.Epoch()) {
		t.Fatalf("swapped store does not mimic an append (len %d→%d, epoch %d→%d)",
			old.Len(), swapped.Len(), old.Epoch(), swapped.Epoch())
	}
	eng.sources["carrier"].KB = swapped
	checkCarrierRecordReplaced(t, eng, peer)
}

// TestEpochLengthMismatchDropsCaches: when the store's length and epoch
// moved by different amounts the record cannot be extended by ordinal,
// so it is replaced. kb.Store always moves both together, so the test
// shifts the record's epoch to stage the mismatch.
func TestEpochLengthMismatchDropsCaches(t *testing.T) {
	eng, _ := scaledFig2Engine(t, 40)
	peer := warmCarrierCaches(t, eng)
	eng.index("carrier").state.kbEp--
	eng.sources["carrier"].KB.MustAdd("NewCar", "Price", kb.Number(500))
	checkCarrierRecordReplaced(t, eng, peer)
}

// TestKBSwapDropsNumIndex: a Source's KB swapped in place must never be
// served the old store's ordinals through the numeric index — the
// swapped store's facts sit at the same ordinals with other subjects and
// prices — through either engine sharing the source.
func TestKBSwapDropsNumIndex(t *testing.T) {
	eng, _ := scaledFig2Engine(t, 40)
	peer := warmCarrierCaches(t, eng)
	old := eng.sources["carrier"].KB
	swapped := kb.New("carrier")
	i := 0
	old.ForEach(func(f kb.Fact) bool {
		if f.Object.IsNumber() {
			f.Object = kb.Number(float64(i*37%1200) + 0.5)
		}
		swapped.MustAdd("Swapped"+f.Subject, f.Predicate, f.Object)
		i++
		return true
	})
	eng.sources["carrier"].KB = swapped
	for _, e := range []*Engine{peer, eng} {
		got := checkPlannedMatchesSequential(t, e, pushdownQSel)
		for _, r := range got.Rows {
			if s := r[0].Str; strings.HasPrefix(s, "carrier.") && !strings.HasPrefix(s, "carrier.Swapped") {
				t.Fatalf("answer carries a subject of the replaced store: %v", r)
			}
		}
	}
}

// TestExecuteCtxCancellation checks every executor path returns the
// context error instead of a partial result, both when cancelled before
// the call and when the deadline expires mid-execution.
func TestExecuteCtxCancellation(t *testing.T) {
	eng, q := deepChainEngine(t, 60, 2)
	done := context.Background()
	cancelled, cancel := context.WithCancel(done)
	cancel()
	modes := []Options{
		{Sequential: true},
		{Workers: 1},
		{Workers: 4},
		{Workers: 4, MemoryLimit: 1 << 16},
	}
	for _, opts := range modes {
		if _, err := eng.Execute(cancelled, q, opts); !errors.Is(err, context.Canceled) {
			t.Errorf("%+v: pre-cancelled ctx returned %v, want context.Canceled", opts, err)
		}
		// A generous deadline must not disturb the result.
		ctx, stop := context.WithTimeout(done, time.Minute)
		res, err := eng.Execute(ctx, q, opts)
		stop()
		if err != nil || len(res.Rows) == 0 {
			t.Errorf("%+v: deadline run failed: %v", opts, err)
		}
	}
	// An already-expired deadline lands mid-pipeline dispatch: the
	// pipeline must drain cleanly and report DeadlineExceeded.
	expired, stop := context.WithTimeout(done, time.Nanosecond)
	defer stop()
	time.Sleep(time.Millisecond)
	for _, opts := range modes {
		if _, err := eng.Execute(expired, q, opts); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%+v: expired deadline returned %v", opts, err)
		}
	}
}
