package query

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/fixtures"
	"repro/internal/kb"
)

// TestEpochSelfHealsStaleCaches is the ROADMAP-footgun regression: a
// direct NewEngine user mutates a source KB between queries and the next
// query must see the new facts without any InvalidateCache call — the
// epoch check at query entry flushes the stale plans and indexes.
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
	if _, err := e.Execute(MustParse("SELECT ?x WHERE ?x InstanceOf Vehicle")); err != nil {
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

// TestInvalidateCacheStillForcesFlush keeps the explicit flush working
// as documented (a forced wholesale drop, e.g. after pointer swaps the
// epochs cannot see).
func TestInvalidateCacheStillForcesFlush(t *testing.T) {
	e := paperEngine(t)
	const q = "SELECT ?x WHERE ?x InstanceOf Vehicle"
	rows(t, e, q)
	if !rows(t, e, q).Stats.PlanCacheHit {
		t.Fatalf("warm query missed the plan cache")
	}
	e.InvalidateCache()
	if rows(t, e, q).Stats.PlanCacheHit {
		t.Fatalf("InvalidateCache did not flush the plan cache")
	}
}

// TestInvalidateCacheDropsFactQuals regresses the documented use of
// InvalidateCache — swap a Source's KB pointer in place, then flush: the
// fact-ordinal qualification cache must go with the other per-source
// indexes, or indexed scans keep emitting the old store's subjects by
// ordinal while the sequential reference reads the new store.
func TestInvalidateCacheDropsFactQuals(t *testing.T) {
	eng, q := projWideEngine(t, 8)
	if _, err := eng.ExecuteWith(q, Options{Workers: 1}); err != nil { // builds factQIdx
		t.Fatal(err)
	}
	swapped := kb.New("pw1")
	for k := 0; k < 8; k++ {
		inst := fmt.Sprintf("swapped%c", 'A'+k)
		swapped.MustAdd(inst, "InstanceOf", kb.Term("Item"))
		swapped.MustAdd(inst, "P", kb.Number(float64(k)))
	}
	eng.sources["pw1"].KB = swapped
	eng.InvalidateCache()
	want, err := eng.ExecuteWith(q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !hasRow(want, "pw1.swappedA", "0") {
		t.Fatalf("sequential does not read the swapped store: %v", want.Rows)
	}
	for _, opts := range []Options{{Workers: 1}, {Workers: 4}, {Workers: 4, MemoryLimit: 1 << 16}} {
		got, err := eng.ExecuteWith(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !want.EqualRows(got) {
			t.Errorf("%+v: planned rows after KB swap + InvalidateCache diverged from sequential:\n got %v\nwant %v", opts, got.Rows, want.Rows)
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
		if _, err := eng.ExecuteCtx(cancelled, q, opts); !errors.Is(err, context.Canceled) {
			t.Errorf("%+v: pre-cancelled ctx returned %v, want context.Canceled", opts, err)
		}
		// A generous deadline must not disturb the result.
		ctx, stop := context.WithTimeout(done, time.Minute)
		res, err := eng.ExecuteCtx(ctx, q, opts)
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
		if _, err := eng.ExecuteCtx(expired, q, opts); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%+v: expired deadline returned %v", opts, err)
		}
	}
}

// TestShallowChainCostChoice locks the shallow-chain fast path: at one
// or two keyed joins the executor is chosen by the planner's scan
// estimate — tiny worlds run the per-step executor, scan-heavy worlds
// still pipeline — and deeper chains always pipeline. Rows are identical
// either way.
func TestShallowChainCostChoice(t *testing.T) {
	opts := Options{Workers: 4}

	// Tiny world, one keyed join: below break-even, per-step executor.
	small := paperEngine(t)
	q2 := MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p")
	res, err := small.ExecuteCtx(context.Background(), q2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PipelinedSteps != 0 {
		t.Fatalf("tiny shallow chain pipelined: %+v", res.Stats)
	}
	seq, err := small.ExecuteWith(q2, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.EqualRows(res) {
		t.Fatalf("shallow fast path diverged from sequential")
	}

	// Scan-heavy world, same two-triple shape: the estimate clears the
	// gate and the chain pipelines again.
	big, bq := shallowHeavyEngine(t, 3000)
	bres, err := big.ExecuteCtx(context.Background(), bq, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Stats.PipelinedSteps == 0 {
		t.Fatalf("scan-heavy shallow chain did not pipeline: %+v", bres.Stats)
	}

	// Depth beyond the gate pipelines regardless of estimates.
	deep, dq := deepChainEngine(t, 8, 1)
	dres, err := deep.ExecuteCtx(context.Background(), dq, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Stats.PipelinedSteps == 0 {
		t.Fatalf("deep chain did not pipeline: %+v", dres.Stats)
	}

	// A memory budget bypasses the shallow gate: only the pipeline can
	// degrade to grace-hash spilling, so the tiny world pipelines when a
	// limit is set — with identical rows.
	capped, err := small.ExecuteWith(q2, Options{Workers: 4, MemoryLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Stats.PipelinedSteps == 0 {
		t.Fatalf("budgeted shallow chain did not pipeline: %+v", capped.Stats)
	}
	if !seq.EqualRows(capped) {
		t.Fatalf("budgeted shallow chain diverged from sequential")
	}
}

// shallowHeavyEngine builds a two-source, two-triple world whose scan
// volume clears the shallow pipeline gate.
func shallowHeavyEngine(t testing.TB, instances int) (*Engine, Query) {
	t.Helper()
	eng, _ := joinHeavyEngine(t, instances)
	return eng, MustParse("SELECT ?x ?p WHERE ?x InstanceOf Item . ?x Price ?p")
}
