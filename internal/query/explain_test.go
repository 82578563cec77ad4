package query

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestExplainShowsExpansions(t *testing.T) {
	e := paperEngine(t)
	plan, _, err := e.Explain(context.Background(), MustParse("SELECT ?x WHERE ?x InstanceOf Vehicle"), Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Triples) != 1 {
		t.Fatalf("plan triples = %d", len(plan.Triples))
	}
	var carrierScan *TripleScan
	for i := range plan.Triples[0].Scans {
		if plan.Triples[0].Scans[i].Source == "carrier" {
			carrierScan = &plan.Triples[0].Scans[i]
		}
	}
	if carrierScan == nil || carrierScan.Skipped {
		t.Fatalf("carrier scan missing/pruned: %+v", plan.Triples[0].Scans)
	}
	// Vehicle expands into carrier terms through the bridges.
	found := false
	for _, o := range carrierScan.Objects {
		if o == "Cars" || o == "PassengerCar" {
			found = true
		}
	}
	if !found {
		t.Fatalf("object expansion missing: %v", carrierScan.Objects)
	}
	// Variable subject is unconstrained.
	if len(carrierScan.Subjects) != 0 {
		t.Fatalf("variable subject constrained: %v", carrierScan.Subjects)
	}
}

func TestExplainPrunesImpossibleSources(t *testing.T) {
	e := paperEngine(t)
	plan, _, err := e.Explain(context.Background(), MustParse("SELECT ?x WHERE ?x InstanceOf carrier.SUV"), Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	for _, sc := range plan.Triples[0].Scans {
		if sc.Skipped {
			pruned++
		}
	}
	// factory and transport cannot denote carrier.SUV.
	if pruned != 2 {
		t.Fatalf("pruned = %d, want 2: %+v", pruned, plan.Triples[0].Scans)
	}
}

func TestExplainString(t *testing.T) {
	e := paperEngine(t)
	plan, _, err := e.Explain(context.Background(), MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"), Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.String()
	for _, want := range []string{"plan for", "triple ?x InstanceOf Vehicle", "carrier", "pruned"} {
		if !strings.Contains(out, want) && want != "pruned" {
			t.Fatalf("plan output missing %q:\n%s", want, out)
		}
	}
	// The refreshed output names the slot assignment, the executor and
	// the join wiring — the batch pipeline on this two-triple plan too.
	for _, want := range []string{"slots: ?x=s0 ?p=s1", "exec: columnar batches; cross-step pipeline", "join key", "~> streams into step 2 on {?x}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "slot tuples") {
		t.Fatalf("plan output names a removed executor:\n%s", out)
	}
	if plan.String() != out {
		t.Fatalf("plan rendering unstable")
	}
	// The exec line carries the pool and partition counts the engine's
	// options resolve to.
	pooled := *plan
	pooled.Workers = 4
	pooled.Partitions = 4
	if !strings.Contains(pooled.String(), "4 scan workers, joins hash-partitioned 4 ways") {
		t.Fatalf("pooled plan missing partition wording:\n%s", pooled.String())
	}
}

// TestExplainShowsPipelineEdges checks that Explain describes the one
// executor: the exec header names the pipeline and every non-final step
// carries a streams-into edge with the downstream key variables — on a
// deep chain, on the Fig. 2 two-triple plan, and on a one-worker engine,
// with partition counts from the executor's own stepPartCount.
func TestExplainShowsPipelineEdges(t *testing.T) {
	res, carrier, factory := paperPieces(t)
	e, err := NewEngine(res.Art, map[string]*Source{
		"carrier": {Ont: carrier},
		"factory": {Ont: factory},
	})
	if err != nil {
		t.Fatal(err)
	}
	pinned := Options{Workers: 4, Partitions: 3}
	plan, _, err := e.Explain(context.Background(), MustParse(
		"SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p . ?x ?r ?y . ?y ?r2 ?z"), pinned, false)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Partitions != 3 {
		t.Fatalf("partitions=%d, want 3", plan.Partitions)
	}
	if got := plan.Triples[0].StreamsInto; got != 1 {
		t.Fatalf("first step StreamsInto = %d, want 1", got)
	}
	if kv := plan.Triples[0].StreamKeyVars; len(kv) == 0 {
		t.Fatalf("first step has no StreamKeyVars")
	}
	if got := plan.Triples[len(plan.Triples)-1].StreamsInto; got != -1 {
		t.Fatalf("last step StreamsInto = %d, want -1", got)
	}
	out := plan.String()
	for _, want := range []string{"exec: columnar batches; cross-step pipeline", "hash-partitioned 3 ways", "~> streams into step 2 on {"} {
		if !strings.Contains(out, want) {
			t.Fatalf("pipelined plan output missing %q:\n%s", want, out)
		}
	}

	// The Fig. 2 two-triple plan streams too, at any worker count, with
	// the per-step partition count the executor computes.
	for _, opts := range []Options{pinned, {Workers: 1}} {
		p2, _, err := e.Explain(context.Background(), MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"), opts, false)
		if err != nil {
			t.Fatal(err)
		}
		if p2.Triples[0].StreamsInto != 1 || p2.Triples[1].StreamsInto != -1 {
			t.Fatalf("workers %d: two-triple plan edges %+v", p2.Workers, p2.Triples)
		}
		ep, _ := e.cachedPlan(MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"), e.validateEpochs())
		if want := ep.stepPartCount(1, opts, p2.Workers); p2.Triples[1].Partitions != want || p2.Partitions != want {
			t.Fatalf("workers %d: partitions %d/%d, want stepPartCount %d",
				p2.Workers, p2.Triples[1].Partitions, p2.Partitions, want)
		}
		if out := p2.String(); !strings.Contains(out, "exec: columnar batches; cross-step pipeline") {
			t.Fatalf("workers %d: two-triple plan does not name the pipeline:\n%s", p2.Workers, out)
		}
	}
}

// TestExplainShowsSlotsAndJoinOrder covers the execution wiring the
// slot-based engine added to Plan: the variable→slot table, the join
// order with textual positions, and the per-step join-key variables.
func TestExplainShowsSlotsAndJoinOrder(t *testing.T) {
	e := paperEngine(t)
	plan, _, err := e.Explain(context.Background(), MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"), Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Slots) != 2 || plan.Slots[0] != "x" || plan.Slots[1] != "p" {
		t.Fatalf("slots = %v, want [x p]", plan.Slots)
	}
	if plan.Workers < 1 {
		t.Fatalf("workers = %d", plan.Workers)
	}
	if len(plan.Triples) != 2 {
		t.Fatalf("triples = %d", len(plan.Triples))
	}
	if kv := plan.Triples[0].KeyVars; len(kv) != 0 {
		t.Errorf("first step has join key %v", kv)
	}
	if kv := plan.Triples[1].KeyVars; len(kv) != 1 || kv[0] != "x" {
		t.Errorf("second step join key = %v, want [x]", kv)
	}
	// Execution order is recorded against textual position.
	seen := map[int]bool{}
	for _, tp := range plan.Triples {
		seen[tp.Index] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("textual indices missing: %+v", plan.Triples)
	}
}

// TestExplainShowsPushdown checks that Explain says what was pushed: on
// Q-sel each Price scan prints its source-unit range and the inverse it
// was mapped through, and on Q-join the later ?x steps print their
// binding to step 1's subjects with step 1's exact count.
func TestExplainShowsPushdown(t *testing.T) {
	eng, _ := scaledFig2Engine(t, 400)
	sel, _, err := eng.Explain(context.Background(), pushdownQSel, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	out := sel.String()
	if sel.Triples[0].Triple != "?x Price ?p" {
		t.Fatalf("pushed Price step is not first:\n%s", out)
	}
	for _, want := range []string{"range Price < 937.5 (PSToEuroFn⁻¹)", "range Price < 3305.565 (DGToEuroFn⁻¹)", "bound to step 1's ?x ("} {
		if !strings.Contains(out, want) {
			t.Errorf("Q-sel plan missing %q:\n%s", want, out)
		}
	}
	// The pushed estimate is the exact range count.
	want, err := runQuery(eng, MustParse("SELECT ?x ?p WHERE ?x Price ?p . FILTER ?p < 1500"), Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if est := sel.Triples[0].Est; est != len(want.Rows) {
		t.Errorf("pushed step est %d, want its exact count %d", est, len(want.Rows))
	}

	join, _, err := eng.Explain(context.Background(), MustParse("SELECT ?x ?p ?o WHERE ?x InstanceOf Cars . ?x Price ?p . ?x Owner ?o . ?x Model ?m . FILTER ?p < 1500"), Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	out = join.String()
	if join.Triples[0].Triple != "?x Price ?p" {
		t.Fatalf("pushed Price step is not first:\n%s", out)
	}
	var carrierCount int
	for _, sc := range join.Triples[0].Scans {
		if sc.Source == "carrier" {
			carrierCount = sc.Est
		}
	}
	bound := 0
	for _, tp := range join.Triples[1:] {
		for _, sc := range tp.Scans {
			if sc.BoundVar == "" {
				continue
			}
			bound++
			if sc.BoundVar != "x" || (sc.Source == "carrier" && sc.BoundSubjects != carrierCount) {
				t.Errorf("%s %s: bound to ?%s (%d subjects), want ?x (%d)", tp.Triple, sc.Source, sc.BoundVar, sc.BoundSubjects, carrierCount)
			}
		}
	}
	if bound == 0 || !strings.Contains(out, fmt.Sprintf("bound to step 1's ?x (%d subjects)", carrierCount)) {
		t.Errorf("Q-join plan binds no scan to step 1:\n%s", out)
	}
	// Without a pushable filter nothing is pushed or bound.
	plain, _, err := eng.Explain(context.Background(), MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p . FILTER ?p != 1500"), Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if out := plain.String(); strings.Contains(out, "range ") || strings.Contains(out, "bound to") {
		t.Errorf("unpushable filter pushed:\n%s", out)
	}
}

func TestExplainInvalidQuery(t *testing.T) {
	e := paperEngine(t)
	if _, _, err := e.Explain(context.Background(), Query{}, Options{}, false); err == nil {
		t.Fatalf("invalid query explained")
	}
}

// TestExplainShowsPruneReason checks that Explain says why each scan is
// pruned, on the capped workload's star shape: factory has Price facts
// but no Owner or Model facts, so its scans of every ?x step are pruned
// by the first empty one, and the articulation, which has no InstanceOf
// edge, by its empty InstanceOf scan. A scan whose triple cannot denote
// anything in the source keeps saying so.
func TestExplainShowsPruneReason(t *testing.T) {
	eng, _ := scaledFig2Engine(t, 400)
	q := MustParse("SELECT ?x ?p ?o WHERE ?x InstanceOf Vehicle . ?x Price ?p . ?x Owner ?o . ?x Model ?m . FILTER ?p < 1500")
	plan, res, err := eng.Explain(context.Background(), q, Options{Workers: 2, MemoryLimit: 4 << 20}, true)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.String()
	for _, tp := range plan.Triples {
		for _, sc := range tp.Scans {
			want := map[string]string{
				"factory":   "no Owner facts: ?x cannot join",
				"transport": "no InstanceOf facts: ?x cannot join",
			}[sc.Source]
			if sc.Skipped != (want != "") || sc.Reason != want {
				t.Errorf("%s %s: skipped %v (%q), want reason %q", tp.Triple, sc.Source, sc.Skipped, sc.Reason, want)
			}
		}
	}
	for _, want := range []string{"factory      pruned (no Owner facts: ?x cannot join)", "transport    pruned (no InstanceOf facts: ?x cannot join)"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q:\n%s", want, out)
		}
	}
	seq, err := runQuery(eng, q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.EqualRows(res) || len(res.Rows) == 0 {
		t.Fatalf("pruned plan returned %d rows, Sequential %d", len(res.Rows), len(seq.Rows))
	}

	plain, _, err := eng.Explain(context.Background(), MustParse("SELECT ?x WHERE ?x InstanceOf carrier.SUV"), Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if out := plain.String(); !strings.Contains(out, "factory      pruned (no denotation)\n") {
		t.Errorf("a scan without denotation lost its reason:\n%s", out)
	}
}
