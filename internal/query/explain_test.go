package query

import (
	"strings"
	"testing"
)

func TestExplainShowsExpansions(t *testing.T) {
	e := paperEngine(t)
	plan, err := e.Explain(MustParse("SELECT ?x WHERE ?x InstanceOf Vehicle"))
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
	plan, err := e.Explain(MustParse("SELECT ?x WHERE ?x InstanceOf carrier.SUV"))
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
	plan, err := e.Explain(MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"))
	if err != nil {
		t.Fatal(err)
	}
	out := plan.String()
	for _, want := range []string{"plan for", "triple ?x InstanceOf Vehicle", "carrier", "pruned"} {
		if !strings.Contains(out, want) && want != "pruned" {
			t.Fatalf("plan output missing %q:\n%s", want, out)
		}
	}
	// The refreshed output names the slot assignment and the join wiring.
	for _, want := range []string{"slots: ?x=s0 ?p=s1", "exec: slot tuples", "join key"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan output missing %q:\n%s", want, out)
		}
	}
	if plan.String() != out {
		t.Fatalf("plan rendering unstable")
	}
	// The exec line matches the pool the engine's options resolve to:
	// partition/pipeline wording only when the pool is real.
	pooled := *plan
	pooled.Workers = 4
	pooled.Partitions = 4
	if !strings.Contains(pooled.String(), "hash-partitioned 4 ways across 4 workers") {
		t.Fatalf("pooled plan missing partition wording:\n%s", pooled.String())
	}
	inline := *plan
	inline.Workers = 1
	if !strings.Contains(inline.String(), "inline (single worker)") {
		t.Fatalf("inline plan missing inline wording:\n%s", inline.String())
	}
}

// TestExplainShowsPipelineEdges checks that an engine defaulting to a
// real pool explains the cross-step pipeline: the exec header names the
// pipeline and every non-final step carries a streams-into edge with the
// downstream key variables. The chain must be deeper than the shallow
// fast path's gate (two keyed joins) to pipeline on a tiny world.
func TestExplainShowsPipelineEdges(t *testing.T) {
	res, carrier, factory := paperPieces(t)
	e, err := NewEngineWith(res.Art, map[string]*Source{
		"carrier": {Ont: carrier},
		"factory": {Ont: factory},
	}, Options{Workers: 4, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Explain(MustParse(
		"SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p . ?x ?r ?y . ?y ?r2 ?z"))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Pipelined || plan.Partitions != 3 {
		t.Fatalf("pipelined=%v partitions=%d, want pipelined with 3 partitions", plan.Pipelined, plan.Partitions)
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

	// A shallow chain (one keyed join) over the same tiny world falls
	// back to the per-step executor: the planner's scan estimate is far
	// below the pipeline's break-even volume.
	shallow, err := e.Explain(MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"))
	if err != nil {
		t.Fatal(err)
	}
	if shallow.Pipelined || shallow.Triples[0].StreamsInto != -1 {
		t.Fatalf("shallow low-estimate chain should not pipeline: %+v", shallow.Triples[0])
	}
	if out := shallow.String(); !strings.Contains(out, "exec: slot tuples") || strings.Contains(out, "columnar batches") {
		t.Fatalf("shallow plan does not name the per-step tuple executor:\n%s", out)
	}

	// A single-worker engine over the same plan shape stays inline.
	seq, err := NewEngineWith(res.Art, map[string]*Source{
		"carrier": {Ont: carrier},
		"factory": {Ont: factory},
	}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := seq.Explain(MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Pipelined || p2.Triples[0].StreamsInto != -1 {
		t.Fatalf("inline plan claims pipelining: %+v", p2.Triples[0])
	}
}

// TestExplainShowsSlotsAndJoinOrder covers the execution wiring the
// slot-based engine added to Plan: the variable→slot table, the join
// order with textual positions, and the per-step join-key variables.
func TestExplainShowsSlotsAndJoinOrder(t *testing.T) {
	e := paperEngine(t)
	plan, err := e.Explain(MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"))
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

func TestExplainInvalidQuery(t *testing.T) {
	e := paperEngine(t)
	if _, err := e.Explain(Query{}); err == nil {
		t.Fatalf("invalid query explained")
	}
}
