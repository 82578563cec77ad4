package query

import (
	"context"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestTraceSpansPipelined checks the span tree the cross-step pipeline
// records: one query.execute root with validate/plan children, a span
// per join step carrying per-partition build/probe sub-spans, and row
// attributes that match the execution's stats.
func TestTraceSpansPipelined(t *testing.T) {
	eng, q := joinHeavyEngine(t, 120)
	tr := obs.NewTrace("test")
	res, err := eng.ExecuteWith(q, Options{Workers: 4, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PipelinedSteps == 0 {
		t.Fatalf("expected the pipelined path: %+v", res.Stats)
	}
	root := res.Trace
	if root == nil || root.Name != "query.execute" {
		t.Fatalf("Result.Trace = %+v, want query.execute root", root)
	}
	if root.DurNs <= 0 {
		t.Errorf("root span not ended: dur %d", root.DurNs)
	}
	for _, name := range []string{"validate", "plan"} {
		if root.Find(name) == nil {
			t.Errorf("span %q missing from trace:\n%s", name, root.Tree())
		}
	}
	steps := 0
	for _, c := range root.Children {
		if strings.HasPrefix(c.Name, "step ") {
			steps++
			if len(c.Children) == 0 {
				t.Errorf("step span %q has no scan/partition children", c.Name)
			}
		}
	}
	if want := len(res.Stats.StepRows); steps != want {
		t.Errorf("trace has %d step spans, stats have %d steps", steps, want)
	}
	if root.Find("build") == nil || root.Find("probe") == nil {
		t.Errorf("pipelined trace missing build/probe sub-spans:\n%s", root.Tree())
	}
}

// TestTraceSpansPerStep checks the spans every planned execution
// records, at one scan worker and on a pool: plan, per-step spans
// wrapping the scan fan-out, and the project span around the final
// merge with its row count — and that StepRows actuals line up with the
// join.
func TestTraceSpansPerStep(t *testing.T) {
	eng, q := joinHeavyEngine(t, 80)
	for _, workers := range []int{1, 4} {
		tr := obs.NewTrace("test")
		res, err := eng.ExecuteWith(q, Options{Workers: workers, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		root := res.Trace
		if root == nil {
			t.Fatal("no trace recorded")
		}
		for _, name := range []string{"plan", "project"} {
			if root.Find(name) == nil {
				t.Errorf("workers %d: span %q missing:\n%s", workers, name, root.Tree())
			}
		}
		if ps := root.Find("project"); ps != nil && !hasAttr(ps, "rows", strconv.Itoa(len(res.Rows))) {
			t.Errorf("workers %d: project span rows attr %v, want %d", workers, ps.Attrs, len(res.Rows))
		}
		n := len(res.Stats.StepRows)
		if n == 0 {
			t.Fatalf("workers %d: no StepRows recorded: %+v", workers, res.Stats)
		}
		if len(res.Stats.StepDurNs) != n {
			t.Fatalf("StepDurNs len %d != StepRows len %d", len(res.Stats.StepDurNs), n)
		}
		if got := res.Stats.StepRows[n-1]; got != res.Stats.JoinedRows {
			t.Errorf("workers %d: last StepRows = %d, want JoinedRows %d", workers, got, res.Stats.JoinedRows)
		}
		// Tracing must not perturb results.
		plain, err := eng.ExecuteWith(q, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Trace != nil {
			t.Errorf("untraced execution returned a trace")
		}
		if !plain.EqualRows(res) {
			t.Errorf("workers %d: traced rows diverged from untraced", workers)
		}
	}
}

// TestTraceShowsPushdown checks the per-source scan spans say what was
// pushed: on Q-sel and Q-join step 1's Price scans carry the pushed
// range, and the later steps' bound scans the number of step-1 subjects
// they walked.
func TestTraceShowsPushdown(t *testing.T) {
	eng, _ := scaledFig2Engine(t, 400)
	// Step 1's carrier survivors: the bound scans' subject count.
	step1, err := eng.ExecuteWith(MustParse("SELECT ?x WHERE ?x Price ?p . FILTER ?p < 1500"), Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	carrierSubjects := 0
	for _, r := range step1.Rows {
		if strings.HasPrefix(r[0].Str, "carrier.") {
			carrierSubjects++
		}
	}
	for _, q := range []Query{
		pushdownQSel,
		MustParse("SELECT ?x ?p ?o WHERE ?x InstanceOf Cars . ?x Price ?p . ?x Owner ?o . ?x Model ?m . FILTER ?p < 1500"),
	} {
		res, err := eng.ExecuteWith(q, Options{Workers: 2, Trace: obs.NewTrace("test")})
		if err != nil {
			t.Fatal(err)
		}
		pushed, bound := 0, 0
		for _, step := range res.Trace.Children {
			for _, sc := range step.Children {
				switch {
				case sc.Name != "scan carrier":
				case strings.HasPrefix(step.Name, "step 1: "):
					if !hasAttr(sc, "pushed", "Price < 937.5 (PSToEuroFn⁻¹)") {
						t.Errorf("%s: %s attrs %v, want the pushed range", q, step.Name, sc.Attrs)
					}
					pushed++
				default:
					if !hasAttr(sc, "bound_subjects", strconv.Itoa(carrierSubjects)) {
						t.Errorf("%s: %s attrs %v, want bound_subjects %d", q, step.Name, sc.Attrs, carrierSubjects)
					}
					bound++
				}
			}
		}
		if pushed != 1 || bound == 0 {
			t.Errorf("%s: %d pushed and %d bound carrier scan spans:\n%s", q, pushed, bound, res.Trace.Tree())
		}
	}
}

// hasAttr reports whether the span carries key=val.
func hasAttr(s *obs.Span, key, val string) bool {
	for _, a := range s.Attrs {
		if a.Key == key && a.Val == val {
			return true
		}
	}
	return false
}

// TestTraceSpillSpans forces grace-hash spilling under a trace and
// checks the spill sub-spans and the SpilledBytes accounting.
func TestTraceSpillSpans(t *testing.T) {
	eng, q := spillAdversarialEngine(t, 40, 1)
	tr := obs.NewTrace("test")
	res, err := eng.ExecuteWith(q, Options{Workers: 4, MemoryLimit: 1 << 12, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpilledPartitions == 0 {
		t.Fatalf("4KB budget did not spill: %+v", res.Stats)
	}
	if res.Stats.SpilledBytes <= 0 {
		t.Errorf("SpilledBytes = %d, want > 0 with %d spilled partitions",
			res.Stats.SpilledBytes, res.Stats.SpilledPartitions)
	}
	if res.Trace.Find("spill") == nil {
		t.Errorf("no spill span recorded:\n%s", res.Trace.Tree())
	}
	// Unbounded run writes nothing.
	free, err := eng.ExecuteWith(q, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if free.Stats.SpilledBytes != 0 {
		t.Errorf("unbounded run reports SpilledBytes = %d", free.Stats.SpilledBytes)
	}
}

// TestExplainAnalyze checks the EXPLAIN ANALYZE contract: the plan's
// estimates stay, actuals are stamped per step (deterministic rows) and
// for the whole query, and the rendering carries both.
func TestExplainAnalyze(t *testing.T) {
	eng, q := joinHeavyEngine(t, 100)
	plan, res, err := eng.ExplainAnalyze(context.Background(), q, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Analyzed {
		t.Fatal("plan not marked Analyzed")
	}
	if plan.ActualRows != len(res.Rows) {
		t.Errorf("plan.ActualRows = %d, want %d", plan.ActualRows, len(res.Rows))
	}
	if plan.ActualNs <= 0 {
		t.Errorf("plan.ActualNs = %d, want > 0", plan.ActualNs)
	}
	if len(plan.Triples) != len(res.Stats.StepRows) {
		t.Fatalf("plan has %d steps, stats %d", len(plan.Triples), len(res.Stats.StepRows))
	}
	for i, tp := range plan.Triples {
		if tp.ActualRows != res.Stats.StepRows[i] {
			t.Errorf("step %d ActualRows = %d, want %d", i+1, tp.ActualRows, res.Stats.StepRows[i])
		}
		if tp.ActualNs <= 0 {
			t.Errorf("step %d ActualNs = %d, want > 0", i+1, tp.ActualNs)
		}
	}
	last := plan.Triples[len(plan.Triples)-1]
	if last.ActualRows != res.Stats.JoinedRows {
		t.Errorf("last step ActualRows = %d, want JoinedRows %d", last.ActualRows, res.Stats.JoinedRows)
	}
	out := plan.String()
	if !strings.Contains(out, "analyzed:") || !strings.Contains(out, "actual") {
		t.Errorf("rendering lacks actuals:\n%s", out)
	}
	// Plain Explain stays estimate-only.
	cold, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Analyzed || strings.Contains(cold.String(), "actual") {
		t.Errorf("Explain leaked actuals")
	}
}

// TestTracingOffAllocs is the zero-overhead guard: with metrics
// registered but no Trace set, a query must allocate as much as with the
// whole obs package disabled. The guard is stated per row, which is what
// it exists to pin: at 200 and 800 instances the on/off difference must
// stay within a couple of allocations, while one stray allocation per
// row would cost hundreds at 800 instances.
func TestTracingOffAllocs(t *testing.T) {
	defer obs.SetEnabled(true)
	for _, instances := range []int{200, 800} {
		eng, q := joinHeavyEngine(t, instances)
		opts := Options{Workers: 1}
		run := func() {
			if _, err := eng.ExecuteWith(q, opts); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm plan cache, metric label children and batch pools

		// One execution's count moves by a few allocations with the
		// schedule (how many probe batches a stage parks, pool hits) and
		// jumps when a GC cycle lands inside it, so compare the medians
		// of interleaved single-run samples rather than two point values.
		const samples = 51
		var on, off []float64
		for i := 0; i < samples; i++ {
			obs.SetEnabled(true)
			on = append(on, testing.AllocsPerRun(1, run))
			obs.SetEnabled(false)
			off = append(off, testing.AllocsPerRun(1, run))
		}
		obs.SetEnabled(true)
		slices.Sort(on)
		slices.Sort(off)
		// The race runtime allocates shadow state nondeterministically,
		// so under -race allow more slack — still far below any per-row
		// regression.
		slack := 2.0
		if raceEnabled {
			slack = 16
		}
		if diff := on[samples/2] - off[samples/2]; math.Abs(diff) > slack {
			t.Errorf("%d instances: median allocs with metrics on = %.0f, obs disabled = %.0f; want within %.0f",
				instances, on[samples/2], off[samples/2], slack)
		}
	}
}
