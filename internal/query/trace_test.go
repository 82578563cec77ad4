package query

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
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
	res, err := runQuery(eng, q, Options{Workers: 4, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.StepPartitions) < 2 {
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
		res, err := runQuery(eng, q, Options{Workers: workers, Trace: tr})
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
		plain, err := runQuery(eng, q, Options{Workers: workers})
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
	step1, err := runQuery(eng, MustParse("SELECT ?x WHERE ?x Price ?p . FILTER ?p < 1500"), Options{Sequential: true})
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
		res, err := runQuery(eng, q, Options{Workers: 2, Trace: obs.NewTrace("test")})
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
	res, err := runQuery(eng, q, Options{Workers: 4, MemoryLimit: 1 << 12, Trace: tr})
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
	free, err := runQuery(eng, q, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if free.Stats.SpilledBytes != 0 {
		t.Errorf("unbounded run reports SpilledBytes = %d", free.Stats.SpilledBytes)
	}
}

// TestExplainAnalyze checks the EXPLAIN ANALYZE contract: the plan's
// estimates stay, actuals are stamped per step (deterministic rows) and
// for the whole query, and the rendering carries both. The plan is
// built from the options the query executes under: its worker count,
// memory budget and per-step partition counts are the execution's own.
func TestExplainAnalyze(t *testing.T) {
	eng, q := joinHeavyEngine(t, 100)
	for _, opts := range []Options{
		{Workers: 4},
		{Workers: 1, Partitions: 3, MemoryLimit: 8 << 20},
	} {
		plan, res, err := eng.Explain(context.Background(), q, opts, true)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Analyzed {
			t.Fatal("plan not marked Analyzed")
		}
		if plan.ActualRows != len(res.Rows) {
			t.Errorf("%+v: plan.ActualRows = %d, want %d", opts, plan.ActualRows, len(res.Rows))
		}
		if plan.ActualNs <= 0 {
			t.Errorf("%+v: plan.ActualNs = %d, want > 0", opts, plan.ActualNs)
		}
		if plan.Workers != res.Stats.Workers {
			t.Errorf("%+v: plan.Workers = %d, executed with %d", opts, plan.Workers, res.Stats.Workers)
		}
		if plan.MemoryLimit != opts.MemoryLimit {
			t.Errorf("%+v: plan.MemoryLimit = %d, want %d", opts, plan.MemoryLimit, opts.MemoryLimit)
		}
		if len(plan.Triples) != len(res.Stats.StepRows) || len(plan.Triples) != len(res.Stats.StepPartitions) {
			t.Fatalf("%+v: plan has %d steps, stats %d rows / %d partition counts",
				opts, len(plan.Triples), len(res.Stats.StepRows), len(res.Stats.StepPartitions))
		}
		for i, tp := range plan.Triples {
			if tp.ActualRows != res.Stats.StepRows[i] {
				t.Errorf("%+v: step %d ActualRows = %d, want %d", opts, i+1, tp.ActualRows, res.Stats.StepRows[i])
			}
			if tp.ActualNs <= 0 {
				t.Errorf("%+v: step %d ActualNs = %d, want > 0", opts, i+1, tp.ActualNs)
			}
			if tp.Partitions != res.Stats.StepPartitions[i] {
				t.Errorf("%+v: step %d Partitions = %d, executed with %d", opts, i+1, tp.Partitions, res.Stats.StepPartitions[i])
			}
		}
		last := plan.Triples[len(plan.Triples)-1]
		if last.ActualRows != res.Stats.JoinedRows {
			t.Errorf("%+v: last step ActualRows = %d, want JoinedRows %d", opts, last.ActualRows, res.Stats.JoinedRows)
		}
		out := plan.String()
		if !strings.Contains(out, "analyzed:") || !strings.Contains(out, "actual") {
			t.Errorf("%+v: rendering lacks actuals:\n%s", opts, out)
		}
	}
	// Plain Explain stays estimate-only and executes nothing.
	cold, res, err := eng.Explain(context.Background(), q, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Analyzed || res != nil || strings.Contains(cold.String(), "actual") {
		t.Errorf("Explain leaked actuals")
	}
}

// TestTracingOffAllocs is the zero-overhead guard: with metrics
// registered but no Trace set, a query must allocate as much per row as
// with the whole obs package disabled. It is stated per row, which is
// what it exists to pin: the growth in allocations from 200 to 800
// instances must match with metrics on and off within a couple of
// allocations, while one stray allocation per row would add hundreds at
// 800 instances. Fixed per-query costs — and any fixed noise in them —
// cancel in the growth.
func TestTracingOffAllocs(t *testing.T) {
	defer obs.SetEnabled(true)
	var on, off [2]float64 // median allocations per query, at 200 and 800 instances
	for i, instances := range []int{200, 800} {
		eng, q := joinHeavyEngine(t, instances)
		opts := Options{Workers: 1}
		run := func() {
			if _, err := runQuery(eng, q, opts); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm plan cache, metric label children and batch pools
		on[i], off[i] = medianAllocs(run)
	}
	// Under -race the medians scatter (see medianAllocs), so allow more
	// slack — still far below any per-row regression.
	slack := 2.0
	if raceEnabled {
		slack = 16
	}
	onGrowth, offGrowth := on[1]-on[0], off[1]-off[0]
	if math.Abs(onGrowth-offGrowth) > slack {
		t.Errorf("allocation growth from 200 to 800 instances: metrics on %.0f (medians %.0f → %.0f), obs disabled %.0f (%.0f → %.0f); want within %.0f",
			onGrowth, on[0], on[1], offGrowth, off[0], off[1], slack)
	}
}

// medianAllocs returns the median allocation count of one run with obs
// enabled and with it disabled, over interleaved samples. Garbage
// collection is pinned off for the sampling window: a cycle landing
// inside a run empties the batch pools and moves its count. The heap is
// collected between samples instead, where a cycle costs the measured
// runs nothing (AllocsPerRun's warm-up run refills the pools). The race
// runtime drops a quarter of sync.Pool puts and randomises goroutine
// order, which scatters one run's count by tens of allocations at 800
// instances, so under -race each sample averages four runs.
func medianAllocs(run func()) (on, off float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const samples = 51
	runs := 1
	if raceEnabled {
		runs = 4
	}
	var ons, offs []float64
	for i := 0; i < samples; i++ {
		runtime.GC()
		obs.SetEnabled(true)
		ons = append(ons, testing.AllocsPerRun(runs, run))
		obs.SetEnabled(false)
		offs = append(offs, testing.AllocsPerRun(runs, run))
	}
	obs.SetEnabled(true)
	slices.Sort(ons)
	slices.Sort(offs)
	return ons[samples/2], offs[samples/2]
}
