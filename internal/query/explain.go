package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// TripleScan describes how one triple is reformulated for one source.
type TripleScan struct {
	Source string
	// Subjects / Predicates / Objects are the expanded constant sets
	// ("*" alone means unconstrained — a variable position).
	Subjects   []string
	Predicates []string
	Objects    []string
	// Skipped is true when the scan is pruned: the triple cannot denote
	// anything in this source (an expansion came up empty), or the
	// source's rows provably cannot join. Reason says which —
	// "no denotation", or "no Owner facts: ?x cannot join".
	Skipped bool
	Reason  string
	// Est is the planner's row estimate for this scan.
	Est int
	// Range is the selection pushed into the scan, in source units, with
	// the inverse it was mapped through — "Price < 937.5 (PSToEuroFn⁻¹)"
	// — or "" when the filters run after conversion only.
	Range string
	// BoundVar is set on a scan bound to step 1's surviving subjects (the
	// sideways semi-join): the shared subject variable. BoundSubjects is
	// step 1's exact row count in this source, which bounds the walk.
	BoundVar      string
	BoundSubjects int
}

// TriplePlan is the reformulation of one WHERE conjunct, in execution
// (join) order.
type TriplePlan struct {
	Triple string
	Scans  []TripleScan
	// Index is the conjunct's textual position in the WHERE clause;
	// when it differs from the slice position the planner reordered it.
	Index int
	// Est is the planner's total row estimate across sources.
	Est int
	// KeyVars are the variables the step hash-joins on (empty for the
	// first step and for disconnected cross products).
	KeyVars []string
	// NewVars are the variables this step binds first.
	NewVars []string
	// StreamsInto is the join-order position of the step this step's
	// output streams into (-1 for the last step), and StreamKeyVars are
	// the downstream key variables the output is re-hashed on at
	// production time.
	StreamsInto   int
	StreamKeyVars []string
	// Partitions is the hash-partition count this step's join runs with
	// under the explained options: planner-derived from the scan
	// estimates (skew-aware) unless Options{Partitions} pins a global
	// count (0 for the leading scan step).
	Partitions int
	// ActualRows and ActualNs are the step's measured row output (after
	// the filters that first apply at it) and wall-clock duration, set
	// only when the enclosing Plan is Analyzed. Rows are deterministic;
	// durations are wall-clock, and every step runs concurrently from
	// execution start, so step durations overlap rather than sum.
	ActualRows int
	ActualNs   int64
}

// Plan is the explanation of a query's reformulation (§2.3: "a query
// phrased in terms of an articulation ontology [is turned into] an
// execution plan against the sources involved") plus the execution
// wiring of the slot-based engine: the variable→slot assignment and the
// selectivity-ordered, hash-partitioned join pipeline.
type Plan struct {
	Query string
	// Slots is the tuple layout: Slots[i] is the variable stored at
	// slot i.
	Slots []string
	// Workers is the worker-pool size the explained options resolve to.
	Workers int
	// Partitions is the widest hash-partition count across the join
	// steps (each step's own count is in its TriplePlan.Partitions;
	// Options{Partitions} pins them all; 0 on a single-step plan).
	Partitions int
	// MemoryLimit is the explained options' execution budget in bytes
	// (0 = unlimited): joins that cannot reserve within it degrade to
	// grace-hash spilling.
	MemoryLimit int64
	// Triples are the WHERE conjuncts in execution (join) order.
	Triples []TriplePlan
	// Analyzed is true when the plan came from an analyzing Explain: the
	// query actually ran, and ActualRows/ActualNs (whole query) plus each
	// TriplePlan's actuals record what the execution measured against
	// the planner's estimates. Per-step actuals are populated on the
	// planned path (StepRows); the Sequential reference path reports
	// only the totals.
	Analyzed   bool
	ActualRows int
	ActualNs   int64
}

// String renders the plan for terminal display; Analyzed plans carry
// "actual" annotations next to every estimate.
func (p *Plan) String() string {
	var b strings.Builder
	if p.Analyzed {
		fmt.Fprintf(&b, "plan for %s  (analyzed: %d rows in %s)\n",
			p.Query, p.ActualRows, time.Duration(p.ActualNs).Round(time.Microsecond))
	} else {
		fmt.Fprintf(&b, "plan for %s\n", p.Query)
	}
	if len(p.Slots) > 0 {
		parts := make([]string, len(p.Slots))
		for i, v := range p.Slots {
			parts[i] = fmt.Sprintf("?%s=s%d", v, i)
		}
		fmt.Fprintf(&b, "  slots: %s\n", strings.Join(parts, " "))
	}
	fmt.Fprintf(&b, "  exec: columnar batches; cross-step pipeline — %d scan workers, joins hash-partitioned %d ways, vectorized hash/filter/probe over slot columns\n",
		p.Workers, p.Partitions)
	if p.MemoryLimit > 0 {
		fmt.Fprintf(&b, "  memory: budget %d bytes — joins degrade to grace-hash spill at their reservation\n", p.MemoryLimit)
	}
	for i, tp := range p.Triples {
		key := "-"
		if len(tp.KeyVars) > 0 {
			key = "{?" + strings.Join(tp.KeyVars, " ?") + "}"
		}
		parts := ""
		if tp.Partitions > 0 {
			parts = fmt.Sprintf(", parts %d", tp.Partitions)
		}
		actual := ""
		if p.Analyzed && tp.ActualNs > 0 {
			actual = fmt.Sprintf(", actual %d rows in %s",
				tp.ActualRows, time.Duration(tp.ActualNs).Round(time.Microsecond))
		}
		fmt.Fprintf(&b, "  step %d: triple %s  (where #%d, est %d, join key %s%s%s)\n",
			i+1, tp.Triple, tp.Index+1, tp.Est, key, parts, actual)
		if tp.StreamsInto >= 0 {
			fmt.Fprintf(&b, "    ~> streams into step %d on {?%s}\n",
				tp.StreamsInto+1, strings.Join(tp.StreamKeyVars, " ?"))
		}
		for _, sc := range tp.Scans {
			if sc.Skipped {
				fmt.Fprintf(&b, "    %-12s pruned (%s)\n", sc.Source, sc.Reason)
				continue
			}
			fmt.Fprintf(&b, "    %-12s subj %s  pred %s  obj %s  est %d",
				sc.Source, setOrStar(sc.Subjects), setOrStar(sc.Predicates), setOrStar(sc.Objects), sc.Est)
			if sc.Range != "" {
				fmt.Fprintf(&b, "  range %s", sc.Range)
			}
			if sc.BoundVar != "" {
				fmt.Fprintf(&b, "  bound to step 1's ?%s (%d subjects)", sc.BoundVar, sc.BoundSubjects)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func setOrStar(ss []string) string {
	if len(ss) == 0 {
		return "*"
	}
	return "{" + strings.Join(ss, ", ") + "}"
}

// Explain compiles the query under opts, returning the per-triple,
// per-source scan plan in join order together with the slot assignment
// and the worker, partition and memory settings opts resolve to. It
// shares the plan cache with execution, so explaining a query warms its
// plan.
//
// With analyze (EXPLAIN ANALYZE) it also executes the query under ctx
// and opts and annotates the plan with the measured actuals: the
// whole-query row count and wall time, and — on the planned path, which
// records Stats.StepRows/StepDurNs — each step's emitted rows and
// duration next to the planner's estimates. The executed Result is
// returned alongside (nil without analyze), so callers get the rows,
// full Stats and (when opts.Trace is set) the span tree in one call.
func (e *Engine) Explain(ctx context.Context, q Query, opts Options, analyze bool) (*Plan, *Result, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	ep, _ := e.cachedPlan(q, e.validateEpochs())
	workers := resolveWorkers(opts)
	plan := &Plan{
		Query:       q.String(),
		Slots:       append([]string(nil), ep.slotNames...),
		Workers:     workers,
		MemoryLimit: opts.MemoryLimit,
	}
	for i, stp := range ep.steps {
		tp := TriplePlan{
			Triple:      stp.triple.String(),
			Index:       stp.origIdx,
			Est:         stp.est,
			KeyVars:     slotVars(ep, stp.keySlots),
			NewVars:     slotVars(ep, stp.newSlots),
			StreamsInto: -1,
		}
		// Per-step partition counts from the function the executor
		// calls, under the same options.
		if i > 0 {
			tp.Partitions = ep.stepPartCount(i, opts, workers)
			plan.Partitions = max(plan.Partitions, tp.Partitions)
		}
		if i+1 < len(ep.steps) {
			tp.StreamsInto = i + 1
			tp.StreamKeyVars = slotVars(ep, stp.nextKeySlots)
		}
		for j, sc := range stp.scans {
			scan := TripleScan{Source: sc.name, Est: sc.est, Range: pushedString(sc.view.pushed)}
			if sc.bound {
				scan.BoundVar = ep.slotNames[ep.steps[0].spec[0]]
				scan.BoundSubjects = ep.steps[0].scans[j].est
			}
			if sc.view.skip {
				scan.Skipped, scan.Reason = true, sc.why
				tp.Scans = append(tp.Scans, scan)
				continue
			}
			// Copy the precomputed lists: the cached plan is immutable
			// and shared with every execution, so the returned Plan must
			// not alias its slices.
			scan.Subjects = append([]string(nil), sc.view.subjList...)
			scan.Predicates = append([]string(nil), sc.view.predList...)
			scan.Objects = sortedSet(sc.view.objTerms)
			tp.Scans = append(tp.Scans, scan)
		}
		plan.Triples = append(plan.Triples, tp)
	}
	if !analyze {
		return plan, nil, nil
	}
	t0 := time.Now()
	res, err := e.Execute(ctx, q, opts)
	if err != nil {
		return nil, nil, err
	}
	plan.Analyzed = true
	plan.ActualRows = len(res.Rows)
	plan.ActualNs = time.Since(t0).Nanoseconds()
	st := &res.Stats
	// Per-step actuals only when the executed path produced them and
	// the step count matches the explained plan (it always does for the
	// planned path — both come from the same cached plan).
	if len(st.StepRows) == len(plan.Triples) && len(st.StepDurNs) == len(plan.Triples) {
		for i := range plan.Triples {
			plan.Triples[i].ActualRows = st.StepRows[i]
			plan.Triples[i].ActualNs = st.StepDurNs[i]
		}
	}
	return plan, res, nil
}

func slotVars(p *execPlan, slots []int) []string {
	if len(slots) == 0 {
		return nil
	}
	out := make([]string, len(slots))
	for i, s := range slots {
		out[i] = p.slotNames[s]
	}
	return out
}

func sortedSet(set map[string]bool) []string {
	if set == nil {
		return nil
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
