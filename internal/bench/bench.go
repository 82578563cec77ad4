// Package bench is the paper-reproduction harness: one function per
// experiment, each returning a printable table, listed once in the
// Experiments registry. cmd/onionbench renders them; the root-level Go
// benchmarks wrap the same code paths with testing.B.
//
// The paper (EDBT 2000) has no quantitative evaluation section — its
// figures are the architecture (Fig. 1) and the worked example (Fig. 2) —
// so E1/E2 reproduce the figures mechanically, E3..E10 quantify the
// paper's qualitative claims (scalability, maintainability, semi-
// automation, light inference) and E11 compares the planned query path
// with the sequential reference. Served-system numbers (throughput,
// latency, memory, cold start, tracing cost) are measured by benchmark/
// on the real daemon; the README's bench matrix lists both.
package bench

import (
	"fmt"
	"strings"
	"time"
)

// Table is one experiment's result: a header and rows of cells.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render prints the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// ms renders a duration in milliseconds with three decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

// timeIt runs f once and returns its wall-clock duration.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// Experiment is one registry entry: an id, its title (stated here and
// nowhere else) and Run, which executes it at default parameters and
// returns its labelled table.
type Experiment struct {
	ID    string
	Title string
	Run   func() *Table
}

// String is the experiment's -list line; it does not run anything.
func (e Experiment) String() string { return fmt.Sprintf("%-4s %s", e.ID, e.Title) }

// experiment builds a registry entry whose Run labels f's table.
func experiment(id, title string, f func() *Table) Experiment {
	return Experiment{ID: id, Title: title, Run: func() *Table {
		t := f()
		t.ID, t.Title = id, title
		return t
	}}
}

// Experiments is the registry, in run order. E12, E13 and E19 were
// ratios against executors that no longer exist (frozen in
// BENCH_PR2/3/10.json). The in-process serving experiments (cache,
// bounded memory, cold start, overload, tracing cost) gave way to
// benchmark/, which measures the real daemon; their last figures stay
// in BENCH_PR*.json.
var Experiments = []Experiment{
	experiment("E1", "Fig. 2 reproduction — articulation of carrier and factory into transport", E1Figure2),
	experiment("E2", "Fig. 1 architecture — full pipeline end to end", E2Architecture),
	experiment("E3", "articulation vs. global merge — storage and build time by source count",
		func() *Table { return E3Scalability(nil) }),
	experiment("E4", "maintenance — source churn vs. articulation updates, by coverage",
		func() *Table { return E4Maintenance(nil) }),
	experiment("E5", "ontology algebra cost by source size", func() *Table { return E5Algebra(nil) }),
	experiment("E6", "graph pattern matching cost", func() *Table { return E6Pattern(nil) }),
	experiment("E7", "SKAT suggestion quality by matcher configuration (planted ground truth)", E7SKAT),
	experiment("E8", "query reformulation overhead — articulation-level vs. source-qualified",
		func() *Table { return E8Query(nil) }),
	experiment("E9", "Horn inference — semi-naive (light) vs. naive engine",
		func() *Table { return E9Inference(nil) }),
	experiment("E10", "incremental composition — work per arriving source",
		func() *Table { return E10Incremental(nil) }),
	experiment("E11", "query execution — sequential reference vs. planned/parallel path",
		func() *Table { return E11ParallelQuery(nil) }),
}

// ByID finds a registry entry by id, case-insensitively; ok is false
// for unknown and retired ids.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
