package main

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/kb"
	"repro/internal/query"
)

// oracle is the same seeded world built in-process and answered by the
// engine's deliberately naive path (query.Options{Sequential: true}:
// textual join order, unindexed scans, no plan cache). Each template is
// answered once without its filter; a filtered answer is that row set
// cut at the threshold by the benchmark itself, so the daemon's filter
// is checked against a comparison the engine took no part in.
type oracle struct {
	sys  *core.System
	base map[string][]pricedRow // template name → unfiltered rows by ascending price
}

// pricedRow is one expected answer row: its kind-strict key and the
// value of the filtered column.
type pricedRow struct {
	price float64
	key   string
}

// fig2System registers the paper's running example exactly as
// `oniond -fig2` does.
func fig2System() (*core.System, error) {
	sys := core.NewSystem()
	if err := sys.Register(fixtures.Carrier()); err != nil {
		return nil, err
	}
	if err := sys.Register(fixtures.Factory()); err != nil {
		return nil, err
	}
	if err := sys.RegisterKB(fixtures.CarrierKB()); err != nil {
		return nil, err
	}
	if err := sys.RegisterKB(fixtures.FactoryKB()); err != nil {
		return nil, err
	}
	_, err := sys.Articulate(fixtures.ArtName, "carrier", "factory", fixtures.TransportRules(), fixtures.GenOptions())
	return sys, err
}

func newOracle(load []batch) (*oracle, error) {
	sys, err := fig2System()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o := &oracle{sys: sys, base: make(map[string][]pricedRow)}
	for _, b := range load {
		if err := o.add(b); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// add applies one acknowledged batch to the oracle's world.
func (o *oracle) add(b batch) error {
	if _, err := o.sys.AddFacts(b.source, b.facts); err != nil {
		return fmt.Errorf("oracle: adding to %s: %w", b.source, err)
	}
	clear(o.base) // answers computed before the write are stale
	return nil
}

// rows answers a template without its filter, ascending by price.
func (o *oracle) rows(t template) ([]pricedRow, error) {
	if rows, ok := o.base[t.name]; ok {
		return rows, nil
	}
	res, err := o.sys.QueryWith(fixtures.ArtName, t.sel, query.Options{Sequential: true})
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", t.name, err)
	}
	rows := make([]pricedRow, 0, len(res.Rows))
	for _, r := range res.Rows {
		// Fig. 2 prices MyCar by an ontology edge to the term "2000";
		// a numeric filter rejects a term, so no filtered answer holds it.
		if r[priceColumn].Kind != kb.KindNumber {
			continue
		}
		cells := make([]wireValue, len(r))
		for j, v := range r {
			cells[j] = toWire(v)
		}
		rows = append(rows, pricedRow{price: r[priceColumn].Num, key: rowKey(cells)})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].price < rows[b].price })
	o.base[t.name] = rows
	return rows, nil
}

// threshold returns a filter constant that exactly want rows of the
// template pass (fewer when the world is smaller than that): the
// midpoint between the last passing and the first failing price.
func (o *oracle) threshold(t template, want int) (float64, error) {
	rows, err := o.rows(t)
	if err != nil {
		return 0, err
	}
	if len(rows) < 2 {
		return 0, fmt.Errorf("oracle: %s answers %d rows; the world is too small to filter", t.name, len(rows))
	}
	want = max(1, min(want, len(rows)-1))
	i := want // rows[:i] pass "<"
	if t.op == ">" {
		i = len(rows) - want // rows[i:] pass ">"
	}
	return (rows[i-1].price + rows[i].price) / 2, nil
}

// expect returns the sorted row keys the filtered template must answer.
func (o *oracle) expect(t template, threshold float64) ([]string, error) {
	rows, err := o.rows(t)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, r := range rows {
		if (t.op == "<" && r.price < threshold) || (t.op == ">" && r.price > threshold) {
			keys = append(keys, r.key)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// rowKey renders one row kind-strictly: a term, a string and a number
// that print alike still differ, and a number keeps every digit.
func rowKey(cells []wireValue) string {
	var b strings.Builder
	for _, c := range cells {
		b.WriteString(c.Kind)
		b.WriteByte('=')
		switch v := c.Value.(type) {
		case float64:
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		case string:
			b.WriteString(strconv.Quote(v))
		default:
			fmt.Fprintf(&b, "?%v", v)
		}
		b.WriteByte(';')
	}
	return b.String()
}

// queryReply is the part of oniond's /query response the benchmark
// reads. Stats and the span tree stay generic, so a counter or span
// the daemon drops is a missing metric, not a build break.
type queryReply struct {
	Vars    []string       `json:"vars"`
	Rows    [][]wireValue  `json:"rows"`
	Outcome string         `json:"outcome"`
	Stats   map[string]any `json:"stats"`
	Trace   *span          `json:"trace"`
}

// matches reports whether a decoded reply carries exactly the expected
// rows, in any order.
func (r *queryReply) matches(want []string) bool {
	got := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		got[i] = rowKey(row)
	}
	sort.Strings(got)
	return slices.Equal(got, want)
}
