package query

import (
	"testing"

	"repro/internal/pattern"
)

func TestFromPatternPaperNotation(t *testing.T) {
	// truck(O:owner, model) — O captures the owner.
	p := pattern.MustParse("Trucks(O:Owner, Model)")
	q, err := FromPattern(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 2 {
		t.Fatalf("triples = %v", q.Where)
	}
	if q.Where[0].P.Value.Str != pattern.AttributeEdgeLabel {
		t.Fatalf("attribute predicate lost: %v", q.Where[0])
	}
	if len(q.Select) != 1 || q.Select[0] != "O" {
		t.Fatalf("select = %v", q.Select)
	}
}

func TestFromPatternExecutesAgainstEngine(t *testing.T) {
	e := paperEngine(t)
	// carrier:?x:Driver — anything with an edge to Driver.
	p := pattern.MustParse("carrier:?x:Driver")
	q, err := FromPattern(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runQuery(e, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasRow(res, "carrier.Cars") {
		t.Fatalf("pattern query missed Cars: %v", res.Rows)
	}
}

func TestFromPatternAnonymousVariables(t *testing.T) {
	p := pattern.MustParse("Trucks(?)")
	q, err := FromPattern(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 1 || q.Select[0] != "v0" {
		t.Fatalf("anonymous select = %v", q.Select)
	}
}

func TestFromPatternExplicitSelect(t *testing.T) {
	p := pattern.MustParse("Trucks(O:Owner, M:Model)")
	q, err := FromPattern(p, "M")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 1 || q.Select[0] != "M" {
		t.Fatalf("select = %v", q.Select)
	}
	if _, err := FromPattern(p, "ghost"); err == nil {
		t.Fatalf("unbound select var accepted")
	}
}

func TestFromPatternErrors(t *testing.T) {
	// Single node, no edges: not a query.
	if _, err := FromPattern(pattern.MustParse("Trucks")); err == nil {
		t.Fatalf("edgeless pattern accepted")
	}
	// No variables anywhere.
	p := pattern.MustParse("Cars:Trucks")
	p.Ont = ""
	if _, err := FromPattern(p); err == nil {
		t.Fatalf("variable-free pattern accepted")
	}
	if _, err := FromPattern(&pattern.Pattern{}); err == nil {
		t.Fatalf("invalid pattern accepted")
	}
}
