package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestE1AllChecksPass locks the Fig. 2 reproduction: every row of the E1
// table must report ok.
func TestE1AllChecksPass(t *testing.T) {
	tab := E1Figure2()
	if len(tab.Rows) < 8 {
		t.Fatalf("E1 rows = %d, want >= 8", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "ok" {
			t.Errorf("E1 check failed: %v", row)
		}
	}
}

// TestE2AllStagesPass locks the architecture pipeline.
func TestE2AllStagesPass(t *testing.T) {
	tab := E2Architecture()
	if len(tab.Rows) < 6 {
		t.Fatalf("E2 rows = %d, want >= 6", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "ok" {
			t.Errorf("E2 stage failed: %v", row)
		}
	}
}

// TestE4AffectedTracksCoverage checks the maintenance shape: the affected
// fraction grows monotonically with coverage and never exceeds the merge
// baseline.
func TestE4AffectedTracksCoverage(t *testing.T) {
	tab := E4Maintenance([]float64{0.1, 0.5, 0.9})
	if len(tab.Rows) != 3 {
		t.Fatalf("E4 rows = %d", len(tab.Rows))
	}
	prev := -1.0
	for _, row := range tab.Rows {
		affected := parseFloat(t, row[3])
		if affected < prev-10 { // allow small noise, require broad monotonicity
			t.Errorf("affected%% dropped sharply: %v", tab.Rows)
		}
		prev = affected
		if affected > 100 {
			t.Errorf("affected%% out of range: %v", row)
		}
	}
}

// TestE9LightEngineWins checks the inference shape: the semi-naive engine
// considers strictly fewer joins, and its advantage grows.
func TestE9LightEngineWins(t *testing.T) {
	tab := E9Inference([]int{30, 60})
	if len(tab.Rows) != 2 {
		t.Fatalf("E9 rows = %d", len(tab.Rows))
	}
	r1 := parseFloat(t, tab.Rows[0][4])
	r2 := parseFloat(t, tab.Rows[1][4])
	if r1 <= 1 || r2 <= r1 {
		t.Fatalf("joins ratio shape wrong: %v then %v", r1, r2)
	}
}

// TestE10FlatArrivalWork checks the incremental-composition shape.
func TestE10FlatArrivalWork(t *testing.T) {
	tab := E10Incremental([]int{4, 8})
	a1 := parseFloat(t, tab.Rows[0][1])
	a2 := parseFloat(t, tab.Rows[1][1])
	m1 := parseFloat(t, tab.Rows[0][2])
	m2 := parseFloat(t, tab.Rows[1][2])
	if a1 != a2 {
		t.Errorf("articulation arrival work not flat: %v vs %v", a1, a2)
	}
	if m2 <= m1 {
		t.Errorf("re-merge work did not grow: %v vs %v", m1, m2)
	}
	if a2 >= m2 {
		t.Errorf("articulation work not below merge work: %v vs %v", a2, m2)
	}
}

// TestE7LexiconLiftsRecall checks the SKAT shape.
func TestE7LexiconLiftsRecall(t *testing.T) {
	tab := E7SKAT()
	recall := func(name string) float64 {
		for _, row := range tab.Rows {
			if row[0] == name {
				return parseFloat(t, row[3])
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	if recall("+structural") <= recall("exact only") {
		t.Fatalf("structural recall %v not above exact %v", recall("+structural"), recall("exact only"))
	}
}

func TestRenderAligned(t *testing.T) {
	tab := &Table{
		ID:      "EX",
		Title:   "demo",
		Columns: []string{"a", "long column"},
		Rows:    [][]string{{"x", "y"}, {"wider cell", "z"}},
		Notes:   []string{"a note"},
	}
	out := tab.Render()
	if !strings.Contains(out, "== EX: demo ==") {
		t.Fatalf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "note: a note") {
		t.Fatalf("note missing:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	// Column alignment: the second column starts at the same offset in
	// header and rows.
	idx := strings.Index(lines[1], "long column")
	if idx < 0 || strings.Index(lines[3], "z") != idx {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

// TestByID checks the registry: every entry resolves by its id, ids
// are case-insensitive, retired ids are unknown, and an entry's -list
// line is rendered without running the experiment.
func TestByID(t *testing.T) {
	for _, e := range Experiments {
		got, ok := ByID(e.ID)
		if !ok || got.ID != e.ID || got.Title != e.Title {
			t.Errorf("registry id %s does not resolve to itself: %+v, %v", e.ID, got, ok)
		}
		if _, ok := ByID(strings.ToLower(e.ID)); !ok {
			t.Errorf("lowercase id %q rejected", strings.ToLower(e.ID))
		}
		e.Run = func() *Table { t.Fatalf("listing %s ran it", e.ID); return nil }
		if line := e.String(); !strings.HasPrefix(line, e.ID+" ") || !strings.HasSuffix(line, " "+e.Title) || e.Title == "" {
			t.Errorf("-list line for %s = %q", e.ID, line)
		}
	}
	for _, id := range []string{"E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E99"} {
		if _, ok := ByID(id); ok {
			t.Errorf("retired or unknown id %s accepted", id)
		}
	}
	if tab := Experiments[0].Run(); tab.ID != "E1" || tab.Title != Experiments[0].Title {
		t.Errorf("Run did not label its table: %q %q", tab.ID, tab.Title)
	}
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	var f float64
	if _, err := fmt.Sscan(s, &f); err != nil {
		t.Fatalf("bad float %q: %v", s, err)
	}
	return f
}
