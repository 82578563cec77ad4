package kb

import (
	"slices"
	"strings"
	"testing"
)

func sample(t testing.TB) *Store {
	t.Helper()
	s := New("carrier")
	s.MustAdd("MyCar", "InstanceOf", Term("PassengerCar"))
	s.MustAdd("MyCar", "Price", Number(2000))
	s.MustAdd("MyCar", "Owner", String("Alice"))
	s.MustAdd("Suv9", "Price", Number(5000))
	return s
}

func TestAddAndLen(t *testing.T) {
	s := sample(t)
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	// Duplicates are ignored.
	s.MustAdd("MyCar", "Price", Number(2000))
	if s.Len() != 4 {
		t.Fatalf("duplicate stored")
	}
	if err := s.Add("", "p", Number(1)); err == nil {
		t.Fatalf("empty subject accepted")
	}
	if err := s.Add("s", "", Number(1)); err == nil {
		t.Fatalf("empty predicate accepted")
	}
}

func TestMatchBySubject(t *testing.T) {
	s := sample(t)
	fs := s.Match("MyCar", "", nil)
	if len(fs) != 3 {
		t.Fatalf("Match(MyCar) = %v", fs)
	}
	for i := 1; i < len(fs); i++ {
		if fs[i].Predicate < fs[i-1].Predicate {
			t.Fatalf("Match results not sorted")
		}
	}
}

func TestMatchByPredicate(t *testing.T) {
	s := sample(t)
	fs := s.Match("", "Price", nil)
	if len(fs) != 2 {
		t.Fatalf("Match(Price) = %v", fs)
	}
}

func TestMatchWithObject(t *testing.T) {
	s := sample(t)
	v := Number(2000)
	fs := s.Match("", "Price", &v)
	if len(fs) != 1 || fs[0].Subject != "MyCar" {
		t.Fatalf("Match(Price=2000) = %v", fs)
	}
	w := Number(999)
	if fs := s.Match("", "Price", &w); len(fs) != 0 {
		t.Fatalf("Match(Price=999) = %v", fs)
	}
	// Subject+predicate+object all constrained.
	o := String("Alice")
	if fs := s.Match("MyCar", "Owner", &o); len(fs) != 1 {
		t.Fatalf("full Match = %v", fs)
	}
}

func TestMatchAll(t *testing.T) {
	s := sample(t)
	if fs := s.Match("", "", nil); len(fs) != 4 {
		t.Fatalf("Match(all) = %d", len(fs))
	}
}

func TestValueSemantics(t *testing.T) {
	if !Term("X").IsTerm() || Term("X").IsNumber() {
		t.Fatalf("Term kind wrong")
	}
	if !Number(1).IsNumber() {
		t.Fatalf("Number kind wrong")
	}
	if Term("a").Equal(String("a")) {
		t.Fatalf("cross-kind Equal")
	}
	if !Number(2).Equal(Number(2)) || Number(2).Equal(Number(3)) {
		t.Fatalf("Number Equal wrong")
	}
	if !Number(1).Less(Number(2)) || Number(2).Less(Number(1)) {
		t.Fatalf("Number Less wrong")
	}
	if !Term("x").Less(String("a")) { // kind order: term < string
		t.Fatalf("kind ordering wrong")
	}
	if String("ab").Format() != `"ab"` {
		t.Fatalf("String Format = %q", String("ab").Format())
	}
	if Number(2.5).Format() != "2.5" {
		t.Fatalf("Number Format = %q", Number(2.5).Format())
	}
	if Term("T").Format() != "T" {
		t.Fatalf("Term Format = %q", Term("T").Format())
	}
}

func TestSubjectsAndPredicates(t *testing.T) {
	s := sample(t)
	subs := s.Subjects()
	if len(subs) != 2 || subs[0] != "MyCar" || subs[1] != "Suv9" {
		t.Fatalf("Subjects = %v", subs)
	}
	preds := s.Predicates()
	if len(preds) != 3 {
		t.Fatalf("Predicates = %v", preds)
	}
}

func TestStringDump(t *testing.T) {
	s := sample(t)
	out := s.String()
	if !strings.Contains(out, "kb carrier (4 facts)") {
		t.Fatalf("String header wrong:\n%s", out)
	}
	if !strings.Contains(out, `MyCar Owner "Alice"`) {
		t.Fatalf("String missing fact:\n%s", out)
	}
	if s.String() != s.String() {
		t.Fatalf("String unstable")
	}
}

func TestEpochBumpsOnInsertOnly(t *testing.T) {
	s := New("carrier")
	if s.Epoch() != 0 {
		t.Fatalf("fresh store epoch = %d", s.Epoch())
	}
	s.MustAdd("MyCar", "Price", Number(3000))
	e1 := s.Epoch()
	if e1 == 0 {
		t.Fatalf("insert did not bump epoch")
	}
	// A duplicate is ignored and must not bump: equal epochs promise an
	// unchanged fact set to cache validators.
	s.MustAdd("MyCar", "Price", Number(3000))
	if s.Epoch() != e1 {
		t.Fatalf("duplicate add bumped epoch: %d -> %d", e1, s.Epoch())
	}
	s.MustAdd("MyCar", "Owner", String("Alice"))
	if s.Epoch() <= e1 {
		t.Fatalf("second insert did not bump epoch: %d -> %d", e1, s.Epoch())
	}
	if err := s.Add("", "Price", Number(1)); err == nil || s.Epoch() != e1+1 {
		t.Fatalf("rejected add must not bump epoch (err=%v, epoch=%d)", err, s.Epoch())
	}
}

// TestSubjectOrdinals pins the contract the query engine's semi-join walk
// reads: a subject's ordinals in insertion order, each naming one of its
// facts through FactAt; nothing for an unknown subject; and an append
// visible at the next call while a slice taken before it keeps its length.
func TestSubjectOrdinals(t *testing.T) {
	s := sample(t)
	s.MustAdd("Suv9", "Owner", String("Bob"))
	ords := s.SubjectOrdinals("MyCar")
	if want := []int{0, 1, 2}; !slices.Equal(ords, want) {
		t.Fatalf("SubjectOrdinals(MyCar) = %v, want %v", ords, want)
	}
	for _, i := range ords {
		if f := s.FactAt(i); f.Subject != "MyCar" {
			t.Fatalf("ordinal %d is %v, not a MyCar fact", i, f)
		}
	}
	if got := s.SubjectOrdinals("Suv9"); !slices.Equal(got, []int{3, 4}) {
		t.Fatalf("SubjectOrdinals(Suv9) = %v, want [3 4]", got)
	}
	if got := s.SubjectOrdinals("Nobody"); len(got) != 0 {
		t.Fatalf("unknown subject has ordinals %v", got)
	}
	s.MustAdd("MyCar", "Model", String("T"))
	if got := s.SubjectOrdinals("MyCar"); !slices.Equal(got, []int{0, 1, 2, 5}) {
		t.Fatalf("after an append SubjectOrdinals(MyCar) = %v, want [0 1 2 5]", got)
	}
	if !slices.Equal(ords, []int{0, 1, 2}) {
		t.Fatalf("an append rewrote an earlier slice: %v", ords)
	}
	s.MustAdd("New1", "Price", Number(1))
	if got := s.SubjectOrdinals("New1"); !slices.Equal(got, []int{6}) {
		t.Fatalf("new subject's ordinals %v, want [6]", got)
	}
}
