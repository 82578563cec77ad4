package kb

import (
	"fmt"
	"testing"
)

// coldFacts is the cold-start corpus: unique subjects, cycling
// predicates, and objects alternating across all three value kinds.
// BenchmarkStoreAdd and BenchmarkStoreRestore build the same store from
// it, so their ns/op ratio is what Restore's skipped dedup probe and
// per-fact epoch bump save.
func coldFacts(n int) []Fact {
	facts := make([]Fact, n)
	for i := range facts {
		f := Fact{Subject: fmt.Sprintf("S%07d", i)}
		switch i % 3 {
		case 0:
			f.Predicate, f.Object = "InstanceOf", Term(fmt.Sprintf("Class%d", i%17))
		case 1:
			f.Predicate, f.Object = "Price", Number(float64(i%9973)+0.5)
		default:
			f.Predicate, f.Object = "Label", String(fmt.Sprintf("item-%d", i))
		}
		facts[i] = f
	}
	return facts
}

const coldN = 100_000

func BenchmarkStoreAdd(b *testing.B) {
	facts := coldFacts(coldN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New("cold")
		for _, f := range facts {
			if err := s.Add(f.Subject, f.Predicate, f.Object); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkStoreRestore(b *testing.B) {
	facts := coldFacts(coldN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Restore("cold", facts, coldN); err != nil {
			b.Fatal(err)
		}
	}
}
