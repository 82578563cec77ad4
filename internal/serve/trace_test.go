package serve

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/obs"
	"repro/internal/query"
)

// TestQueryTraced checks the request-level span tree: a miss records
// the engine's query.execute subtree under the request root, a repeat
// records a cache.hit span with the memory tier, and an admission-
// controlled run records the admission span with its ladder rung. On a
// miss and on a hit alike, Answer annotates the root with the
// articulation, the normalized query and the outcome, in that order. A
// later untraced hit on the entry a traced miss filed gets no trace.
func TestQueryTraced(t *testing.T) {
	s := paperService(t, Options{Exec: query.Options{Workers: 4}})
	ctx := context.Background()
	traced := func(s *Service, text string) (*query.Result, Outcome, *obs.Span, error) {
		root := obs.NewTrace("request")
		res, out, err := answerText(ctx, s, fixtures.ArtName, text, Limits{}, root)
		root.End()
		return res, out, root, err
	}
	wantAttrs := func(root *obs.Span, outcome string) {
		t.Helper()
		want := []obs.Attr{
			{Key: "articulation", Val: fixtures.ArtName},
			{Key: "query", Val: query.MustParse(vehiclePriceQ).String()},
			{Key: "outcome", Val: outcome},
		}
		if !slices.Equal(root.Attrs, want) {
			t.Errorf("root attrs = %v, want %v", root.Attrs, want)
		}
	}

	res, out, root, err := traced(s, vehiclePriceQ)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("first query: outcome %v err %v, want miss", out, err)
	}
	wantAttrs(root, "miss")
	if got := root.Find("query.execute"); got == nil {
		t.Errorf("miss trace lacks query.execute subtree:\n%s", root.Tree())
	}
	if res == nil || len(res.Rows) == 0 {
		t.Fatalf("no rows")
	}

	_, out, root2, err := traced(s, vehiclePriceQ)
	if err != nil || out != OutcomeHit {
		t.Fatalf("second query: outcome %v err %v, want hit", out, err)
	}
	wantAttrs(root2, "hit")
	hit := root2.Find("cache.hit")
	if hit == nil {
		t.Fatalf("hit trace lacks cache.hit span:\n%s", root2.Tree())
	}
	if !strings.Contains(root2.Tree(), "tier=memory") {
		t.Errorf("cache.hit span lacks tier attr:\n%s", root2.Tree())
	}
	if root2.Find("query.execute") != nil {
		t.Errorf("cache hit recorded an execution subtree")
	}

	// Admission control: the leader's trace carries the admission span
	// and its rung.
	adm := paperService(t, Options{
		Exec:              query.Options{Workers: 1},
		AdmissionCapBytes: 1 << 20,
	})
	_, out, aroot, err := traced(adm, vehiclePriceQ)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("admitted query: outcome %v err %v", out, err)
	}
	asp := aroot.Find("admission")
	if asp == nil {
		t.Fatalf("admitted trace lacks admission span:\n%s", aroot.Tree())
	}
	if !strings.Contains(aroot.Tree(), "rung=") {
		t.Errorf("admission span lacks rung attr:\n%s", aroot.Tree())
	}

	// The untraced path answers from the same cache, and the entry the
	// traced miss filed carries no span tree: that tree was the first
	// request's own.
	ures, out, err := answerText(ctx, s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil)
	if err != nil || out != OutcomeHit {
		t.Fatalf("untraced query: outcome %v err %v", out, err)
	}
	if ures.Trace != nil {
		t.Errorf("untraced cache hit after a traced miss returned the miss's trace:\n%s", ures.Trace.Tree())
	}
}

// TestStatsSnapshotInvariants hammers the service while snapshotting
// and asserts the children-before-parents load order holds: no snapshot
// may show a derived counter exceeding the total that bounds it.
func TestStatsSnapshotInvariants(t *testing.T) {
	s := paperService(t, Options{
		Exec:              query.Options{Workers: 2},
		CacheEntries:      -1, // every query executes: misses and admissions churn
		AdmissionCapBytes: 256 << 10,
		AdmissionMinGrant: 32 << 10,
	})
	ctx := context.Background()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _, _ = answerText(ctx, s, fixtures.ArtName, vehiclePriceQ, Limits{MemoryBytes: 512 << 10}, nil)
		}
	}()
	for i := 0; i < 2000; i++ {
		st := s.Stats()
		if st.DegradedGrants > st.Admitted {
			t.Fatalf("snapshot %d: degraded %d > admitted %d", i, st.DegradedGrants, st.Admitted)
		}
		if st.SpilledQueries > st.CacheMisses {
			t.Fatalf("snapshot %d: spilled %d > misses %d", i, st.SpilledQueries, st.CacheMisses)
		}
		if st.DiskDemotions > st.Evictions {
			t.Fatalf("snapshot %d: demotions %d > evictions %d", i, st.DiskDemotions, st.Evictions)
		}
	}
	close(stop)
	<-done
}
