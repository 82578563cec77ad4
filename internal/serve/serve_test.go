package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/articulation"
	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/query"
	"repro/internal/rules"
)

const vehiclePriceQ = "SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"

// paperService wires the Fig. 2 world behind a Service.
func paperService(t testing.TB, opts Options) *Service {
	t.Helper()
	sys := core.NewSystem()
	for _, step := range []error{
		sys.Register(fixtures.Carrier()),
		sys.Register(fixtures.Factory()),
		sys.RegisterKB(fixtures.CarrierKB()),
		sys.RegisterKB(fixtures.FactoryKB()),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	if _, err := sys.Articulate(fixtures.ArtName, "carrier", "factory", fixtures.TransportRules(), fixtures.GenOptions()); err != nil {
		t.Fatal(err)
	}
	return New(sys, opts)
}

// answerText parses text and answers it through s.Answer, the way
// oniond's /query handler does: a parse error comes back as a miss.
func answerText(ctx context.Context, s *Service, artName, text string, lim Limits, trace *obs.Span) (*query.Result, Outcome, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, OutcomeMiss, err
	}
	return s.Answer(ctx, artName, q, lim, trace)
}

func TestCacheHitMissAndEpochInvalidation(t *testing.T) {
	s := paperService(t, Options{})
	ctx := context.Background()

	r1, out, err := answerText(ctx, s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("first query: outcome %v err %v, want miss", out, err)
	}
	r2, out, err := answerText(ctx, s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil)
	if err != nil || out != OutcomeHit {
		t.Fatalf("second query: outcome %v err %v, want hit", out, err)
	}
	if !r1.EqualRows(r2) {
		t.Fatalf("cache returned different rows")
	}
	// Normalization: a differently spelled but identical query hits too.
	if _, out, err = answerText(ctx, s, fixtures.ArtName, "select  ?x   ?p  where ?x InstanceOf Vehicle .  ?x Price ?p", Limits{}, nil); err != nil || out != OutcomeHit {
		t.Fatalf("normalized respelling: outcome %v err %v, want hit", out, err)
	}

	// A mutation shifts the epoch vector: the old entry stops matching,
	// the next query recomputes and reflects the new fact.
	if _, err := s.AddFacts("carrier", []kb.Fact{
		{Subject: "NewCar", Predicate: "InstanceOf", Object: kb.Term("PassengerCar")},
		{Subject: "NewCar", Predicate: "Price", Object: kb.Number(2500)},
	}); err != nil {
		t.Fatal(err)
	}
	r3, out, err := answerText(ctx, s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("post-mutation query: outcome %v err %v, want miss", out, err)
	}
	if len(r3.Rows) != len(r1.Rows)+1 {
		t.Fatalf("post-mutation rows = %d, want %d", len(r3.Rows), len(r1.Rows)+1)
	}

	st := s.Stats()
	if st.CacheHits != 2 || st.CacheMisses != 2 || st.Mutations != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// Errors are not cached and unknown articulations fail cleanly.
	if _, _, err := answerText(ctx, s, "nope", vehiclePriceQ, Limits{}, nil); err == nil {
		t.Fatalf("unknown articulation accepted")
	}
	if _, _, err := answerText(ctx, s, fixtures.ArtName, "SELECT bogus", Limits{}, nil); err == nil {
		t.Fatalf("parse error accepted")
	}
}

// TestRegistryEditMissesCache: re-registering a conversion function is a
// state change like an append. The next answer is a miss carrying the
// rows the new function converts, not the cached rows of the old one.
func TestRegistryEditMissesCache(t *testing.T) {
	s := paperService(t, Options{})
	ctx := context.Background()
	myCar := func(res *query.Result) string {
		for _, r := range res.Rows {
			if r[0].Format() == "carrier.MyCar" && r[1].IsNumber() {
				return r[1].Format()
			}
		}
		return ""
	}
	r1, out, err := answerText(ctx, s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("first query: outcome %v err %v, want miss", out, err)
	}
	if myCar(r1) != "3200" {
		t.Fatalf("MyCar's 2000 pounds are not 3200 euros: %v", r1.Rows)
	}
	if _, out, err = answerText(ctx, s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil); err != nil || out != OutcomeHit {
		t.Fatalf("second query: outcome %v err %v, want hit", out, err)
	}
	art, _ := s.System().Articulation(fixtures.ArtName)
	if err := art.Funcs.Register("PSToEuroFn", func(v float64) (float64, error) { return v / 2, nil }); err != nil {
		t.Fatal(err)
	}
	r3, out, err := answerText(ctx, s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("query after the re-registration: outcome %v err %v, want miss", out, err)
	}
	if myCar(r3) != "1000" {
		t.Fatalf("MyCar's price does not go through the new function: %v", r3.Rows)
	}
	if len(r3.Rows) != len(r1.Rows) {
		t.Fatalf("rows = %d, want %d", len(r3.Rows), len(r1.Rows))
	}
}

func TestCacheDisabledAndEvictions(t *testing.T) {
	ctx := context.Background()

	// Negative CacheEntries disables caching: identical queries miss.
	off := paperService(t, Options{CacheEntries: -1})
	for i := 0; i < 2; i++ {
		if _, out, err := answerText(ctx, off, fixtures.ArtName, vehiclePriceQ, Limits{}, nil); err != nil || out != OutcomeMiss {
			t.Fatalf("uncached query %d: outcome %v err %v", i, out, err)
		}
	}

	// A two-entry cache over three distinct queries evicts the oldest.
	small := paperService(t, Options{CacheEntries: 2})
	qs := []string{
		"SELECT ?x WHERE ?x InstanceOf Vehicle",
		"SELECT ?p WHERE carrier.MyCar Price ?p",
		"SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p",
	}
	for _, q := range qs {
		if _, _, err := answerText(ctx, small, fixtures.ArtName, q, Limits{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := small.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (stats %+v)", st.Evictions, st)
	}
	// The evicted (oldest) query misses; the newest still hits.
	if _, out, _ := answerText(ctx, small, fixtures.ArtName, qs[0], Limits{}, nil); out != OutcomeMiss {
		t.Fatalf("evicted query outcome = %v, want miss", out)
	}
	if _, out, _ := answerText(ctx, small, fixtures.ArtName, qs[2], Limits{}, nil); out != OutcomeHit {
		t.Fatalf("resident query outcome = %v, want hit", out)
	}
}

// TestSingleflightCoalescing holds the leader's flight open until every
// follower has parked on it, then releases: exactly one execution, the
// rest coalesce onto its result.
func TestSingleflightCoalescing(t *testing.T) {
	const followers = 7
	s := paperService(t, Options{})
	release := make(chan struct{})
	s.leaderGate = func() {
		select {
		case <-release:
		case <-time.After(10 * time.Second):
			panic("coalescing test wedged: followers never arrived")
		}
	}

	ctx := context.Background()
	results := make([]*query.Result, followers+1)
	outcomes := make([]Outcome, followers+1)
	var wg sync.WaitGroup
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, out, err := answerText(ctx, s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			results[i], outcomes[i] = res, out
		}(i)
	}
	// Release the leader once all followers are parked on its flight.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if s.Stats().Coalesced == followers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	st := s.Stats()
	if st.CacheMisses != 1 || st.Coalesced != followers || st.CacheHits != 0 {
		t.Fatalf("stats = %+v, want 1 miss + %d coalesced", st, followers)
	}
	var nMiss int
	for i, out := range outcomes {
		if out == OutcomeMiss {
			nMiss++
		}
		if results[i] == nil || !results[0].EqualRows(results[i]) {
			t.Fatalf("worker %d got a different result", i)
		}
	}
	if nMiss != 1 {
		t.Fatalf("leaders = %d, want 1", nMiss)
	}
}

func TestDeadlines(t *testing.T) {
	s := paperService(t, Options{DefaultTimeout: time.Nanosecond})
	_, _, err := answerText(context.Background(), s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("default timeout not applied: %v", err)
	}
	// An explicit (generous) caller deadline overrides the default.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if res, _, err := answerText(ctx, s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil); err != nil || len(res.Rows) == 0 {
		t.Fatalf("caller deadline run failed: %v", err)
	}
	// Errors must not poison the cache: the next unbounded call executes
	// and succeeds.
	if res, out, err := answerText(context.Background(), s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil); err != nil || out != OutcomeHit || len(res.Rows) == 0 {
		t.Fatalf("after deadline error: outcome %v err %v", out, err)
	}
}

// growWorld builds a two-source world whose result set grows by exactly
// one row per mutation — the shape the staleness hammer checks
// monotonicity against.
func growWorld(t testing.TB) (*core.System, string) {
	t.Helper()
	sys := core.NewSystem()
	for _, name := range []string{"g1", "g2"} {
		o := ontology.New(name)
		o.MustAddTerm("Item")
		o.MustAddTerm("Price")
		o.MustRelate("Item", ontology.AttributeOf, "Price")
		if err := sys.Register(o); err != nil {
			t.Fatal(err)
		}
	}
	set := rules.NewSet(rules.MustParse("g1.Item => g2.Item"))
	if _, err := sys.Articulate("growart", "g1", "g2", set, articulation.Options{Lenient: true}); err != nil {
		t.Fatal(err)
	}
	return sys, "growart"
}

// TestNoStaleRowsUnderMutationHammer is the cache-consistency hammer:
// concurrent clients query through the Service while a mutator grows a
// source through the System. The world is grow-only, so any client ever
// observing the row count shrink has been served a stale cached result —
// exactly what epoch-vector keying must prevent. The final cached answer
// must be byte-identical to an uncached sequential run.
func TestNoStaleRowsUnderMutationHammer(t *testing.T) {
	sys, art := growWorld(t)
	s := New(sys, Options{Exec: query.Options{Workers: 4}})
	const q = "SELECT ?x ?p WHERE ?x InstanceOf Item . ?x Price ?p"
	const clients = 6
	const mutations = 60

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seen := -1
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, _, err := answerText(context.Background(), s, art, q, Limits{}, nil)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if len(res.Rows) < seen {
					t.Errorf("client %d observed stale rows: %d after %d", c, len(res.Rows), seen)
					return
				}
				seen = len(res.Rows)
			}
		}(c)
	}
	for i := 0; i < mutations; i++ {
		inst := fmt.Sprintf("I%03d", i)
		if _, err := s.AddFacts("g1", []kb.Fact{
			{Subject: inst, Predicate: "InstanceOf", Object: kb.Term("Item")},
			{Subject: inst, Predicate: "Price", Object: kb.Number(float64(i))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	final, _, err := answerText(context.Background(), s, art, q, Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.QueryWith(art, q, query.Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Rows) != mutations || !want.EqualRows(final) {
		t.Fatalf("final served rows (%d) diverge from uncached sequential (%d)", len(final.Rows), len(want.Rows))
	}
}

// BenchmarkServeHotCache is the serving layer's per-request cost on a
// resident entry: one mutex-guarded map lookup plus an LRU bump.
func BenchmarkServeHotCache(b *testing.B) {
	s := paperService(b, Options{})
	ctx := context.Background()
	if _, _, err := answerText(ctx, s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := answerText(ctx, s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFollowerSurvivesLeaderCancellation pins the orphaned-follower
// rule: when the singleflight leader dies of its *own* context — a
// disconnected client, a tight per-request deadline — a healthy
// follower must not inherit that error; it retries and executes with
// its own budget.
func TestFollowerSurvivesLeaderCancellation(t *testing.T) {
	s := paperService(t, Options{})
	release := make(chan struct{})
	s.leaderGate = func() { <-release } // a closed channel passes instantly on retry

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := answerText(leaderCtx, s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil)
		leaderErr <- err
	}()
	waitForStat(t, s, func(st Stats) bool { return st.CacheMisses == 1 })

	followerRes := make(chan error, 1)
	go func() {
		res, _, err := answerText(context.Background(), s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil)
		if err == nil && len(res.Rows) == 0 {
			err = errors.New("empty result")
		}
		followerRes <- err
	}()
	waitForStat(t, s, func(st Stats) bool { return st.Coalesced == 1 })

	// Kill the leader's context, then let it run into the cancellation.
	cancelLeader()
	close(release)

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	if err := <-followerRes; err != nil {
		t.Fatalf("follower inherited the leader's death: %v", err)
	}
	if st := s.Stats(); st.CacheMisses != 2 {
		t.Fatalf("follower did not retry as leader: %+v", st)
	}
}

// waitForStat polls the service counters until cond holds.
func waitForStat(t *testing.T, s *Service, cond func(Stats) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if cond(s.Stats()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNegativeResultCache covers the dedicated empty-result cache: an
// empty answer is cached apart from the main LRU (so positive churn
// cannot displace it), hits count separately, survives a storm of
// positive insertions, and stops matching the moment a mutation shifts
// the epoch vector.
func TestNegativeResultCache(t *testing.T) {
	sys, art := growWorld(t)
	// A two-entry positive cache: any churn would evict an empty result
	// filed in the main LRU.
	s := New(sys, Options{CacheEntries: 2, Exec: query.Options{Workers: 1}})
	ctx := context.Background()
	const emptyQ = "SELECT ?x WHERE ?x InstanceOf Item . ?x Price 424242"

	r, out, err := answerText(ctx, s, art, emptyQ, Limits{}, nil)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("first empty query: outcome %v err %v, want miss", out, err)
	}
	if len(r.Rows) != 0 {
		t.Fatalf("probe query returned %d rows, want 0", len(r.Rows))
	}
	// Churn the positive cache far past its bound.
	for i := 0; i < 8; i++ {
		q := fmt.Sprintf("SELECT ?x WHERE ?x InstanceOf Item . ?x Price %d", i)
		if _, _, err := answerText(ctx, s, art, q, Limits{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	_, out, err = answerText(ctx, s, art, emptyQ, Limits{}, nil)
	if err != nil || out != OutcomeHit {
		t.Fatalf("empty re-query: outcome %v err %v, want hit from negative cache", out, err)
	}
	st := s.Stats()
	if st.NegativeHits != 1 {
		t.Fatalf("NegativeHits = %d, want 1", st.NegativeHits)
	}
	// A mutation makes the provably-empty answer stale: the epoch key
	// shifts, the negative entry stops matching, and the fresh row shows.
	if _, err := s.AddFacts("g1", []kb.Fact{
		{Subject: "late", Predicate: "InstanceOf", Object: kb.Term("Item")},
		{Subject: "late", Predicate: "Price", Object: kb.Number(424242)},
	}); err != nil {
		t.Fatal(err)
	}
	r, out, err = answerText(ctx, s, art, emptyQ, Limits{}, nil)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("post-mutation query: outcome %v err %v, want miss", out, err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("post-mutation rows = %d, want 1", len(r.Rows))
	}
	if s.Stats().NegativeHits != 1 {
		t.Fatalf("stale negative entry served after mutation")
	}
}

// TestNegativeCacheDisabled checks the opt-out: with NegativeEntries < 0
// empty results share the main LRU (still cached, no negative hits).
func TestNegativeCacheDisabled(t *testing.T) {
	sys, art := growWorld(t)
	s := New(sys, Options{NegativeEntries: -1, Exec: query.Options{Workers: 1}})
	ctx := context.Background()
	const emptyQ = "SELECT ?x WHERE ?x InstanceOf Item . ?x Price 7"
	if _, out, err := answerText(ctx, s, art, emptyQ, Limits{}, nil); err != nil || out != OutcomeMiss {
		t.Fatalf("first: outcome %v err %v", out, err)
	}
	if _, out, err := answerText(ctx, s, art, emptyQ, Limits{}, nil); err != nil || out != OutcomeHit {
		t.Fatalf("second: outcome %v err %v, want hit from the main cache", out, err)
	}
	if st := s.Stats(); st.NegativeHits != 0 {
		t.Fatalf("NegativeHits = %d with the negative cache disabled", st.NegativeHits)
	}
}

// spillWorld is a federation whose join build tables dwarf a small
// memory limit, so a budgeted request must spill.
func spillWorld(t testing.TB) (*core.System, string) {
	t.Helper()
	sys := core.NewSystem()
	for _, name := range []string{"s1", "s2"} {
		o := ontology.New(name)
		o.MustAddTerm("Item")
		for _, p := range []string{"Price", "Qty"} {
			o.MustAddTerm(p)
			o.MustRelate("Item", ontology.AttributeOf, p)
		}
		if err := sys.Register(o); err != nil {
			t.Fatal(err)
		}
		store := kb.New(name)
		for k := 0; k < 300; k++ {
			inst := fmt.Sprintf("%sI%d", name, k)
			store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			store.MustAdd(inst, "Price", kb.Number(float64(k%97)))
			store.MustAdd(inst, "Qty", kb.Number(float64(k%13)))
		}
		if err := sys.RegisterKB(store); err != nil {
			t.Fatal(err)
		}
	}
	set := rules.NewSet(rules.MustParse("s1.Item => s2.Item"))
	if _, err := sys.Articulate("spillart", "s1", "s2", set, articulation.Options{Lenient: true}); err != nil {
		t.Fatal(err)
	}
	return sys, "spillart"
}

// fleetWorld is a two-source federation of 400 priced items each, and a
// working set of 16 queries with distinct FILTER thresholds: each query
// is its own cache entry, and none of them is empty.
func fleetWorld(t testing.TB) (*core.System, string, []string) {
	t.Helper()
	sys := core.NewSystem()
	for i, name := range []string{"f1", "f2"} {
		o := ontology.New(name)
		o.MustAddTerm("Item")
		o.MustAddTerm("Price")
		o.MustRelate("Item", ontology.AttributeOf, "Price")
		if err := sys.Register(o); err != nil {
			t.Fatal(err)
		}
		store := kb.New(name)
		for k := 0; k < 400; k++ {
			inst := fmt.Sprintf("%sI%d", name, k)
			store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			store.MustAdd(inst, "Price", kb.Number(float64((k*37+i*11)%1600)))
		}
		if err := sys.RegisterKB(store); err != nil {
			t.Fatal(err)
		}
	}
	set := rules.NewSet(rules.MustParse("f1.Item => f2.Item"))
	if _, err := sys.Articulate("fleetart", "f1", "f2", set, articulation.Options{Lenient: true}); err != nil {
		t.Fatal(err)
	}
	queries := make([]string, 16)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT ?x ?p WHERE ?x InstanceOf Item . ?x Price ?p . FILTER ?p > %d", i*100)
	}
	return sys, "fleetart", queries
}

// directRows answers each query on the bare engine, bypassing the
// service: the rows every served answer must equal.
func directRows(t testing.TB, sys *core.System, art string, queries []string, exec query.Options) []*query.Result {
	t.Helper()
	want := make([]*query.Result, len(queries))
	for i, q := range queries {
		res, err := sys.QueryWith(art, q, exec)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("query %d answered no rows", i)
		}
		want[i] = res
	}
	return want
}

// TestPrewarmedFleetServesFromCache serves a prewarmed working set to a
// concurrent fleet: every request is a memory-cache hit (CacheHits rises
// by exactly the request count, CacheMisses does not move) and every
// answer equals the bare engine's rows.
func TestPrewarmedFleetServesFromCache(t *testing.T) {
	const clients, perClient = 8, 64
	sys, art, queries := fleetWorld(t)
	exec := query.Options{Workers: 1}
	want := directRows(t, sys, art, queries, exec)
	s := New(sys, Options{Exec: exec})
	ctx := context.Background()
	for _, q := range queries {
		if _, _, err := answerText(ctx, s, art, q, Limits{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				qi := (c + i) % len(queries)
				res, _, err := answerText(ctx, s, art, queries[qi], Limits{}, nil)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if !res.EqualRows(want[qi]) {
					t.Errorf("client %d: query %d diverged from the bare engine", c, qi)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	after := s.Stats()
	if hits := after.CacheHits - before.CacheHits; hits != clients*perClient {
		t.Errorf("cache hits rose by %d, want %d", hits, clients*perClient)
	}
	if after.CacheMisses != before.CacheMisses {
		t.Errorf("cache misses moved %d -> %d on a prewarmed working set", before.CacheMisses, after.CacheMisses)
	}
}

// TestPerRequestMemoryLimit threads a per-request memory budget beside
// the deadline: the limited request completes by spilling (counted in
// spilled_queries), its rows are byte-identical to the unlimited run,
// and the tighter of the service default and the request limit wins.
func TestPerRequestMemoryLimit(t *testing.T) {
	sys, art := spillWorld(t)
	s := New(sys, Options{Exec: query.Options{Workers: 4}})
	ctx := context.Background()
	const q = "SELECT ?x ?p ?q WHERE ?x InstanceOf Item . ?x Price ?p . ?x Qty ?q"

	free, out, err := answerText(ctx, s, art, q, Limits{}, nil)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("unlimited query: outcome %v err %v", out, err)
	}
	if st := s.Stats(); st.SpilledQueries != 0 {
		t.Fatalf("unlimited query spilled: %+v", st)
	}
	// A different articulation-identical query under a 16KB request cap
	// (respelled so it misses the cache and actually executes).
	capped, out, err := answerText(ctx, s, art, "SELECT ?x ?p ?q WHERE ?x InstanceOf Item . ?x Qty ?q . ?x Price ?p", Limits{MemoryBytes: 1 << 14}, nil)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("limited query: outcome %v err %v", out, err)
	}
	if got, want := len(capped.Rows), len(free.Rows); got != want {
		t.Fatalf("limited rows = %d, want %d", got, want)
	}
	if capped.Stats.SpilledPartitions == 0 {
		t.Fatalf("16KB request did not spill: %+v", capped.Stats)
	}
	if st := s.Stats(); st.SpilledQueries != 1 {
		t.Fatalf("SpilledQueries = %d, want 1", st.SpilledQueries)
	}
	// A cache hit costs no execution memory, so the limit is moot there.
	if _, out, err := answerText(ctx, s, art, q, Limits{MemoryBytes: 1}, nil); err != nil || out != OutcomeHit {
		t.Fatalf("cached limited query: outcome %v err %v, want hit", out, err)
	}
}

// TestServiceDefaultMemoryLimitWins checks precedence: the tighter of
// the service-wide Exec.MemoryLimit and the request limit governs.
func TestServiceDefaultMemoryLimitWins(t *testing.T) {
	sys, art := spillWorld(t)
	s := New(sys, Options{Exec: query.Options{Workers: 4, MemoryLimit: 1 << 14}})
	ctx := context.Background()
	// The request asks for a huge budget; the 16KB service default still
	// forces a spill.
	res, _, err := answerText(ctx, s, art, "SELECT ?x ?p WHERE ?x InstanceOf Item . ?x Price ?p . ?x Qty ?q", Limits{MemoryBytes: 1 << 40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpilledPartitions == 0 {
		t.Fatalf("service default limit ignored: %+v", res.Stats)
	}
	if st := s.Stats(); st.SpilledQueries != 1 {
		t.Fatalf("SpilledQueries = %d, want 1", st.SpilledQueries)
	}
}
