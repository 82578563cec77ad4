package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/kb"
	"repro/internal/query"
	"repro/internal/vfs"
)

// TestCacheKeyAdversarialNames pins the framing fix in cacheKey. The old
// key joined its components with "\x00", but articulation names arrive
// over the wire unvalidated, so a name embedding the separator could
// alias two distinct (articulation, query, epoch) triples onto one key —
// and serve one triple's cached rows for the other. The adversarial pair
// below collides under the old scheme by construction; the
// length-prefixed key must keep them apart.
func TestCacheKeyAdversarialNames(t *testing.T) {
	q, err := query.Parse(vehiclePriceQ)
	if err != nil {
		t.Fatal(err)
	}
	qs := q.String()

	name1, epoch1 := "n\x00"+qs+"\x00e", "x"
	name2, epoch2 := "n", "e\x00"+qs+"\x00x"
	oldKey := func(name, epoch string) string { return name + "\x00" + qs + "\x00" + epoch }
	if oldKey(name1, epoch1) != oldKey(name2, epoch2) {
		t.Fatalf("adversarial pair no longer collides under the old scheme; fix the test")
	}
	if cacheKey(name1, q, epoch1) == cacheKey(name2, q, epoch2) {
		t.Fatalf("length-prefixed cache key still aliases the adversarial pair")
	}
	// And the trivial injectivity cases hold too.
	if cacheKey("a", q, "b") == cacheKey("a", q, "c") || cacheKey("a", q, "b") == cacheKey("ab", q, "") {
		t.Fatalf("cache key not injective on simple pairs")
	}
}

// TestStaleCacheAfterKindCollision is the serving-layer consequence of
// the kb.Store.Add dedup bug: Term("3000") and Number(3000) rendered to
// the same string, so the second Add was silently treated as a duplicate
// — the fact was dropped AND the epoch never bumped, which means the
// result cache kept serving rows from before the mutation. On pre-fix
// code this test fails twice over: added == 0, and the post-mutation
// query is a (stale) cache hit with the old row count.
func TestStaleCacheAfterKindCollision(t *testing.T) {
	sys, art := growWorld(t)
	s := New(sys, Options{Exec: query.Options{Workers: 1}})
	ctx := context.Background()
	const q = "SELECT ?x WHERE ?x InstanceOf Item . ?x Price 3000"

	// A Term-typed price that renders identically to the number 3000.
	if _, err := s.AddFacts("g1", []kb.Fact{
		{Subject: "S", Predicate: "InstanceOf", Object: kb.Term("Item")},
		{Subject: "S", Predicate: "Price", Object: kb.Term("3000")},
	}); err != nil {
		t.Fatal(err)
	}
	r, out, err := answerText(ctx, s, art, q, Limits{}, nil)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("first query: outcome %v err %v", out, err)
	}
	if len(r.Rows) != 0 {
		t.Fatalf("Term(\"3000\") matched the numeric literal: %d rows", len(r.Rows))
	}

	// The colliding mutation: a genuinely new fact whose only difference
	// is the value kind.
	added, err := s.AddFacts("g1", []kb.Fact{
		{Subject: "S", Predicate: "Price", Object: kb.Number(3000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("Number(3000) dropped as a duplicate of Term(\"3000\"): added = %d", added)
	}
	// The cache must miss: the epoch bumped, the old key no longer matches.
	r, out, err = answerText(ctx, s, art, q, Limits{}, nil)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("post-mutation query served stale cache: outcome %v err %v", out, err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("post-mutation rows = %d, want 1", len(r.Rows))
	}
}

// TestMutationsCounterContract: Stats.Mutations counts facts that
// actually landed — duplicates never count, and a failing batch counts
// exactly the prefix that applied, not the attempted size.
func TestMutationsCounterContract(t *testing.T) {
	sys, art := growWorld(t)
	_ = art
	s := New(sys, Options{})
	fact := kb.Fact{Subject: "A", Predicate: "InstanceOf", Object: kb.Term("Item")}

	if added, err := s.AddFacts("g1", []kb.Fact{fact}); err != nil || added != 1 {
		t.Fatalf("first insert: added %d err %v", added, err)
	}
	// An exact duplicate lands nothing.
	if added, err := s.AddFacts("g1", []kb.Fact{fact}); err != nil || added != 0 {
		t.Fatalf("duplicate insert: added %d err %v", added, err)
	}
	if got := s.Stats().Mutations; got != 1 {
		t.Fatalf("Mutations = %d after one real insert + one duplicate, want 1", got)
	}
	// A batch failing midway counts only the landed prefix.
	added, err := s.AddFacts("g1", []kb.Fact{
		{Subject: "B", Predicate: "InstanceOf", Object: kb.Term("Item")},
		{Subject: "", Predicate: "InstanceOf", Object: kb.Term("Item")}, // invalid
		{Subject: "C", Predicate: "InstanceOf", Object: kb.Term("Item")},
	})
	if err == nil {
		t.Fatalf("invalid fact accepted")
	}
	if added != 1 {
		t.Fatalf("failing batch: added = %d, want 1", added)
	}
	if got := s.Stats().Mutations; got != 2 {
		t.Fatalf("Mutations = %d, want 2 (never the attempted batch size)", got)
	}
}

// TestDiskCacheTier drives the demote/promote cycle end to end: a
// one-entry memory cache over two queries forces the older entry to
// demote to disk; re-asking it is answered from the disk tier (counted
// in disk_hits) and promoted back; a mutation shifts the epoch key so
// no demoted entry can ever serve stale rows.
func TestDiskCacheTier(t *testing.T) {
	sys, art := growWorld(t)
	s := New(sys, Options{CacheEntries: 1, NegativeEntries: -1, Exec: query.Options{Workers: 1}})
	if err := s.EnableDiskCache(t.TempDir(), 8); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.AddFacts("g1", []kb.Fact{
		{Subject: "I1", Predicate: "InstanceOf", Object: kb.Term("Item")},
		{Subject: "I1", Predicate: "Price", Object: kb.Number(7)},
	}); err != nil {
		t.Fatal(err)
	}
	const qA = "SELECT ?x ?p WHERE ?x InstanceOf Item . ?x Price ?p"
	const qB = "SELECT ?x WHERE ?x InstanceOf Item"

	resA, out, err := answerText(ctx, s, art, qA, Limits{}, nil)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("qA first: outcome %v err %v", out, err)
	}
	// qB evicts qA from the one-entry memory tier; qA demotes to disk.
	if _, out, err = answerText(ctx, s, art, qB, Limits{}, nil); err != nil || out != OutcomeMiss {
		t.Fatalf("qB: outcome %v err %v", out, err)
	}
	if st := s.Stats(); st.DiskDemotions != 1 {
		t.Fatalf("DiskDemotions = %d, want 1 (stats %+v)", st.DiskDemotions, st)
	}
	// qA again: a disk hit, byte-identical rows, promoted back to memory.
	got, out, err := answerText(ctx, s, art, qA, Limits{}, nil)
	if err != nil || out != OutcomeHit {
		t.Fatalf("qA from disk: outcome %v err %v", out, err)
	}
	if !got.EqualRows(resA) {
		t.Fatalf("disk tier returned different rows")
	}
	st := s.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("DiskHits = %d, want 1 (stats %+v)", st.DiskHits, st)
	}
	// The promotion evicted qB, which demoted in turn.
	if st.DiskDemotions != 2 {
		t.Fatalf("DiskDemotions = %d, want 2 after promotion evicted qB", st.DiskDemotions)
	}
	// qA is resident again: a plain memory hit, no disk traffic.
	if _, out, err = answerText(ctx, s, art, qA, Limits{}, nil); err != nil || out != OutcomeHit {
		t.Fatalf("qA resident: outcome %v err %v", out, err)
	}
	if st := s.Stats(); st.DiskHits != 1 {
		t.Fatalf("resident hit touched the disk tier: %+v", st)
	}

	// A mutation shifts the epoch vector: neither tier may answer, even
	// though both hold entries for these queries under the old key.
	if _, err := s.AddFacts("g1", []kb.Fact{
		{Subject: "I2", Predicate: "InstanceOf", Object: kb.Term("Item")},
		{Subject: "I2", Predicate: "Price", Object: kb.Number(9)},
	}); err != nil {
		t.Fatal(err)
	}
	fresh, out, err := answerText(ctx, s, art, qA, Limits{}, nil)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("post-mutation qA: outcome %v err %v, want miss", out, err)
	}
	if len(fresh.Rows) != len(resA.Rows)+1 {
		t.Fatalf("post-mutation rows = %d, want %d", len(fresh.Rows), len(resA.Rows)+1)
	}
}

// TestDiskCacheRefreshOnRedemote: a put on an existing key must refresh
// the entry's age. Pre-fix, a hot, repeatedly re-demoted entry kept its
// original position in the eviction order and was evicted as "oldest"
// ahead of genuinely cold entries.
func TestDiskCacheRefreshOnRedemote(t *testing.T) {
	c, err := newDiskCacheFS(t.TempDir(), 2, vfs.OS{}, newMetrics())
	if err != nil {
		t.Fatal(err)
	}
	res := &query.Result{Vars: []string{"x"}, Rows: [][]kb.Value{{kb.Term("A")}}}
	for _, k := range []string{"hot", "cold", "hot"} { // re-put refreshes "hot"
		if !c.put(k, res) {
			t.Fatalf("put %q failed", k)
		}
	}
	if !c.put("new", res) { // capacity 2: must evict "cold", not the refreshed "hot"
		t.Fatalf("put new failed")
	}
	if _, ok := c.get("hot"); !ok {
		t.Fatalf("refreshed entry evicted as oldest")
	}
	if _, ok := c.get("cold"); ok {
		t.Fatalf("cold entry survived past capacity")
	}
}

// TestDiskTierConcurrentTraffic hammers the disk tier's demote/promote
// cycle from many goroutines with mutation churn, under -race in CI: the
// tier synchronises itself and is called outside the service mutex, so
// this pins both the locking and that no path ever serves wrong rows
// (every result is re-checked against an uncached execution's row count).
func TestDiskTierConcurrentTraffic(t *testing.T) {
	sys, art := growWorld(t)
	s := New(sys, Options{CacheEntries: 1, NegativeEntries: -1, Exec: query.Options{Workers: 1}})
	if err := s.EnableDiskCache(t.TempDir(), 4); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := []string{
		"SELECT ?x ?p WHERE ?x InstanceOf Item . ?x Price ?p",
		"SELECT ?x WHERE ?x InstanceOf Item",
		"SELECT ?p WHERE I0 Price ?p",
	}
	if _, err := s.AddFacts("g1", []kb.Fact{
		{Subject: "I0", Predicate: "InstanceOf", Object: kb.Term("Item")},
		{Subject: "I0", Predicate: "Price", Object: kb.Number(1)},
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if g == 0 && i%10 == 9 { // one goroutine churns the epochs
					if _, err := s.AddFacts("g1", []kb.Fact{
						{Subject: fmt.Sprintf("I%d", i), Predicate: "InstanceOf", Object: kb.Term("Item")},
					}); err != nil {
						errs <- err
						return
					}
					continue
				}
				if _, _, err := answerText(ctx, s, art, queries[(g+i)%len(queries)], Limits{}, nil); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The churned tiers still answer exactly: a final round of every query
	// must match a cache-bypassing service's rows.
	bypass := New(sys, Options{CacheEntries: -1, Exec: query.Options{Workers: 1}})
	for _, q := range queries {
		want, _, err := answerText(ctx, bypass, art, q, Limits{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := answerText(ctx, s, art, q, Limits{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualRows(want) {
			t.Fatalf("query %q diverges from uncached execution after churn", q)
		}
	}
}

// TestDiskCacheCorruptionAndStaleWipe: a corrupted entry is a miss (and
// is dropped), and opening a tier over a directory with leftover entries
// from a previous process clears them — their keys embed a dead engine
// id and could never hit.
func TestDiskCacheCorruptionAndStaleWipe(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, diskEntryPrefix+"deadbeef"+diskEntrySuffix)
	if err := os.WriteFile(stale, []byte("leftover"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := newDiskCacheFS(dir, 2, vfs.OS{}, newMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale entry survived open: %v", err)
	}

	res := &query.Result{Vars: []string{"x"}, Rows: [][]kb.Value{{kb.Term("A")}, {kb.Number(3)}}}
	if !c.put("k1", res) {
		t.Fatalf("put failed")
	}
	got, ok := c.get("k1")
	if !ok || !got.EqualRows(res) {
		t.Fatalf("round trip failed: ok=%v", ok)
	}
	// Flip one byte: the checksum must reject it and the entry drops.
	path := c.path("k1")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.get("k1"); ok {
		t.Fatalf("corrupt entry served")
	}
	if _, ok := c.get("k1"); ok {
		t.Fatalf("corrupt entry resurrected")
	}

	// Capacity bounds the tier: the oldest entry's file is removed.
	for i := 0; i < 3; i++ {
		if !c.put(fmt.Sprintf("cap%d", i), res) {
			t.Fatalf("put cap%d failed", i)
		}
	}
	if _, ok := c.get("cap0"); ok {
		t.Fatalf("evicted entry cap0 still served")
	}
	if _, ok := c.get("cap2"); !ok {
		t.Fatalf("resident entry cap2 lost")
	}
}
