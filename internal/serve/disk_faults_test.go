package serve

import (
	"context"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/kb"
	"repro/internal/query"
	"repro/internal/vfs"
)

// faultyDiskCache builds a disk tier over a scriptable filesystem with
// retries/backoff tuned for test speed.
func faultyDiskCache(t *testing.T, capacity int) (*vfs.Faulty, *diskCache) {
	t.Helper()
	fsys := vfs.NewFaulty(vfs.OS{})
	c, err := newDiskCacheFS(t.TempDir(), capacity, fsys, newMetrics())
	if err != nil {
		t.Fatal(err)
	}
	c.backoff = 10 * time.Microsecond
	return fsys, c
}

func testResult() *query.Result {
	return &query.Result{Vars: []string{"x"}, Rows: [][]kb.Value{{kb.Term("A")}, {kb.Number(3)}}}
}

// TestDiskReadRetryHealsTransient: a single transient read error is
// absorbed by the retry — the entry still serves, the fault is counted,
// and the breaker never budges.
func TestDiskReadRetryHealsTransient(t *testing.T) {
	fsys, c := faultyDiskCache(t, 4)
	res := testResult()
	if !c.put("k", res) {
		t.Fatal("put failed")
	}
	fsys.Inject(vfs.Rule{Op: vfs.OpRead, PathSubstr: diskEntryPrefix, Times: 1, Err: syscall.EIO})
	got, ok := c.get("k")
	if !ok || !got.EqualRows(res) {
		t.Fatalf("get after transient fault: ok=%v", ok)
	}
	if f := c.faults.Value(); f != 1 {
		t.Fatalf("faults = %d, want 1 (the healed attempt)", f)
	}
	if c.brk.isOpen() {
		t.Fatal("a healed transient fault must not open the breaker")
	}
}

// TestDiskBreakerOpensAndRecloses drives the breaker through its full
// cycle with a scripted clock: persistent read errors open it (gets
// degrade to instant misses with no I/O), the cooldown admits a probe,
// and a successful probe re-closes it — the entry serves again.
func TestDiskBreakerOpensAndRecloses(t *testing.T) {
	fsys, c := faultyDiskCache(t, 4)
	c.retries = 0 // every failed attempt is terminal: one get = one failure
	c.brk.threshold = 3
	now := time.Unix(1000, 0)
	c.brk.now = func() time.Time { return now }

	res := testResult()
	if !c.put("k", res) {
		t.Fatal("put failed")
	}
	fsys.Inject(vfs.Rule{Op: vfs.OpRead, PathSubstr: diskEntryPrefix, Err: syscall.EIO})
	for i := 0; i < 3; i++ {
		if _, ok := c.get("k"); ok {
			t.Fatalf("get %d succeeded under a persistent fault", i)
		}
	}
	if !c.brk.isOpen() || c.brk.trips.Value() != 1 {
		t.Fatalf("breaker open=%v trips=%d after threshold failures, want open, 1 trip",
			c.brk.isOpen(), c.brk.trips.Value())
	}
	// Open breaker: misses are instant and touch no file at all.
	opsBefore := fsys.Ops()
	if _, ok := c.get("k"); ok {
		t.Fatal("get succeeded with the breaker open")
	}
	if fsys.Ops() != opsBefore {
		t.Fatal("an open breaker still performed disk I/O")
	}

	// The device recovers, but the breaker stays open until the cooldown
	// elapses...
	fsys.Reset()
	if _, ok := c.get("k"); ok {
		t.Fatal("get succeeded before the cooldown elapsed")
	}
	// ...then one probe goes through, succeeds, and re-closes it.
	now = now.Add(c.brk.cooldown + time.Millisecond)
	got, ok := c.get("k")
	if !ok || !got.EqualRows(res) {
		t.Fatalf("probe get after recovery: ok=%v", ok)
	}
	if c.brk.isOpen() || c.brk.trips.Value() != 1 {
		t.Fatalf("breaker open=%v trips=%d after successful probe, want closed, 1 trip",
			c.brk.isOpen(), c.brk.trips.Value())
	}
}

// TestDiskFailedProbeReopens: if the probe itself fails, the breaker
// re-opens (a second trip) for another cooldown.
func TestDiskFailedProbeReopens(t *testing.T) {
	fsys, c := faultyDiskCache(t, 4)
	c.retries = 0
	c.brk.threshold = 1
	now := time.Unix(1000, 0)
	c.brk.now = func() time.Time { return now }
	if !c.put("k", testResult()) {
		t.Fatal("put failed")
	}
	fsys.Inject(vfs.Rule{Op: vfs.OpRead, Err: syscall.EIO})
	c.get("k") // trips immediately (threshold 1)
	now = now.Add(c.brk.cooldown + time.Millisecond)
	c.get("k") // the probe fails against the still-broken device
	if !c.brk.isOpen() || c.brk.trips.Value() != 2 {
		t.Fatalf("breaker open=%v trips=%d after failed probe, want open, 2 trips",
			c.brk.isOpen(), c.brk.trips.Value())
	}
}

// TestDiskCorruptEntryDoesNotTripBreaker: corruption is a content
// problem, not device trouble — the entry is dropped and recomputable,
// and the breaker (a device-health signal) stays closed.
func TestDiskCorruptEntryDoesNotTripBreaker(t *testing.T) {
	_, c := faultyDiskCache(t, 4)
	res := testResult()
	if !c.put("k", res) {
		t.Fatal("put failed")
	}
	if err := os.WriteFile(c.path("k"), []byte("garbage, not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.get("k"); ok {
		t.Fatal("corrupt entry served")
	}
	if c.brk.isOpen() || c.faults.Value() != 0 {
		t.Fatalf("corruption moved device-health signals: open=%v faults=%d",
			c.brk.isOpen(), c.faults.Value())
	}
	// The slot is reusable immediately.
	if !c.put("k", res) {
		t.Fatal("re-put after corruption failed")
	}
	if got, ok := c.get("k"); !ok || !got.EqualRows(res) {
		t.Fatal("re-put entry does not serve")
	}
}

// TestDiskOutageNeverFailsQueries is the tentpole guarantee end to end:
// with the disk tier's device erroring on every read AND write (ENOSPC
// on demotion, EIO on promotion), queries still answer correctly — the
// tier degrades to executing again, the breaker eventually opens, and
// no error ever reaches a caller.
func TestDiskOutageNeverFailsQueries(t *testing.T) {
	sys, art := growWorld(t)
	fsys := vfs.NewFaulty(vfs.OS{})
	s := New(sys, Options{CacheEntries: 1, NegativeEntries: -1, Exec: query.Options{Workers: 1}})
	if err := s.EnableDiskCacheFS(t.TempDir(), 8, fsys); err != nil {
		t.Fatal(err)
	}
	s.disk.retries = 0
	s.disk.backoff = 0
	ctx := context.Background()
	if _, err := s.AddFacts("g1", []kb.Fact{
		{Subject: "I1", Predicate: "InstanceOf", Object: kb.Term("Item")},
		{Subject: "I1", Predicate: "Price", Object: kb.Number(7)},
	}); err != nil {
		t.Fatal(err)
	}
	const qA = "SELECT ?x ?p WHERE ?x InstanceOf Item . ?x Price ?p"
	const qB = "SELECT ?x WHERE ?x InstanceOf Item"

	// Healthy warm-up: qA demotes to disk when qB evicts it.
	want, _, err := answerText(ctx, s, art, qA, Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := answerText(ctx, s, art, qB, Limits{}, nil); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DiskDemotions != 1 {
		t.Fatalf("warm-up demotions = %d, want 1", st.DiskDemotions)
	}

	// The device dies wholesale.
	fsys.Inject(vfs.Rule{Op: vfs.OpRead, Err: syscall.EIO})
	fsys.Inject(vfs.Rule{Op: vfs.OpWrite, Err: syscall.ENOSPC})

	// Hammer the alternating pair: every promotion read and demotion
	// write fails, yet every query must answer, exactly.
	for i := 0; i < 8; i++ {
		got, _, err := answerText(ctx, s, art, qA, Limits{}, nil)
		if err != nil {
			t.Fatalf("query %d failed under disk outage: %v", i, err)
		}
		if !got.EqualRows(want) {
			t.Fatalf("query %d rows diverged under disk outage", i)
		}
		if _, _, err := answerText(ctx, s, art, qB, Limits{}, nil); err != nil {
			t.Fatalf("qB %d failed under disk outage: %v", i, err)
		}
	}
	st := s.Stats()
	if st.DiskFaults == 0 {
		t.Fatal("no disk faults counted during the outage")
	}
	if st.BreakerTrips == 0 {
		t.Fatal("the breaker never opened under a persistent outage")
	}
	if !s.disk.brk.isOpen() {
		t.Fatal("breaker closed while the device is still dead")
	}
}

// TestBreakerStatePerService runs two Services in one process: each
// reports its own disk-tier breaker in its own registry, so healthy I/O
// on one cannot overwrite the other's open state.
func TestBreakerStatePerService(t *testing.T) {
	tripped, healthy := paperService(t, Options{}), paperService(t, Options{})
	fsys := vfs.NewFaulty(vfs.OS{})
	if err := tripped.EnableDiskCacheFS(t.TempDir(), 4, fsys); err != nil {
		t.Fatal(err)
	}
	if err := healthy.EnableDiskCache(t.TempDir(), 4); err != nil {
		t.Fatal(err)
	}
	c := tripped.disk
	c.retries = 0
	c.brk.threshold = 1
	if !c.put("k", testResult()) {
		t.Fatal("put failed")
	}
	fsys.Inject(vfs.Rule{Op: vfs.OpRead, Err: syscall.EIO})
	if _, ok := c.get("k"); ok || !c.brk.isOpen() {
		t.Fatalf("faulted get: ok=%v open=%v, want a miss that trips the breaker", ok, c.brk.isOpen())
	}
	// The healthy tier's breaker records a success and publishes closed.
	if !healthy.disk.put("k", testResult()) {
		t.Fatal("healthy put failed")
	}
	if got := breakerState(t, tripped); got != "2" {
		t.Errorf("tripped service breaker_state = %s, want 2 (open)", got)
	}
	if got := breakerState(t, healthy); got != "0" {
		t.Errorf("healthy service breaker_state = %s, want 0 (closed)", got)
	}
	if a, b := tripped.Stats().BreakerTrips, healthy.Stats().BreakerTrips; a != 1 || b != 0 {
		t.Errorf("breaker_trips = %d and %d, want 1 and 0", a, b)
	}
}

// breakerState reads onion_serve_breaker_state from the service's
// registry exposition.
func breakerState(t *testing.T, s *Service) string {
	t.Helper()
	var b strings.Builder
	if _, err := s.Metrics().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "onion_serve_breaker_state "); ok {
			return v
		}
	}
	t.Fatalf("no onion_serve_breaker_state sample in:\n%s", b.String())
	return ""
}
