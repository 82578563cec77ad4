package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fixtures"
	"repro/internal/query"
)

// waitUntil polls cond until it holds or the test deadline-ish budget
// runs out — used to sync with goroutines parked inside the governor.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGovernorLadderDegrades walks the degradation ladder directly: a
// request the pool cannot cover in full is granted a halved (then
// floored) reservation instead of queuing.
func TestGovernorLadderDegrades(t *testing.T) {
	g := newGovernor(Options{AdmissionCapBytes: 1 << 20}) // min grant = 64K
	ctx := context.Background()

	a1, err := g.acquire(ctx, 768<<10)
	if err != nil || a1.granted != 768<<10 || a1.degraded || a1.queued {
		t.Fatalf("full-fit acquire = %+v, %v", a1, err)
	}
	// 256K remain: a 512K ask degrades to 256K.
	a2, err := g.acquire(ctx, 512<<10)
	if err != nil || a2.granted != 256<<10 || !a2.degraded {
		t.Fatalf("degraded acquire = %+v, %v", a2, err)
	}
	// 0 remain: even the 64K floor fails, so the next ask queues; with
	// an already-expired context it reports a queue timeout.
	expired, cancel := context.WithTimeout(ctx, time.Millisecond)
	defer cancel()
	<-expired.Done()
	a3, err := g.acquire(expired, 100<<10)
	if !errors.Is(err, ErrQueueTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("exhausted-pool acquire err = %v, want ErrQueueTimeout wrapping DeadlineExceeded", err)
	}
	if !a3.queued || a3.granted != 0 {
		t.Fatalf("exhausted-pool acquire = %+v, want queued with no grant", a3)
	}
	g.release(a1.granted)
	g.release(a2.granted)
	// The pool is whole again: a full-cap ask fits undegraded.
	a4, err := g.acquire(ctx, 1<<20)
	if err != nil || a4.granted != 1<<20 || a4.degraded {
		t.Fatalf("post-release acquire = %+v, %v", a4, err)
	}
}

// TestGovernorFIFOAndShed parks two waiters behind a full pool and
// checks (a) a third is shed once the queue is full, (b) releases admit
// the waiters strictly head-first.
func TestGovernorFIFOAndShed(t *testing.T) {
	// cap == one min grant: releases admit exactly one waiter at a time,
	// so the admission order below is fully determined.
	g := newGovernor(Options{AdmissionCapBytes: 64 << 10, AdmissionQueue: 2})
	ctx := context.Background()
	hold, err := g.acquire(ctx, 64<<10)
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan int, 2)
	spawn := func(id int, queueLen int) {
		go func() {
			if a, err := g.acquire(ctx, 64<<10); err == nil {
				order <- id
				g.release(a.granted)
			}
		}()
		waitUntil(t, "waiter to park", func() bool {
			g.mu.Lock()
			defer g.mu.Unlock()
			return len(g.queue) == queueLen
		})
	}
	spawn(1, 1)
	spawn(2, 2)

	// Queue full: the next ask is refused fast with ErrShed.
	if _, err := g.acquire(ctx, 64<<10); !errors.Is(err, ErrShed) {
		t.Fatalf("acquire with full queue err = %v, want ErrShed", err)
	}

	g.release(hold.granted)
	if first, second := <-order, <-order; first != 1 || second != 2 {
		t.Fatalf("waiters admitted in order %d,%d; want 1,2", first, second)
	}
}

// TestGovernorTimeoutLeavesQueueClean checks an expired waiter removes
// itself: the queue slot frees up and later traffic is unaffected.
func TestGovernorTimeoutLeavesQueueClean(t *testing.T) {
	g := newGovernor(Options{AdmissionCapBytes: 1 << 20, AdmissionQueue: 1})
	hold, err := g.acquire(context.Background(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := g.acquire(ctx, 64<<10); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
	g.mu.Lock()
	left := len(g.queue)
	g.mu.Unlock()
	if left != 0 {
		t.Fatalf("expired waiter left %d queue entries", left)
	}
	g.release(hold.granted)
	if a, err := g.acquire(context.Background(), 1<<20); err != nil || a.granted != 1<<20 {
		t.Fatalf("acquire after timeout cleanup = %+v, %v", a, err)
	}
}

// TestAdmissionShedAndQueueOutcomes drives overload through the full
// service: one query pins the whole pool at the admission gate, and a
// second is shed (queue disabled) or queued (queue enabled), with the
// new outcomes, errors, HTTP-facing counters and row-exactness intact.
func TestAdmissionShedAndQueueOutcomes(t *testing.T) {
	ctx := context.Background()
	const otherQ = "SELECT ?x WHERE ?x InstanceOf Vehicle"

	t.Run("shed", func(t *testing.T) {
		s := paperService(t, Options{
			CacheEntries:      -1, // every query executes: each one faces admission
			AdmissionCapBytes: 64 << 10,
			AdmissionQueue:    -1, // no queue: exhaustion sheds immediately
		})
		gate, entered := make(chan struct{}), make(chan struct{})
		var once sync.Once
		s.admitGate = func() { once.Do(func() { close(entered) }); <-gate }

		type res struct {
			out Outcome
			err error
		}
		leader := make(chan res, 1)
		go func() {
			_, out, err := answerText(ctx, s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil)
			leader <- res{out, err}
		}()
		<-entered

		// The pool (one min grant) is pinned: a distinct query sheds fast.
		start := time.Now()
		_, out, err := answerText(ctx, s, fixtures.ArtName, otherQ, Limits{}, nil)
		if !errors.Is(err, ErrShed) || out != OutcomeShed {
			t.Fatalf("overloaded query = outcome %v, err %v; want shed/ErrShed", out, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("shed took %v; shedding must be fast", d)
		}
		close(gate)
		if r := <-leader; r.err != nil || r.out != OutcomeMiss {
			t.Fatalf("pinned leader = outcome %v, err %v; want a plain miss", r.out, r.err)
		}
		st := s.Stats()
		if st.Admitted != 1 || st.Shed != 1 || st.Queued != 0 {
			t.Fatalf("stats = %+v, want admitted 1 / shed 1 / queued 0", st)
		}
		// Overload refusals must not poison anything: the shed query now runs.
		if _, out, err := answerText(ctx, s, fixtures.ArtName, otherQ, Limits{}, nil); err != nil || out != OutcomeMiss {
			t.Fatalf("retry after shed = outcome %v, err %v", out, err)
		}
	})

	t.Run("queued then admitted", func(t *testing.T) {
		s := paperService(t, Options{
			CacheEntries:      -1,
			AdmissionCapBytes: 64 << 10,
			AdmissionQueue:    1,
		})
		gate, entered := make(chan struct{}), make(chan struct{})
		var once sync.Once
		s.admitGate = func() { once.Do(func() { close(entered) }); <-gate }
		go answerText(ctx, s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil)
		<-entered

		type res struct {
			out Outcome
			err error
		}
		waiterDone := make(chan res, 1)
		go func() {
			_, out, err := answerText(ctx, s, fixtures.ArtName, otherQ, Limits{}, nil)
			waiterDone <- res{out, err}
		}()
		waitUntil(t, "query to park in the admission queue", func() bool {
			s.gov.mu.Lock()
			defer s.gov.mu.Unlock()
			return len(s.gov.queue) == 1
		})
		close(gate) // leader finishes, releasing its grant to the waiter
		if r := <-waiterDone; r.err != nil || r.out != OutcomeMiss {
			t.Fatalf("queued query = outcome %v, err %v; want an admitted miss", r.out, r.err)
		}
		st := s.Stats()
		if st.Admitted != 2 || st.Queued != 1 || st.Shed != 0 {
			t.Fatalf("stats = %+v, want admitted 2 / queued 1 / shed 0", st)
		}
		if st.QueueWaitNs == 0 {
			t.Fatal("queue_wait_ns did not advance for a queued request")
		}
	})

	t.Run("queue wait expires", func(t *testing.T) {
		s := paperService(t, Options{
			CacheEntries:      -1,
			AdmissionCapBytes: 64 << 10,
			AdmissionQueue:    1,
		})
		gate, entered := make(chan struct{}), make(chan struct{})
		var once sync.Once
		s.admitGate = func() { once.Do(func() { close(entered) }); <-gate }
		go answerText(ctx, s, fixtures.ArtName, vehiclePriceQ, Limits{}, nil)
		<-entered
		defer close(gate)

		qctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
		defer cancel()
		_, out, err := answerText(qctx, s, fixtures.ArtName, otherQ, Limits{}, nil)
		if !errors.Is(err, ErrQueueTimeout) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want ErrQueueTimeout wrapping DeadlineExceeded", err)
		}
		if out != OutcomeQueued {
			t.Fatalf("outcome = %v, want queued", out)
		}
		st := s.Stats()
		if st.Queued != 1 || st.Shed != 1 {
			t.Fatalf("stats = %+v, want queued 1 / shed 1 (an expired wait counts as shed)", st)
		}
	})
}

// TestAdmissionDegradedGrantStaysExact checks the ladder end to end: a
// request asking for more memory than the pool holds is admitted under
// a shrunken grant and still answers with exactly the rows an
// unconstrained service produces.
func TestAdmissionDegradedGrantStaysExact(t *testing.T) {
	ctx := context.Background()
	free := paperService(t, Options{})
	want, _, err := answerText(ctx, free, fixtures.ArtName, vehiclePriceQ, Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	s := paperService(t, Options{AdmissionCapBytes: 96 << 10})
	got, out, err := answerText(ctx, s, fixtures.ArtName, vehiclePriceQ, Limits{MemoryBytes: 1 << 20}, nil)
	if err != nil || out != OutcomeMiss {
		t.Fatalf("degraded query = outcome %v, err %v", out, err)
	}
	if !got.EqualRows(want) {
		t.Fatal("degraded grant changed the result rows")
	}
	st := s.Stats()
	if st.Admitted != 1 || st.DegradedGrants != 1 {
		t.Fatalf("stats = %+v, want admitted 1 / degraded_grants 1", st)
	}
	// The grant was released: the full pool is available again.
	if !s.gov.pool.Reserve(96 << 10) {
		t.Fatal("grant was not released back to the pool")
	}
	s.gov.pool.Release(96 << 10)
}

// TestAdmissionOverloadFleet offers 8× the admission pool from a fleet
// of concurrent clients with the cache off, so every request faces the
// governor. Each asks for 256KB of a 384KB pool with a 128KB ladder
// floor: the first admission takes its full ask, the next degrades to
// the remainder, and the rest queue (at most 2) or shed; a shed client
// backs off briefly, as the daemon's Retry-After asks. Every request
// must be answered or shed (the accounting closes), every answer must
// equal the bare engine's rows even under a degraded grant, and the
// overload must engage the governor.
func TestAdmissionOverloadFleet(t *testing.T) {
	const (
		capBytes    = 384 << 10
		ask         = 256 << 10
		minGrant    = 128 << 10
		queue       = 2
		clients     = 12 // 12 × 256KB = 8× the pool
		perClient   = 24
		shedBackoff = 200 * time.Microsecond
	)
	sys, art, queries := fleetWorld(t)
	exec := query.Options{Workers: 1}
	want := directRows(t, sys, art, queries, exec)
	s := New(sys, Options{
		CacheEntries:      -1,
		Exec:              exec,
		AdmissionCapBytes: capBytes,
		AdmissionQueue:    queue,
		AdmissionMinGrant: minGrant,
	})

	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				qi := (c + i) % len(queries)
				res, _, err := answerText(context.Background(), s, art, queries[qi], Limits{MemoryBytes: ask}, nil)
				switch {
				case err == nil:
					ok.Add(1)
					if !res.EqualRows(want[qi]) {
						t.Errorf("client %d: query %d diverged from the bare engine", c, qi)
					}
				case errors.Is(err, ErrShed):
					shed.Add(1)
					time.Sleep(shedBackoff)
				default:
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	st := s.Stats()
	t.Logf("ok %d, shed %d; stats shed %d, degraded %d, queued %d", ok.Load(), shed.Load(), st.Shed, st.DegradedGrants, st.Queued)
	if got := ok.Load() + shed.Load(); got != clients*perClient {
		t.Errorf("ok %d + shed %d = %d, want %d offered", ok.Load(), shed.Load(), got, clients*perClient)
	}
	if ok.Load() == 0 {
		t.Error("overload answered nothing")
	}
	if st.Shed == 0 && st.DegradedGrants == 0 && st.Queued == 0 {
		t.Errorf("8x overload engaged no admission mechanism: %+v", st)
	}
}
