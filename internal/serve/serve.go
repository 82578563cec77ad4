// Package serve is ONION's serving layer: a concurrent query service
// over a core.System, built for the paper's positioning of the
// articulated system as a long-lived shared resource many applications
// query (EDBT 2000, §2; cf. Euzenat's networks-of-ontologies reading).
//
// The service adds four things the bare engine does not have:
//
//   - a bounded LRU result cache keyed on (articulation, normalized
//     query, epoch vector) — the per-source epochs make cached rows
//     provably exact: a mutation bumps the touched source's epoch, the
//     key stops matching, and the stale entry ages out of the LRU
//     without any invalidation traffic;
//   - a separate, wider negative-result cache: empty results are filed
//     apart from the main LRU, so positive-result churn cannot displace
//     them and provably-empty answers stop re-executing;
//   - singleflight coalescing of identical in-flight queries, so a
//     thundering herd on one hot query computes it once;
//   - per-request resource bounds — deadlines threaded into the
//     engine's scan dispatch (query.Engine.Execute) and memory
//     limits threaded into its budget (query.Options{MemoryLimit}, under
//     which joins degrade to grace-hash spilling) — plus served-traffic
//     counters, including spilled_queries.
//
// A Service is safe for concurrent use by any number of goroutines, and
// mutations may run concurrently with queries as long as they go through
// the underlying System (AddFacts here or on the System, Infer, ...).
package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/vfs"
)

// DefaultCacheEntries bounds the result cache when Options.CacheEntries
// is zero; DefaultNegativeEntries likewise bounds the negative-result
// cache (empty results are tiny, so it is wider).
const (
	DefaultCacheEntries    = 1024
	DefaultNegativeEntries = 4096
)

// Options tune a Service.
type Options struct {
	// CacheEntries bounds the result cache: 0 means DefaultCacheEntries,
	// negative disables caching entirely (every query executes; the
	// benchmark/ -miss workload runs this way).
	CacheEntries int
	// NegativeEntries bounds the negative-result cache: empty results —
	// provably exact under the epoch key like any other — are filed
	// here instead of the main LRU, so a burst of large positive
	// results cannot churn them out and a miss-heavy workload (probing
	// queries, monitoring) stops re-executing provably-empty answers.
	// 0 means DefaultNegativeEntries, negative disables the negative
	// cache (empty results then share the main LRU). Ignored when
	// CacheEntries disables caching.
	NegativeEntries int
	// DefaultTimeout bounds each request without its own deadline; zero
	// means no implicit deadline.
	DefaultTimeout time.Duration
	// Exec are the execution options every query runs with (worker
	// pool, partitions, memory budget, executor selection). Per-request
	// Limits may tighten the memory budget further.
	Exec query.Options
	// AdmissionCapBytes > 0 enables admission control: every executed
	// query must reserve its effective memory limit from a process-wide
	// pool of this many bytes before running, so aggregate execution
	// memory stays bounded no matter how many clients arrive. Under
	// pressure the service first shrinks grants (forcing grace-hash
	// spilling), then queues, then sheds — see admission.go. 0 disables
	// admission control (the pre-PR-7 behavior).
	AdmissionCapBytes int64
	// AdmissionQueue bounds the admission queue: 0 means
	// DefaultAdmissionQueue, negative disables queuing (exhaustion
	// sheds immediately).
	AdmissionQueue int
	// AdmissionDefaultGrant is the reservation for requests with no
	// memory limit of their own (neither Exec.MemoryLimit nor
	// per-request Limits). 0 means AdmissionCapBytes/8, floored at the
	// minimum grant.
	AdmissionDefaultGrant int64
	// AdmissionMinGrant floors the degradation ladder: grants shrink by
	// halving but never below this. 0 means DefaultAdmissionMinGrant.
	AdmissionMinGrant int64
}

// Limits are per-request resource bounds, beside the context deadline.
type Limits struct {
	// MemoryBytes caps the executed query's accounted memory
	// (query.Options{MemoryLimit}); joins degrade to grace-hash
	// spilling instead of exceeding it. 0 keeps the service default; a
	// tighter service default wins. Cache hits are unaffected (a cached
	// result costs no execution memory), and a coalesced request
	// inherits the leader's budget.
	MemoryBytes int64
}

// Stats are the service's monotonically increasing traffic counters
// (json tags give them a stable wire form in oniond's /stats).
type Stats struct {
	// CacheHits counts queries answered straight from the result cache.
	CacheHits uint64 `json:"cache_hits"`
	// CacheMisses counts queries that executed (singleflight leaders).
	CacheMisses uint64 `json:"cache_misses"`
	// Coalesced counts queries that waited on an identical in-flight
	// execution instead of executing themselves.
	Coalesced uint64 `json:"coalesced"`
	// NegativeHits counts queries answered from the negative-result
	// cache (provably empty under the current epoch key).
	NegativeHits uint64 `json:"negative_hits"`
	// Evictions counts result-cache entries displaced by the LRU bounds
	// (positive and negative caches combined).
	Evictions uint64 `json:"evictions"`
	// Mutations counts facts actually inserted through the service:
	// duplicates never count, and a batch that fails midway counts
	// exactly the facts that landed before the failure (AddFacts'
	// partial-insert contract) — never the attempted batch size.
	Mutations uint64 `json:"mutations"`
	// DiskHits counts queries answered from the disk cache tier (a
	// demoted entry promoted back under an unchanged epoch key).
	DiskHits uint64 `json:"disk_hits"`
	// DiskDemotions counts positive entries the memory LRU evicted into
	// the disk tier instead of dropping.
	DiskDemotions uint64 `json:"disk_demotions"`
	// SpilledQueries counts executed queries whose joins degraded to
	// grace-hash spilling under a memory limit (service default or
	// per-request Limits).
	SpilledQueries uint64 `json:"spilled_queries"`
	// Admitted counts executions granted memory by the admission
	// governor (including after a queue wait). Zero when admission
	// control is disabled.
	Admitted uint64 `json:"admitted"`
	// Queued counts requests that waited in the admission queue,
	// whether they were eventually admitted or timed out.
	Queued uint64 `json:"queued"`
	// Shed counts requests refused by admission control: immediate
	// sheds (pool exhausted, queue full) and queue waits that expired.
	Shed uint64 `json:"shed"`
	// DegradedGrants counts admissions where the governor's ladder
	// shrank the memory grant below the request's ask, forcing the
	// execution to run under a tighter budget (and typically spill).
	DegradedGrants uint64 `json:"degraded_grants"`
	// QueueWaitNs accumulates nanoseconds spent waiting in the
	// admission queue, across admitted and expired waiters alike: the
	// queue-wait histogram's sum, rounded to the nanosecond.
	QueueWaitNs uint64 `json:"queue_wait_ns"`
	// DiskFaults counts failed disk-tier I/O attempts (every failed
	// try, including ones a retry then healed). Corrupt entries do not
	// count — they are dropped, not device trouble.
	DiskFaults uint64 `json:"disk_faults"`
	// BreakerTrips counts how many times repeated disk-tier faults
	// opened the circuit breaker, degrading the tier to memory-only
	// until a probe succeeded.
	BreakerTrips uint64 `json:"breaker_trips"`
}

// Outcome reports how a query was answered.
type Outcome int

// Outcomes, in increasing order of work performed.
const (
	// OutcomeHit: served from the result cache.
	OutcomeHit Outcome = iota
	// OutcomeCoalesced: waited on an identical in-flight execution.
	OutcomeCoalesced
	// OutcomeMiss: executed (and populated the cache).
	OutcomeMiss
	// OutcomeQueued: waited in the admission queue but the request's
	// context expired before capacity freed up (ErrQueueTimeout).
	OutcomeQueued
	// OutcomeShed: refused immediately by admission control — pool
	// exhausted and queue full (ErrShed). It stays last: the latency
	// histograms are an array sized by it (metrics.dur).
	OutcomeShed
)

// String renders the outcome for logs and HTTP responses.
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeCoalesced:
		return "coalesced"
	case OutcomeQueued:
		return "queued"
	case OutcomeShed:
		return "shed"
	default:
		return "miss"
	}
}

// flight is one in-progress execution identical queries coalesce onto.
type flight struct {
	done chan struct{}
	res  *query.Result
	err  error
}

// Service is the concurrent query service. Create with New.
type Service struct {
	sys  *core.System
	opts Options

	// mu guards the memory caches and the flight table. All critical
	// sections are map/list operations — never an execution and never
	// file I/O (the disk tier synchronises itself and is only called
	// with mu released) — so a cache hit is a short lock, and that is
	// what benchmark/'s -hit workload (serve.cache_hit_ms) measures.
	mu       sync.Mutex
	cache    *resultCache // nil when caching is disabled
	negCache *resultCache // empty results; nil when disabled
	flights  map[string]*flight

	// disk is the cold tier for evicted positive entries; nil when
	// disabled. Set once by EnableDiskCache before serving traffic and
	// then only read; it carries its own mutex, so calls happen OUTSIDE
	// mu — a slow disk stalls only disk-tier traffic.
	disk *diskCache

	// gov is the admission governor; nil when AdmissionCapBytes is 0.
	// Acquisition happens on the singleflight leader only — after the
	// flight is registered, so a whole coalition waits (and pays) once.
	gov *governor

	// m is the one record of every serving quantity (metrics.go).
	m *metrics

	// leaderGate, when non-nil, runs on the singleflight leader between
	// registering its flight and executing — a test hook that lets the
	// coalescing test hold the flight open deterministically.
	leaderGate func()
	// admitGate, when non-nil, runs on the leader while it holds its
	// admission grant, before executing — a test hook that lets
	// admission tests pin the pool in a known state.
	admitGate func()
}

// New returns a Service over the system.
func New(sys *core.System, opts Options) *Service {
	s := &Service{sys: sys, opts: opts, flights: make(map[string]*flight), m: newMetrics()}
	if opts.CacheEntries >= 0 {
		n := opts.CacheEntries
		if n == 0 {
			n = DefaultCacheEntries
		}
		s.cache = newResultCache(n)
		if opts.NegativeEntries >= 0 {
			nn := opts.NegativeEntries
			if nn == 0 {
				nn = DefaultNegativeEntries
			}
			s.negCache = newResultCache(nn)
		}
	}
	if opts.AdmissionCapBytes > 0 {
		s.gov = newGovernor(opts)
	}
	return s
}

// EnableDiskCache attaches the cold second cache tier: positive entries
// evicted from the in-memory LRU demote to files under dir (keyed by the
// same epoch-vector cache key, so a cold hit is still provably exact),
// and a memory miss consults the tier before executing. entries bounds
// the tier (0 = a default); leftover files from a previous process are
// cleared, since their keys embed a dead engine id and can never match.
// No-op when caching is disabled. Call before serving traffic.
func (s *Service) EnableDiskCache(dir string, entries int) error {
	return s.EnableDiskCacheFS(dir, entries, vfs.OS{})
}

// EnableDiskCacheFS is EnableDiskCache over an injectable filesystem —
// the seam the fault-injection tests script disk trouble through
// (vfs.Faulty).
func (s *Service) EnableDiskCacheFS(dir string, entries int, fsys vfs.FS) error {
	s.mu.Lock()
	enabled := s.cache != nil
	s.mu.Unlock()
	if !enabled {
		return nil
	}
	// Open the tier (directory creation, stale-entry sweep — file I/O)
	// before re-taking the lock: even a setup-path critical section must
	// never span disk work (onionlint:lockscope enforces this).
	d, err := newDiskCacheFS(dir, entries, fsys, s.m)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.disk = d
	s.mu.Unlock()
	return nil
}

// demote files evicted positive entries into the disk tier. Callers must
// NOT hold s.mu: the disk tier synchronises itself, so its file writes
// never extend the global critical section — a slow disk stalls only
// disk-tier traffic, never memory-cache hits.
func (s *Service) demote(evicted []*cacheEntry) {
	s.m.evictions.Add(uint64(len(evicted)))
	if s.disk == nil {
		return
	}
	for _, e := range evicted {
		if len(e.res.Rows) == 0 {
			continue
		}
		if s.disk.put(e.key, e.res) {
			s.m.demotions.Inc()
		}
	}
}

// System returns the underlying registry, for read-side endpoints.
func (s *Service) System() *core.System { return s.sys }

// Metrics returns the registry holding the service's serving
// counters — the one record Stats reads — for exposition (oniond's
// GET /metrics writes it after obs.Default).
func (s *Service) Metrics() *obs.Registry { return s.m.reg }

// Stats returns a point-in-time snapshot of the traffic counters, read
// from the Metrics registry. Each value is loaded atomically, but the
// struct is not one consistent cut: traffic keeps advancing while it
// assembles. What it does guarantee is that a child never exceeds the
// total that bounds it. Admitted and DegradedGrants are sums over the
// same rung loads; Queued and QueueWaitNs are the queue-wait
// histogram's count and sum, and a histogram observation counts before
// it sums. Spilled queries and disk demotions are incremented after
// their parents (misses, evictions) on the serving paths, so loading
// each child before its parent means every child increment seen has its
// parent's included.
func (s *Service) Stats() Stats {
	m := s.m
	var st Stats
	st.DegradedGrants = m.rungDegraded.Value() + m.rungMin.Value()
	st.Admitted = st.DegradedGrants + m.rungFull.Value()
	st.QueueWaitNs = uint64(math.Round(m.queueWait.Sum() * 1e9))
	st.Queued = m.queueWait.Count()
	st.SpilledQueries = m.spilled.Value()
	st.CacheMisses = m.misses.Value()
	st.DiskDemotions = m.demotions.Value()
	st.Evictions = m.evictions.Value()
	st.CacheHits = m.hits.Value()
	st.Coalesced = m.coalesced.Value()
	st.NegativeHits = m.negHits.Value()
	st.Mutations = m.mutations.Value()
	st.DiskHits = m.diskHits.Value()
	st.Shed = m.shed.Value()
	st.DiskFaults = m.diskFaults.Value()
	st.BreakerTrips = m.breakerTrips.Value()
	return st
}

// Answer answers a parsed query against a registered articulation under
// per-request resource limits (a memory budget beside the context
// deadline), reporting how the answer was produced and timing it into
// the per-outcome latency histogram. The returned Result is shared —
// with the cache and possibly with concurrent callers — and must be
// treated as read-only.
//
// A non-nil trace is the request's parent span, the way
// query.Options.Trace is the engine's: Answer annotates it with the
// articulation, the normalized query and the outcome, and hangs the
// request's spans under it — cache lookup, coalesce wait, admission,
// and the engine's own query.execute subtree. The caller ends it. Spans
// cost allocations, so tracing is for requests that asked for a trace
// (oniond's trace=1, the slow-query log); a nil trace costs nothing.
func (s *Service) Answer(ctx context.Context, artName string, q query.Query, lim Limits, trace *obs.Span) (*query.Result, Outcome, error) {
	if trace != nil {
		trace.SetAttr("articulation", artName)
		trace.SetAttr("query", q.String())
	}
	t0 := time.Now()
	res, out, err := s.answer(ctx, artName, q, lim, trace)
	s.m.dur[out].ObserveSince(t0)
	trace.SetAttr("outcome", out.String())
	return res, out, err
}

// answer is the cache/coalesce/lead state machine behind Answer.
func (s *Service) answer(ctx context.Context, artName string, q query.Query, lim Limits, sp *obs.Span) (*query.Result, Outcome, error) {
	if err := q.Validate(); err != nil {
		return nil, OutcomeMiss, err
	}
	if s.opts.DefaultTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opts.DefaultTimeout)
			defer cancel()
		}
	}

	for {
		// The epoch key versions the whole lookup: it is read under the
		// registry read lock, so every completed mutation is reflected,
		// and an entry stored under the same key is exact by
		// construction.
		epoch, err := s.sys.QueryEpochKey(artName)
		if err != nil {
			return nil, OutcomeMiss, err
		}
		key := cacheKey(artName, q, epoch)

		s.mu.Lock()
		if s.cache != nil {
			if res, ok := s.cache.get(key); ok {
				s.mu.Unlock()
				s.m.hits.Inc()
				cacheSpan(sp, "memory")
				return res, OutcomeHit, nil
			}
		}
		if s.negCache != nil {
			if res, ok := s.negCache.get(key); ok {
				s.mu.Unlock()
				s.m.negHits.Inc()
				cacheSpan(sp, "negative")
				return res, OutcomeHit, nil
			}
		}
		if s.disk != nil {
			// The disk tier is consulted outside s.mu (it synchronises
			// itself): its file reads must never stall concurrent
			// memory-cache hits behind the global lock.
			s.mu.Unlock()
			if res, ok := s.disk.get(key); ok {
				// Promote the demoted entry back into the memory tier; a
				// repeat of this query is a warm hit again. The promotion
				// may in turn evict the current coldest entry, which
				// demotes back to disk — again outside the lock.
				s.mu.Lock()
				evicted := s.cache.put(key, res)
				s.mu.Unlock()
				s.demote(evicted)
				s.m.diskHits.Inc()
				cacheSpan(sp, "disk")
				return res, OutcomeHit, nil
			}
			s.mu.Lock()
			// Re-check the memory tier: a concurrent disk hit may have
			// promoted this key while the lock was released.
			if res, ok := s.cache.get(key); ok {
				s.mu.Unlock()
				s.m.hits.Inc()
				cacheSpan(sp, "memory")
				return res, OutcomeHit, nil
			}
		}
		f, inFlight := s.flights[key]
		if !inFlight {
			f = &flight{done: make(chan struct{})}
			s.flights[key] = f
			s.mu.Unlock()
			s.m.misses.Inc()
			return s.lead(ctx, artName, q, key, f, lim, sp)
		}
		s.mu.Unlock()
		s.m.coalesced.Inc()
		var ws *obs.Span
		if sp != nil {
			ws = sp.Child("coalesce.wait")
		}
		select {
		case <-f.done:
			ws.End()
			if f.err != nil && ctx.Err() == nil &&
				(errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
				// The leader died of its *own* deadline or a
				// disconnected client, not ours: retry instead of
				// inheriting an error this request never earned. The
				// next round hits the cache, parks on a newer flight,
				// or leads with this request's budget.
				continue
			}
			return f.res, OutcomeCoalesced, f.err
		case <-ctx.Done():
			// The leader keeps computing for the other waiters; only
			// this caller gives up.
			ws.End()
			return nil, OutcomeCoalesced, ctx.Err()
		}
	}
}

// cacheSpan records an instantaneous cache-hit span carrying the tier
// that answered. Nil sp — the untraced default path — costs nothing.
func cacheSpan(sp *obs.Span, tier string) {
	if sp == nil {
		return
	}
	c := sp.Child("cache.hit")
	c.SetAttr("tier", tier)
	c.End()
}

// lead executes a query as the singleflight leader. Cleanup — dropping
// the flight, publishing to the cache, releasing the waiters — is
// deferred, so even a panicking execution cannot wedge the key: waiters
// are released with an error and later queries start a fresh flight.
func (s *Service) lead(ctx context.Context, artName string, q query.Query, key string, f *flight, lim Limits, sp *obs.Span) (*query.Result, Outcome, error) {
	var execEpoch string
	completed := false
	defer func() {
		if !completed && f.err == nil {
			f.err = fmt.Errorf("serve: query execution panicked")
		}
		var evicted []*cacheEntry
		s.mu.Lock()
		delete(s.flights, key)
		if f.err == nil && s.cache != nil {
			// Store under the epoch the execution actually ran at — if
			// a mutation slipped in between the key read and the
			// execution, the entry is filed under the newer (correct)
			// version and the old key simply never hits. Empty results
			// go to the wide negative cache, so positive churn cannot
			// displace them.
			into := s.cache
			if s.negCache != nil && len(f.res.Rows) == 0 {
				into = s.negCache
			}
			evicted = into.put(cacheKey(artName, q, execEpoch), f.res)
		}
		s.mu.Unlock()
		close(f.done)
		// Demotion writes run after the lock is dropped and the waiters
		// are released: disk I/O must never extend the global critical
		// section or delay coalesced followers. (Negative-cache evictions
		// carry no rows, so demote only counts them.)
		s.demote(evicted)
	}()
	if s.leaderGate != nil {
		s.leaderGate()
	}
	exec := s.opts.Exec
	if lim.MemoryBytes > 0 && (exec.MemoryLimit <= 0 || lim.MemoryBytes < exec.MemoryLimit) {
		exec.MemoryLimit = lim.MemoryBytes
	}
	if s.gov != nil {
		// Admission happens after the flight is registered, so every
		// coalesced follower shares this one reservation (and this one
		// queue wait) instead of multiplying demand. A refusal fans out
		// through the flight like any other leader error — except a
		// queue timeout wraps the context error, which the follower
		// retry path treats as the leader's own deadline and retries.
		var as *obs.Span
		if sp != nil {
			as = sp.Child("admission")
		}
		adm, err := s.gov.acquire(ctx, exec.MemoryLimit)
		if adm.queued {
			s.m.queueWait.Observe(float64(adm.waitNs) / 1e9)
			as.SetInt("queue_wait_ns", adm.waitNs)
		}
		if err != nil {
			s.m.shed.Inc()
			out := OutcomeShed
			if adm.queued {
				out = OutcomeQueued
			}
			if as != nil {
				as.SetAttr("decision", out.String())
				as.End()
			}
			f.err = err
			completed = true
			return nil, out, err
		}
		rung, rungName := s.m.rungFull, "full"
		if adm.degraded {
			rung, rungName = s.m.rungDegraded, "degraded"
			if adm.granted <= s.gov.minGrant {
				rung, rungName = s.m.rungMin, "min"
			}
		}
		rung.Inc()
		if as != nil {
			as.SetAttr("rung", rungName)
			as.SetInt("granted_bytes", adm.granted)
			as.End()
		}
		defer s.gov.release(adm.granted)
		// The grant IS the execution budget: a degraded grant tightens
		// MemoryLimit, and the execution layer answers exactly anyway by
		// spilling joins to disk.
		exec.MemoryLimit = adm.granted
	}
	if s.admitGate != nil {
		s.admitGate()
	}
	if sp != nil {
		// The engine hangs its query.execute subtree (plan, scans, join
		// steps, spills, projection) under the request root.
		exec.Trace = sp
	}
	res, epoch, err := s.sys.Execute(ctx, artName, q, exec)
	if err == nil && res.Stats.SpilledPartitions > 0 {
		s.m.spilled.Inc()
	}
	f.res, f.err, execEpoch = res, err, epoch
	if err == nil && res.Trace != nil {
		// The span tree is this request's own: the cache and coalesced
		// followers get a copy without it.
		shared := *res
		shared.Trace = nil
		f.res = &shared
	}
	completed = true
	return res, OutcomeMiss, err
}

// AddFacts inserts facts through the underlying system. It returns the
// number of facts that actually landed in the store — duplicates are
// dropped silently by kb.Store.Add, and a batch that fails midway stops
// at the failing fact — and Stats.Mutations advances by exactly that
// count, never by len(facts). The returned count is meaningful even when
// err != nil (the partial-insert contract of core.System.AddFacts).
// Affected cache entries stop matching on their own: the mutation bumps
// the source's epoch, so subsequent lookups compute a different key and
// recompute.
func (s *Service) AddFacts(source string, facts []kb.Fact) (int, error) {
	added, err := s.sys.AddFacts(source, facts)
	s.m.mutations.Add(uint64(added))
	return added, err
}

// cacheKey builds the result-cache key. q.String() is the normalized
// rendering (Parse canonicalises whitespace and keyword case). Each
// component is length-prefixed rather than joined with a separator byte:
// articulation names come from callers over the wire and are not
// validated against any alphabet, so a name containing the separator
// could otherwise alias two distinct (articulation, query, epoch)
// triples onto one key and serve one's cached rows for the other.
func cacheKey(artName string, q query.Query, epoch string) string {
	qs := q.String()
	buf := make([]byte, 0, len(artName)+len(qs)+len(epoch)+3*binary.MaxVarintLen64)
	for _, part := range [3]string{artName, qs, epoch} {
		buf = binary.AppendUvarint(buf, uint64(len(part)))
		buf = append(buf, part...)
	}
	return string(buf)
}
