package serve

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Circuit-breaker defaults: the disk tier degrades to memory-only after
// breakerThreshold consecutive I/O failures (each already past its
// retries), and probes a single operation after breakerCooldown to see
// whether the device recovered.
const (
	breakerThreshold = 5
	breakerCooldown  = time.Second
)

// breaker states. Closed is the healthy state (the electrical-circuit
// convention: closed = current flows = disk I/O allowed).
const (
	breakerClosed = iota
	breakerOpen
	breakerProbing
)

// breaker is the disk tier's circuit breaker. The cache tier is an
// optimization, so its failure mode must be graceful: when the device
// keeps erroring, every get/put would otherwise pay retries-plus-
// backoff on a disk that is not coming back, stalling the very queries
// the tier exists to speed up. After threshold consecutive failures the
// breaker opens and the tier answers "miss"/"not cached" instantly —
// the service degrades to memory-only and every query still answers by
// executing. After cooldown, exactly one operation is let through as a
// probe: success re-closes the breaker, failure re-opens it for another
// cooldown.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	state     int
	failures  int // consecutive, resets on any success
	openedAt  time.Time

	// gauge mirrors state and trips counts openings, both in the
	// owning Service's registry.
	gauge *obs.Gauge
	trips *obs.Counter

	// now is a test hook; nil means time.Now.
	now func() time.Time
}

func newBreaker(m *metrics) *breaker {
	return &breaker{threshold: breakerThreshold, cooldown: breakerCooldown,
		gauge: m.breakerState, trips: m.breakerTrips}
}

// publish mirrors the state into the breaker gauge (0 closed,
// 1 probing, 2 open). Called with b.mu held — a gauge set is one atomic
// store, never I/O.
func (b *breaker) publish() {
	switch b.state {
	case breakerClosed:
		b.gauge.Set(0)
	case breakerProbing:
		b.gauge.Set(1)
	default:
		b.gauge.Set(2)
	}
}

func (b *breaker) clock() time.Time {
	if b.now != nil {
		return b.now()
	}
	return time.Now()
}

// allow reports whether a disk operation may proceed. While open it
// refuses until the cooldown elapses, then admits a single probe;
// further calls keep refusing until that probe's record() settles the
// state.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.clock().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerProbing
			b.publish()
			return true
		}
		return false
	default: // probing: one in-flight probe is enough
		return false
	}
}

// record feeds an operation's outcome back. Success heals the breaker
// completely; a failure during probing — or the threshold'th
// consecutive failure while closed — opens it.
func (b *breaker) record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.state = breakerClosed
		b.failures = 0
		b.publish()
		return
	}
	b.failures++
	if b.state == breakerProbing || b.failures >= b.threshold {
		if b.state != breakerOpen {
			b.trips.Inc()
		}
		b.state = breakerOpen
		b.openedAt = b.clock()
		b.publish()
	}
}

// isOpen reports whether the tier is currently degraded (open or mid-
// probe), for tests and readiness checks.
func (b *breaker) isOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != breakerClosed
}
