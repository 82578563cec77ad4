package main

import (
	"context"
	"math"
	"testing"
	"time"
)

// The reported tail is the highest percentile with at least ten
// samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{120, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 200; i++ {
		s = append(s, time.Duration(i))
	}
	for p, want := range map[float64]time.Duration{50: 100, 95: 190, 99: 198, 100: 200} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%g = %d, want %d", p, got, want)
		}
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("p95 of nothing = %d", got)
	}
}

// Self time is a span's duration minus the union of its children's
// intervals; overlapping children share the overlap; an unknown span is
// charged to its nearest known ancestor; and the layers sum to the wall
// clock.
func TestAttributeOverlappingChildren(t *testing.T) {
	root := &span{Name: "client.request", DurNs: 120, Children: []*span{{
		Name: "request", StartNs: 0, DurNs: 100, Children: []*span{
			{Name: "scan a", StartNs: 10, DurNs: 40},        // [10,50)
			{Name: "scan b", StartNs: 30, DurNs: 40},        // [30,70) overlaps a on [30,50)
			{Name: "plan", StartNs: 80, DurNs: 40},          // [80,120) clipped to the parent's [80,100)
			{Name: "never-heard-of", StartNs: 72, DurNs: 4}, // charged to request
		},
	}}}
	got := map[string]float64{}
	attribute(root, got)
	want := map[string]float64{
		"oniond.http_self_ms":   20, // 120 − 100
		"serve.request_self_ms": 20, // 100 − union{[10,70) ∪ [72,76) ∪ [80,100)} = 16, plus the unknown span's 4
		"query.scan_ms":         60, // [10,70): the overlap is split, not double-counted
		"query.plan_ms":         20,
	}
	sum := 0.0
	for layer, ns := range got {
		sum += ns
		if math.Abs(ns-want[layer]) > 1e-9 {
			t.Errorf("%s = %g ns, want %g", layer, ns, want[layer])
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	if math.Abs(sum-120) > 1e-9 {
		t.Errorf("layers sum to %g ns, wall clock is 120", sum)
	}
}

// An open-loop request is timed from when it was due: a stalled answer
// delays the requests behind it, and their latency says so, while the
// generator's own lag stays small.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const period, stall = 10 * time.Millisecond, 45 * time.Millisecond
	start := time.Now()
	samples := openLoop(context.Background(), start, period, 8, func(i int) (int, bool) {
		if i == 1 {
			time.Sleep(stall)
		}
		return 0, true
	})
	if len(samples) != 8 {
		t.Fatalf("%d samples, want 8", len(samples))
	}
	if samples[1].lat < stall {
		t.Errorf("stalled request took %v, want at least %v", samples[1].lat, stall)
	}
	// Request 2 was due at 20 ms but could not go before 55 ms.
	if want := stall - period; samples[2].lat < want {
		t.Errorf("request behind the stall reports %v, want at least %v from its due time", samples[2].lat, want)
	}
	if samples[2].lat <= samples[7].lat {
		t.Errorf("request behind the stall (%v) should be slower than one after the backlog cleared (%v)", samples[2].lat, samples[7].lat)
	}
	for i, s := range samples {
		if s.lag < 0 || s.lag > 5*time.Millisecond {
			t.Errorf("request %d: generator lag %v", i, s.lag)
		}
	}
	if total := time.Since(start); total < 7*period {
		t.Errorf("schedule finished in %v, before the last request was due", total)
	}
}

func TestOutcomeOf(t *testing.T) {
	for payload, want := range map[string]string{
		`{"vars":["x"],"rows":[[{"kind":"string","value":"\"outcome\": \"hit\""}]],"outcome":"miss","stats":{}}`: "miss",
		"{\n  \"rows\": [],\n  \"outcome\": \"hit\",\n  \"stats\": {}\n}":                                        "hit",
		`{"error":"bad request"}`: "",
	} {
		if got := outcomeOf([]byte(payload)); got != want {
			t.Errorf("outcomeOf(%s) = %q, want %q", payload, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "query_p50_ms", better: "lower", bound: 0.25}
	higher := metricDef{name: "query_qps", better: "higher", bound: 0.25}
	for _, c := range []struct {
		d          metricDef
		base, next float64
		want       string
	}{
		{lower, 10, 12.4, "ok"}, {lower, 10, 12.6, "regressed"}, {lower, 10, 7.4, "improved"}, {lower, 10, 7.6, "ok"},
		{higher, 100, 76, "ok"}, {higher, 100, 74, "regressed"}, {higher, 100, 126, "improved"},
	} {
		if got := verdict(c.d, c.base, c.next); got != c.want {
			t.Errorf("%s %g → %g: %s, want %s", c.d.name, c.base, c.next, got, c.want)
		}
	}
}
